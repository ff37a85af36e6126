type router = { route_for : 'a. 'a Register.t -> 'a Register.route option }

(* One record per register, closure-free: the register and its values
   at each savepoint depth of [checkpoint]. *)
type view = View : { reg : 'a Register.t; mutable saved : 'a array } -> view

(* A memoized store's cell per register: the register's value hash, the
   value it last hashed and that value's hash. *)
type cell =
  | Cell : {
      reg : 'a Register.t;
      hash_of : 'a -> int;
      mutable seen : 'a;
      mutable hash : int;
    }
      -> cell

type t = {
  hook : Register.hook option;
  mutable next_id : int;
  mutable views : view list;  (* most recent first *)
  mutable router : router option;
  mutable cells : cell list option;  (* most recent first; [Some] iff memoized *)
  points : Savestack.t;  (* [checkpoint]'s depths *)
}

(* Two 30-bit seeded structural hashes side by side: 60 bits, so
   distinct values of one hunt practically never share a hash. Each
   reaches 256 words: the default 10 would stop inside the n=9 counter
   core's observation and inside a net inbox of two messages. *)
let hash v =
  Hashtbl.seeded_hash_param 256 256 1 v lor (Hashtbl.seeded_hash_param 256 256 2 v lsl 30)

let create ?hook () =
  { hook; next_id = 0; views = []; router = None; cells = None; points = Savestack.create () }

let set_router t r = t.router <- Some r

let routed t = Option.is_some t.router

let register t ?pp ?(hash = hash) ~name init =
  let id = t.next_id in
  t.next_id <- id + 1;
  let reg = Register.make ?pp ?hook:t.hook ~name ~id init in
  (match t.router with
  | None -> ()
  | Some r -> (
      match r.route_for reg with
      | None -> ()
      | Some route -> Register.set_route reg route));
  t.views <- View { reg; saved = [||] } :: t.views;
  (match t.cells with
  | None -> ()
  | Some cells ->
      let v = Register.peek reg in
      t.cells <- Some (Cell { reg; hash_of = hash; seen = v; hash = hash v } :: cells));
  reg

(* the length of "[i]", for [i >= 0] *)
let rec index_width i = if i < 10 then 3 else 1 + index_width (i / 10)

(* write the digits of [i] and then "[" into [b], leftwards from [pos] *)
let rec put_digits b pos i =
  Bytes.set b pos (Char.chr (Char.code '0' + (i mod 10)));
  if i >= 10 then put_digits b (pos - 1) (i / 10) else Bytes.set b (pos - 1) '['

(* the bytes of [name ^ "[" ^ string_of_int i ^ "]"], written into one
   exact-length string *)
let index name i =
  let len = String.length name in
  let b = Bytes.create (len + index_width i) in
  Bytes.blit_string name 0 b 0 len;
  Bytes.set b (Bytes.length b - 1) ']';
  put_digits b (Bytes.length b - 2) i;
  Bytes.unsafe_to_string b

let array t ?pp ?hash ~name len init =
  Array.init len (fun idx -> register t ?pp ?hash ~name:(index name idx) (init idx))

let matrix t ?pp ?hash ~name ~rows ~cols init =
  Array.init rows (fun r ->
      let row = index name r in
      Array.init cols (fun c -> register t ?pp ?hash ~name:(index row c) (init r c)))

let register_count t = t.next_id

(* Snapshots must be total: a pp-less register still has to render a
   string that distinguishes distinct values, or fingerprint pruning
   built on snapshots becomes unsound. Marshal the value and digest the
   bytes; closures (and other unmarshalable values) fall back to a
   full-width structural hash. *)
let render (View { reg; _ }) =
  let v = Register.peek reg in
  match Register.printer reg with
  | Some pp -> Fmt.str "%a" pp v
  | None -> (
      match Marshal.to_string v [ Marshal.Closures ] with
      | bytes -> "#" ^ Digest.to_hex (Digest.string bytes)
      | exception _ -> Printf.sprintf "#h%x" (Hashtbl.hash_param 256 256 v))

let snapshot t =
  List.rev_map (fun (View { reg; _ } as v) -> (Register.name reg, render v)) t.views

let memoized ?hook () = { (create ?hook ()) with cells = Some [] }

(* A polynomial fold of the cells' hashes, most recent cell first; a
   cell re-hashes only when its register holds a value that is not
   physically the one it last hashed. *)
let key t =
  match t.cells with
  | None -> invalid_arg "Store.key: the store is not memoized"
  | Some cells ->
      List.fold_left
        (fun acc (Cell c) ->
          let v = Register.peek c.reg in
          if v != c.seen then begin
            c.seen <- v;
            c.hash <- c.hash_of v
          end;
          (acc * 0x100000001b3) + c.hash)
        0 cells

type value = Value : 'a Register.t * 'a -> value

let save t =
  let values = List.rev_map (fun (View { reg; _ }) -> Value (reg, Register.peek reg)) t.views in
  fun () -> List.iter (fun (Value (reg, v)) -> Register.poke reg v) values

let rec capture_views views depth =
  match views with
  | [] -> ()
  | View v :: rest ->
      let x = Register.peek v.reg in
      if depth >= Array.length v.saved then v.saved <- Savestack.grow v.saved (depth + 1) x;
      v.saved.(depth) <- x;
      capture_views rest depth

let rec restore_views views depth =
  match views with
  | [] -> ()
  | View v :: rest ->
      Register.poke v.reg v.saved.(depth);
      restore_views rest depth

let checkpoint t =
  Savestack.save t.points "Store.checkpoint"
    (fun t depth -> capture_views t.views depth)
    (fun t depth -> restore_views t.views depth)
    t
