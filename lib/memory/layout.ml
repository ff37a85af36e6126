type sink = Buffer.t

(* A value slot's savepoint capture and restore at a depth. *)
type value_slot = { capture : int -> unit; restore : int -> unit }

(* A declaration costs O(1): the lists hold their slots newest first,
   which capture and restore walk alike, and the identity keeps
   declaration order. *)
type t = {
  who : string;
  points : Savestack.t;
  mutable ints : int array list;  (* the int slots *)
  mutable width : int;  (* their total length: one depth's share of [saved] *)
  mutable saved : int array;  (* every int slot, [width] ints a depth *)
  mutable values : value_slot list;
  encoders : (string option * (sink -> unit)) Queue.t;  (* the identity, slot by slot *)
  buf : Buffer.t;
}

let create who =
  {
    who;
    points = Savestack.create ();
    ints = [];
    width = 0;
    saved = [||];
    values = [];
    encoders = Queue.create ();
    buf = Buffer.create 64;
  }

let encoded t ?name encode = Queue.add (name, encode) t.encoders

let rec put_unsigned buf u =
  if u >= 0 && u < 0x80 then Buffer.add_char buf (Char.unsafe_chr u)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (u land 0x7f lor 0x80));
    put_unsigned buf (u lsr 7)
  end

(* zigzag, then 7 bits a byte with a continuation bit: injective and
   prefix-free over all ints *)
let put buf i = put_unsigned buf ((i lsl 1) lxor (i asr 62))

let option encode buf = function
  | None -> put buf 0
  | Some v ->
      put buf 1;
      encode buf v

let ints t a =
  t.ints <- a :: t.ints;
  t.width <- t.width + Array.length a;
  encoded t (fun buf ->
      for i = 0 to Array.length a - 1 do
        put buf a.(i)
      done)

let values t ~name a encode =
  let len = Array.length a in
  let saved = ref [||] in
  t.values <-
    {
      capture =
        (fun depth ->
          let at = depth * len in
          (* an empty [a] never grows, so [a.(0)] exists here *)
          if at + len > Array.length !saved then saved := Savestack.grow !saved (at + len) a.(0);
          Array.blit a 0 !saved at len);
      restore = (fun depth -> Array.blit !saved (depth * len) a 0 len);
    }
    :: t.values;
  encoded t ~name (fun buf ->
      for i = 0 to len - 1 do
        encode buf a.(i)
      done)

(* a register row is named by its registers' name less the last index *)
let row_name regs =
  if Array.length regs = 0 then None
  else
    let name = Register.name regs.(0) in
    Some (match String.rindex_opt name '[' with Some i -> String.sub name 0 i | None -> name)

let registers t regs encode =
  encoded t ?name:(row_name regs) (fun buf ->
      for i = 0 to Array.length regs - 1 do
        encode buf (Register.peek regs.(i))
      done)

let rec capture_values depth = function
  | [] -> ()
  | v :: rest ->
      v.capture depth;
      capture_values depth rest

let rec restore_values depth = function
  | [] -> ()
  | v :: rest ->
      v.restore depth;
      restore_values depth rest

(* The int slots copy element by element into one buffer: an int store
   needs no write barrier, which [Array.blit] pays per element on a
   major-heap array. No closure, so a save allocates nothing here. *)
let rec capture_ints saved at = function
  | [] -> ()
  | (a : int array) :: rest ->
      for i = 0 to Array.length a - 1 do
        saved.(at + i) <- a.(i)
      done;
      capture_ints saved (at + Array.length a) rest

let rec restore_ints saved at = function
  | [] -> ()
  | (a : int array) :: rest ->
      for i = 0 to Array.length a - 1 do
        a.(i) <- saved.(at + i)
      done;
      restore_ints saved (at + Array.length a) rest

let capture t depth =
  let width = t.width in
  if (depth + 1) * width > Array.length t.saved then
    t.saved <- Savestack.grow t.saved ((depth + 1) * width) 0;
  capture_ints t.saved (depth * width) t.ints;
  capture_values depth t.values

let restore t depth =
  restore_ints t.saved (depth * t.width) t.ints;
  restore_values depth t.values

let save t = Savestack.save t.points t.who capture restore t

let identity ?without t =
  let buf = t.buf in
  Buffer.clear buf;
  (match without with
  | None -> Queue.iter (fun (_, encode) -> encode buf) t.encoders
  | Some dropped ->
      Queue.iter
        (fun (name, encode) -> if name <> Some dropped then encode buf)
        t.encoders);
  Buffer.contents buf
