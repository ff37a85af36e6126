(* A view: the first [len] entries of [steps]. Entries past [len] are
   slack no operation reads, so a prefix shares its parent's array. *)
type t = { n : int; steps : Proc.t array; len : int }

let of_array ~n steps =
  Proc.check_n n;
  Array.iter (fun p -> Proc.check ~n p) steps;
  { n; steps; len = Array.length steps }

let share ~n steps ~len =
  if len < 0 || len > Array.length steps then invalid_arg "Schedule.share: length out of bounds";
  { n; steps; len }

let of_list ~n l = of_array ~n (Array.of_list l)

let empty ~n = of_array ~n [||]

let n t = t.n

let length t = t.len

let get t idx =
  if idx < 0 || idx >= t.len then invalid_arg "Schedule.get: index out of bounds";
  t.steps.(idx)

(* the entries of [s] as an array of exactly its length *)
let entries s = if s.len = Array.length s.steps then s.steps else Array.sub s.steps 0 s.len

let append a b =
  if a.n <> b.n then invalid_arg "Schedule.append: universe mismatch";
  { n = a.n; steps = Array.append (entries a) (entries b); len = a.len + b.len }

let concat ~n parts =
  Proc.check_n n;
  List.iter (fun s -> if s.n <> n then invalid_arg "Schedule.concat: universe mismatch") parts;
  let steps = Array.concat (List.map entries parts) in
  { n; steps; len = Array.length steps }

let repeat s m =
  if m < 0 then invalid_arg "Schedule.repeat: negative repetition";
  let steps = entries s in
  { n = s.n; steps = Array.concat (List.init m (fun _ -> steps)); len = m * s.len }

let sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > s.len - len then invalid_arg "Schedule.sub: window out of bounds";
  if pos = 0 then { s with len } else { n = s.n; steps = Array.sub s.steps pos len; len }

let prefix s l = sub s ~pos:0 ~len:(min l s.len)

let iteri f s =
  for idx = 0 to s.len - 1 do
    f idx s.steps.(idx)
  done

let fold f init s =
  let acc = ref init in
  for idx = 0 to s.len - 1 do
    acc := f !acc s.steps.(idx)
  done;
  !acc

let occurrences s p = fold (fun acc q -> if Proc.equal p q then acc + 1 else acc) 0 s

let occurrences_in s set =
  fold (fun acc q -> if Procset.mem q set then acc + 1 else acc) 0 s

let support s = fold (fun acc q -> Procset.add q acc) Procset.empty s

let last_occurrence s p =
  let rec scan idx = if idx < 0 then None else if Proc.equal s.steps.(idx) p then Some idx else scan (idx - 1) in
  scan (s.len - 1)

let steps_per_process s =
  let counts = Array.make s.n 0 in
  iteri (fun _ p -> counts.(p) <- counts.(p) + 1) s;
  counts

let to_list s = List.init s.len (Array.get s.steps)

let equal a b =
  a.n = b.n && a.len = b.len
  &&
  let rec same idx = idx >= a.len || (Proc.equal a.steps.(idx) b.steps.(idx) && same (idx + 1)) in
  same 0

let pp_steps ppf s ~upto =
  for idx = 0 to upto - 1 do
    if idx > 0 then Fmt.string ppf "\xc2\xb7";
    Proc.pp ppf s.steps.(idx)
  done

let pp_full ppf s = pp_steps ppf s ~upto:s.len

let pp ppf s =
  let limit = 32 in
  if s.len <= limit then pp_steps ppf s ~upto:s.len
  else begin
    pp_steps ppf s ~upto:limit;
    Fmt.pf ppf "\xc2\xb7\xe2\x80\xa6(%d steps)" s.len
  end
