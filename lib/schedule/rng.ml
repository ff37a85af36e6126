type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

(* splitmix64: fast, well-distributed, trivially seedable; more than
   enough statistical quality for schedule generation. *)
let next_int64 t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* mask to 62 bits: OCaml ints are 63-bit, so bit 62 of the raw draw
     would land on the sign bit *)
  let raw = Int64.to_int (next_int64 t) land max_int in
  raw mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let float t =
  let raw = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  raw /. 9007199254740992.0 (* 2^53 *)

let geometric t p =
  if not (p > 0. && p <= 1.) then invalid_arg "Rng.geometric: need 0 < p <= 1";
  (* count failures before the first success; cap keeps pathological
     float draws from looping (P(hit) < 2^-53 per draw at p >= 2^-12) *)
  let cap = 4096 in
  let rec go k = if k >= cap || float t < p then k else go (k + 1) in
  go 0

let pick t = function
  | [] -> invalid_arg "Rng.pick: empty list"
  | l ->
      (* one pass to materialize, O(1) index — same single draw as the
         old List.nth scan, so seeded streams are unchanged *)
      let a = Array.of_list l in
      a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let split t =
  let seed = Int64.to_int (next_int64 t) in
  { state = Int64.of_int seed }
