type t = int

(* Procset packs a set of processes into the bits of one OCaml [int];
   bit 62 is the sign bit on 64-bit platforms, so stop at 62. *)
let max_universe = 62

let check_n n =
  if n < 1 || n > max_universe then
    invalid_arg (Printf.sprintf "Proc.check_n: n = %d not in [1, %d]" n max_universe)

let check ~n p =
  check_n n;
  if p < 0 || p >= n then
    invalid_arg (Printf.sprintf "Proc.check: process %d not in [0, %d)" p n)

let all ~n =
  check_n n;
  List.init n (fun p -> p)

let equal = Int.equal

let to_string p = Printf.sprintf "p%d" (p + 1)

let pp ppf p = Fmt.string ppf (to_string p)
