type t = int

let empty = 0

let is_empty s = s = 0

let check_proc p =
  if p < 0 || p >= Proc.max_universe then
    invalid_arg (Printf.sprintf "Procset: process %d out of range" p)

let singleton p =
  check_proc p;
  1 lsl p

let full ~n =
  Proc.check_n n;
  (1 lsl n) - 1

let mem p s =
  check_proc p;
  s land (1 lsl p) <> 0

let add p s = s lor singleton p

let remove p s = s land lnot (singleton p)

let union a b = a lor b

let inter a b = a land b

let diff a b = a land lnot b

let subset a b = a land lnot b = 0

let disjoint a b = a land b = 0

let cardinal s =
  let rec count acc s = if s = 0 then acc else count (acc + 1) (s land (s - 1)) in
  count 0 s

let equal = Int.equal

let compare = Int.compare

let to_bits s = s

let of_bits b = b

let min_elt s =
  if s = 0 then raise Not_found;
  (* index of lowest set bit *)
  let rec find i s = if s land 1 <> 0 then i else find (i + 1) (s lsr 1) in
  find 0 s

let fold f s init =
  let rec go acc s =
    if s = 0 then acc
    else
      let p = min_elt s in
      go (f p acc) (s land (s - 1))
  in
  go init s

let iter f s = fold (fun p () -> f p) s ()

let elements s = List.rev (fold (fun p acc -> p :: acc) s [])

let of_list l = List.fold_left (fun acc p -> add p acc) empty l

let for_all f s = fold (fun p acc -> acc && f p) s true

let exists f s = fold (fun p acc -> acc || f p) s false

let filter f s = fold (fun p acc -> if f p then add p acc else acc) s empty

let nth s r =
  if r < 0 || r >= cardinal s then
    invalid_arg (Printf.sprintf "Procset.nth: rank %d out of range" r);
  let rec go r s =
    let p = min_elt s in
    if r = 0 then p else go (r - 1) (s land (s - 1))
  in
  go r s

let choose_rng rng s =
  if s = 0 then invalid_arg "Procset.choose_rng: empty set";
  nth s (Rng.int rng (cardinal s))

let count_subsets ~n k =
  Proc.check_n n;
  if k < 0 || k > n then invalid_arg "Procset.count_subsets";
  (* C(n, k) with intermediate exactness for the small n we support *)
  let k = min k (n - k) in
  let rec go acc i = if i > k then acc else go (acc * (n - k + i) / i) (i + 1) in
  go 1 1

let subsets_of_size ~n k =
  Proc.check_n n;
  if k < 0 || k > n then invalid_arg "Procset.subsets_of_size";
  if k = 0 then [ empty ]
  else begin
    (* Gosper's hack enumerates k-bit subsets in increasing numeric
       order, which is exactly our canonical order. *)
    let limit = 1 lsl n in
    let rec go acc s =
      if s >= limit || s < 0 then List.rev acc
      else
        let c = s land -s in
        let r = s + c in
        let next = r lor (((s lxor r) / c) lsr 2) in
        (* Gosper's next is strictly increasing until it leaves the
           universe; a non-increase signals arithmetic wrap-around. *)
        if next <= s then List.rev (s :: acc) else go (s :: acc) next
    in
    go [] ((1 lsl k) - 1)
  end

let random_subset rng ~n ~size =
  Proc.check_n n;
  if size < 0 || size > n then invalid_arg "Procset.random_subset";
  let order = Array.init n (fun p -> p) in
  Rng.shuffle rng order;
  let rec build acc i = if i >= size then acc else build (add order.(i) acc) (i + 1) in
  build empty 0

let to_string s =
  let members = List.map Proc.to_string (elements s) in
  "{" ^ String.concat "," members ^ "}"

let pp ppf s = Fmt.string ppf (to_string s)
