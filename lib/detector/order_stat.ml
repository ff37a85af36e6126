let check name a k =
  let len = Array.length a in
  if k < 1 || k > len then
    invalid_arg (Printf.sprintf "Order_stat.%s: k = %d, length = %d" name k len)

(* arrays here have length n (the process count), so an insertion sort
   is both simplest and fast enough, and allocates nothing *)
let sort_in_place a =
  for j = 1 to Array.length a - 1 do
    let v = a.(j) in
    let i = ref j in
    while !i > 0 && a.(!i - 1) > v do
      a.(!i) <- a.(!i - 1);
      decr i
    done;
    a.(!i) <- v
  done

let select_in_place a k =
  check "select_in_place" a k;
  sort_in_place a;
  a.(k - 1)

let kth_smallest a k =
  check "kth_smallest" a k;
  let copy = Array.copy a in
  sort_in_place copy;
  copy.(k - 1)

let smallest a = kth_smallest a 1
