module Rng = Setsync_schedule.Rng

type entry = { novelty : int; cand : Mutate.candidate }

(* Digest filter: an open-addressed table of 62-bit state keys
   (0 = empty), probed over a bounded window. The table starts small
   and doubles, rehashing, whenever it passes half full or a probe
   window saturates, until it reaches its cap; below the cap it is an
   exact set (up to hash collisions), and a hunt that sees a few
   hundred digests holds a table of a few KB. At the cap, memory stays
   constant where the old hashtable grew with every distinct digest, at
   the price of approximation in both directions:

   - false positives: two distinct states with one key make the second
     read as already-seen (novelty undercount) — with keys built from
     60-bit entry hashes, vanishing in practice;
   - false negatives: once a probe window saturates, the home slot is
     deterministically overwritten, forgetting an old digest — if it
     reappears it counts as novel again (novelty overcount).

   Both errors only perturb the novelty heuristic, never soundness
   (violations are exactly re-verified), and both are deterministic
   functions of the digest sequence, preserving the same-seed
   reproduction contract. *)
let probe_window = 8

let initial_slots = 256

type t = {
  mutable slots : int array;  (* power-of-two length, at most [cap] *)
  cap : int;
  mutable distinct : int;  (* note_hash calls that returned true *)
  mutable digest_evictions : int;  (* saturated-window overwrites *)
  max_entries : int;
  mutable arr : entry array;  (* novelty-descending, ties in insertion order *)
  mutable count : int;
  mutable evictions : int;  (* at-capacity adds that displaced a worse entry *)
  mutable rejections : int;  (* at-capacity adds not novel enough to keep *)
}

let create ?(max_entries = 64) ?(digest_slots = 1 lsl 16) () =
  if max_entries < 1 then invalid_arg "Corpus.create: max_entries must be >= 1";
  if digest_slots < probe_window then
    invalid_arg "Corpus.create: digest_slots must be >= 8";
  let pow2 = ref probe_window in
  while !pow2 < digest_slots do
    pow2 := !pow2 * 2
  done;
  {
    slots = Array.make (min !pow2 initial_slots) 0;
    cap = !pow2;
    distinct = 0;
    digest_evictions = 0;
    max_entries;
    arr = [||];
    count = 0;
    evictions = 0;
    rejections = 0;
  }

type probe = Seen | Placed | Full

(* look [h] up in its window, taking the first empty slot if absent *)
let probe slots h =
  let mask = Array.length slots - 1 in
  let home = h land mask in
  let rec go k =
    if k = probe_window then Full
    else
      let idx = (home + k) land mask in
      let s = slots.(idx) in
      if s = h then Seen
      else if s = 0 then begin
        slots.(idx) <- h;
        Placed
      end
      else go (k + 1)
  in
  go 0

(* saturated window: overwrite the home slot (deterministic eviction —
   the forgotten digest may later re-count as novel) *)
let evict t slots h =
  slots.(h land (Array.length slots - 1)) <- h;
  t.digest_evictions <- t.digest_evictions + 1

let grow t =
  let slots = Array.make (2 * Array.length t.slots) 0 in
  Array.iter (fun h -> if h <> 0 && probe slots h = Full then evict t slots h) t.slots;
  t.slots <- slots

let below_cap t = Array.length t.slots < t.cap

let rec note t h =
  match probe t.slots h with
  | Seen -> false
  | Placed ->
      t.distinct <- t.distinct + 1;
      if below_cap t && 2 * t.distinct > Array.length t.slots then grow t;
      true
  | Full when below_cap t ->
      grow t;
      note t h
  | Full ->
      evict t t.slots h;
      t.distinct <- t.distinct + 1;
      true

(* the sign bit cleared and 0 read as 1, so 0 stays the empty sentinel *)
let note_hash t h =
  let h = h land max_int in
  note t (if h = 0 then 1 else h)

let digests t = t.distinct

let digest_evictions t = t.digest_evictions

let add t ~novelty cand =
  if novelty > 0 then begin
    let e = { novelty; cand } in
    if t.arr = [||] then t.arr <- Array.make t.max_entries e;
    (* insertion position: after every entry of novelty >= [e]'s, so
       ties keep insertion order *)
    let pos = ref 0 in
    while !pos < t.count && t.arr.(!pos).novelty >= novelty do
      incr pos
    done;
    let pos = !pos in
    if t.count < t.max_entries then begin
      Array.blit t.arr pos t.arr (pos + 1) (t.count - pos);
      t.arr.(pos) <- e;
      t.count <- t.count + 1
    end
    else if pos >= t.max_entries then t.rejections <- t.rejections + 1
    else begin
      (* displace the current worst entry *)
      Array.blit t.arr pos t.arr (pos + 1) (t.max_entries - 1 - pos);
      t.arr.(pos) <- e;
      t.evictions <- t.evictions + 1
    end
  end

let size t = t.count

let is_empty t = t.count = 0

let evictions t = t.evictions

let rejections t = t.rejections

let pick t rng =
  if t.count = 0 then invalid_arg "Corpus.pick: empty corpus";
  let i = Rng.int rng t.count and j = Rng.int rng t.count in
  t.arr.(min i j).cand
