type t = { mutable top : int; mutable stamps : int array; mutable clock : int }

let create () = { top = 0; stamps = [||]; clock = 0 }

let grow buf len fill =
  let have = Array.length buf in
  let grown = Array.make (max len (2 * have)) fill in
  Array.blit buf 0 grown 0 have;
  grown

let save t who capture restore x =
  let depth = t.top in
  if depth = Array.length t.stamps then t.stamps <- grow t.stamps (depth + 1) 0;
  t.clock <- t.clock + 1;
  let stamp = t.clock in
  t.stamps.(depth) <- stamp;
  t.top <- depth + 1;
  capture x depth;
  fun () ->
    if t.stamps.(depth) <> stamp then
      invalid_arg (who ^ ": savepoint restored after its depth was saved over");
    t.top <- depth + 1;
    restore x depth
