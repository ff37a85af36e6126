module Procset = Setsync_schedule.Procset

type process = Kanti_omega.process

let params ~n ~t = { Kanti_omega.n; t; k = 1 }

let create_shared store ~n ~t = Kanti_omega.create_shared store (params ~n ~t)

let make_process ?initial_timeout shared ~n ~t ~proc =
  Kanti_omega.make_process ?initial_timeout shared (params ~n ~t) ~proc

let forever = Kanti_omega.forever

let leader p =
  let w = Kanti_omega.winnerset p in
  if Procset.is_empty w then 0 else Procset.min_elt w

let iterations = Kanti_omega.iterations
