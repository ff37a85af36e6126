module Procset = Setsync_schedule.Procset

type process = Kanti_omega.process

let machine ?initial_timeout store ~n ~t =
  let params = { Kanti_omega.n; t; k = 1 } in
  Kanti_omega.machine ?initial_timeout (Kanti_omega.create_shared store params) params

let leader p =
  let w = Kanti_omega.winnerset p in
  if Procset.is_empty w then 0 else Procset.min_elt w

let iterations = Kanti_omega.iterations
