module Proc = Setsync_schedule.Proc

type plan = (Proc.t * int) list

let no_faults = []

let validate ~n plan =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (p, s) ->
      Proc.check ~n p;
      if s < 0 then invalid_arg "Fault.validate: negative step budget";
      if Hashtbl.mem seen p then invalid_arg "Fault.validate: duplicate process in plan";
      Hashtbl.add seen p ())
    plan
