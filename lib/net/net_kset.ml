module Proc = Setsync_schedule.Proc

type t = {
  net : Net.t;
  me : Proc.t;
  n : int;
  total_rounds : int;
  mutable est : int;
  mutable decision : int option;
}

let create ?(rounds = 2) ~net ~clients ~me ~input () =
  if rounds < 1 then invalid_arg "Net_kset.create: rounds >= 1";
  Proc.check ~n:clients me;
  { net; me; n = clients; total_rounds = rounds; est = input; decision = None }

let merge t msgs =
  List.iter
    (fun m ->
      match m.Msg.payload with Msg.Value v -> t.est <- min t.est v | _ -> ())
    msgs

let round t =
  for q = 0 to t.n - 1 do
    if q <> t.me then Net.send t.net ~dst:q (Msg.Value t.est)
  done;
  merge t (Net.recv t.net)

let body t () =
  for _ = 1 to t.total_rounds do
    round t
  done;
  t.decision <- Some t.est;
  (* keep gossiping the decided value so late deliveries still reach
     slower groups — the point is that pre-GST silence, not process
     speed, is what forces disagreement *)
  while true do
    round t
  done

let decision t = t.decision
