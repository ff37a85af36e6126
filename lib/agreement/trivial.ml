module Store = Setsync_memory.Store
module Machine = Setsync_runtime.Machine

(* PC: the atomic a process just performed, with its pending result *)
type tpc =
  | T_written  (** wrote own slot; own decision pending *)
  | T_scan of int * int option  (** read slot [q]; adoption pending *)
  | T_idle  (** decided: pause steps from now on *)

type t = {
  inputs : int array;
  slots : int option Setsync_memory.Register.t array;  (** t + 1 write-and-decide slots *)
  decisions : int option array;
  pcs : tpc option array;
}

let create store ~problem ~inputs =
  let { Problem.t = resilience; k; n } = problem in
  if Array.length inputs <> n then invalid_arg "Trivial.create: inputs must have length n";
  if resilience >= k then invalid_arg "Trivial.create: requires t < k";
  {
    inputs;
    slots =
      Store.array store
        ~pp:(Fmt.option ~none:(Fmt.any "⊥") Fmt.int)
        ~name:"Val" (resilience + 1)
        (fun _ -> None);
    decisions = Array.make n None;
    pcs = Array.make n None;
  }

(* decide, then stay correct: idle steps until the harness stops the
   run *)
let decide (acc : Machine.access) t proc v =
  t.decisions.(proc) <- Some v;
  acc.pause ();
  T_idle

let resume (acc : Machine.access) t proc =
  let slots = Array.length t.slots in
  let scan q = T_scan (q, acc.read t.slots.(q)) in
  function
  | None when proc < slots ->
      acc.write t.slots.(proc) (Some t.inputs.(proc));
      T_written
  | None -> scan 0
  | Some T_written -> decide acc t proc t.inputs.(proc)
  | Some (T_scan (_, Some v)) -> decide acc t proc v
  | Some (T_scan (q, None)) -> scan ((q + 1) mod slots)
  | Some T_idle ->
      acc.pause ();
      T_idle

let step t acc proc = t.pcs.(proc) <- Some (resume acc t proc t.pcs.(proc))

let decisions t = Array.copy t.decisions

let decided t p = Option.is_some t.decisions.(p)
