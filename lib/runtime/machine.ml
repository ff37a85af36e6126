module Register = Setsync_memory.Register

let read reg =
  match Register.route reg with
  | None -> Register.read reg
  | Some r -> r.Register.route_read ()

let write reg v =
  match Register.route reg with
  | None -> Register.write reg v
  | Some r -> r.Register.route_write v

type access = {
  read : 'a. 'a Register.t -> 'a;
  write : 'a. 'a Register.t -> 'a -> unit;
  pause : unit -> unit;
}

let direct = { read; write; pause = ignore }

let fiber = { read = Shm.read; write = Shm.write; pause = Shm.pause }

type step = access -> Setsync_schedule.Proc.t -> unit

let body step p () =
  while true do
    step fiber p
  done
