type mode = Read | Write

type hook = int -> mode -> unit

type 'a route = { route_read : unit -> 'a; route_write : 'a -> unit }

type 'a t = {
  name : string;
  id : int;
  pp : 'a Fmt.t option;
  hook : hook option;
  mutable value : 'a;
  mutable reads : int;
  mutable writes : int;
  mutable route : 'a route option;
}

let make ?pp ?hook ~name ~id init =
  { name; id; pp; hook; value = init; reads = 0; writes = 0; route = None }

let name t = t.name

let id t = t.id

let notify t mode = match t.hook with None -> () | Some hook -> hook t.id mode

let read t =
  t.reads <- t.reads + 1;
  notify t Read;
  t.value

let write t v =
  t.writes <- t.writes + 1;
  notify t Write;
  t.value <- v

let peek t = t.value

let poke t v = t.value <- v

let set_route t r = t.route <- Some r

let route t = t.route

let printer t = t.pp

let render t v = match t.pp with Some pp -> Fmt.str "%a" pp v | None -> "<value>"

let reads t = t.reads

let writes t = t.writes
