(* Domain-parallel scheduling primitives for the explorer: per-worker
   work-stealing deques, a lock-striped fingerprint table, and a small
   domain pool with pending-count termination detection. Nothing here
   knows about schedules or properties — Explorer composes these. *)

(* ------------------------------------------------------- work deque *)

module Ws_deque = struct
  (* A mutex-protected deque. The owner pushes and pops at the top
     (LIFO, so its local order is depth-first); thieves steal from the
     bottom, which holds the shallowest — i.e. largest — subtrees.
     Represented as two lists with lazy rebalancing: the full deque,
     top to bottom, is [top @ List.rev bot]. Every operation takes the
     lock; the owner's fast path is an uncontended lock, which is
     orders of magnitude cheaper than the replay each item costs. *)
  type 'a t = {
    m : Mutex.t;
    mutable top : 'a list;
    mutable bot : 'a list;
    mutable count : int;
  }

  let create () = { m = Mutex.create (); top = []; bot = []; count = 0 }

  let[@inline] locked t f =
    Mutex.lock t.m;
    match f () with
    | r ->
        Mutex.unlock t.m;
        r
    | exception e ->
        Mutex.unlock t.m;
        raise e

  let push t x =
    locked t (fun () ->
        t.top <- x :: t.top;
        t.count <- t.count + 1)

  let pop t =
    locked t (fun () ->
        (match t.top with
        | [] ->
            t.top <- List.rev t.bot;
            t.bot <- []
        | _ -> ());
        match t.top with
        | [] -> None
        | x :: tl ->
            t.top <- tl;
            t.count <- t.count - 1;
            Some x)

  let steal t =
    locked t (fun () ->
        (match t.bot with
        | [] ->
            t.bot <- List.rev t.top;
            t.top <- []
        | _ -> ());
        match t.bot with
        | [] -> None
        | x :: tl ->
            t.bot <- tl;
            t.count <- t.count - 1;
            Some x)

  (* racy read; monitoring only *)
  let size t = t.count
end

(* -------------------------------------------------- sharded table *)

module Shard_tbl = struct
  (* Lock-striped [string -> depth] map for fingerprint memoization.
     Each key hashes to one stripe; lookup-and-update is atomic within
     a stripe, so the "seen at the same or a shallower depth" decision
     never loses an update. Two workers reaching a brand-new
     fingerprint race benignly: stripe locking serializes them, the
     loser is pruned (or records the smaller depth). *)
  type t = {
    mask : int;
    locks : Mutex.t array;
    tables : (string, int) Hashtbl.t array;
  }

  let create ?(shards = 64) () =
    let shards = max 1 shards in
    (* round up to a power of two so [land mask] is a uniform index *)
    let n = ref 1 in
    while !n < shards do
      n := !n * 2
    done;
    {
      mask = !n - 1;
      locks = Array.init !n (fun _ -> Mutex.create ());
      tables = Array.init !n (fun _ -> Hashtbl.create 64);
    }

  (* Full-width structural hash. The default [Hashtbl.hash] stops after
     10 meaningful nodes, so structured keys that differ only past that
     horizon all land in the same stripe — correctness survives (the
     per-stripe Hashtbl compares full keys) but one stripe's lock
     serializes every worker. [hash_param 256 256] visits enough of the
     value to spread any realistic fingerprint across stripes. *)
  let full_hash v = Hashtbl.hash_param 256 256 v

  (* [true] = caller should expand: the fingerprint was not yet seen at
     this depth or shallower. Records the new minimal depth either way. *)
  let check_and_record t key ~depth =
    let i = full_hash key land t.mask in
    Mutex.lock t.locks.(i);
    let expand =
      match Hashtbl.find_opt t.tables.(i) key with
      | Some d0 when d0 <= depth -> false
      | Some _ | None ->
          Hashtbl.replace t.tables.(i) key depth;
          true
    in
    Mutex.unlock t.locks.(i);
    expand
end

(* ------------------------------------------------------------ pool *)

module Pool = struct
  type 'a t = {
    deques : 'a Ws_deque.t array;
    pending : int Atomic.t;
        (* items pushed and not yet fully processed (a popped item
           stays pending until its callback — which pushes the item's
           children — returns; so [pending = 0] iff no work exists
           anywhere and none is in flight: exact termination) *)
    stopped : bool Atomic.t;
    error : (exn * Printexc.raw_backtrace) option Atomic.t;
    on_steal : (thief:int -> victim:int -> unit) option;
        (* observability hook, called on the thief's domain after each
           successful steal *)
    fifo : bool;  (* owners take their oldest item, as thieves do *)
  }

  let create ?on_steal ?(fifo = false) ~workers () =
    if workers < 1 then invalid_arg "Parallel.Pool.create: workers must be >= 1";
    {
      deques = Array.init workers (fun _ -> Ws_deque.create ());
      pending = Atomic.make 0;
      stopped = Atomic.make false;
      error = Atomic.make None;
      on_steal;
      fifo;
    }

  let workers t = Array.length t.deques

  let push t ~worker x =
    Atomic.incr t.pending;
    Ws_deque.push t.deques.(worker) x

  let frontier_size t = Array.fold_left (fun acc d -> acc + Ws_deque.size d) 0 t.deques

  let stop t = Atomic.set t.stopped true

  let stopped t = Atomic.get t.stopped

  let take t wid =
    let own = if t.fifo then Ws_deque.steal else Ws_deque.pop in
    match own t.deques.(wid) with
    | Some _ as r -> r
    | None ->
        let w = Array.length t.deques in
        let rec try_steal i =
          if i >= w - 1 then None
          else
            let victim = (wid + 1 + i) mod w in
            match Ws_deque.steal t.deques.(victim) with
            | Some _ as r ->
                (match t.on_steal with
                | Some f -> f ~thief:wid ~victim
                | None -> ());
                r
            | None -> try_steal (i + 1)
        in
        try_steal 0

  let worker_loop t wid f =
    let rec loop () =
      if Atomic.get t.stopped then ()
      else
        match take t wid with
        | Some item ->
            (try f wid item
             with e ->
               let bt = Printexc.get_raw_backtrace () in
               ignore (Atomic.compare_and_set t.error None (Some (e, bt)));
               Atomic.set t.stopped true);
            Atomic.decr t.pending;
            loop ()
        | None ->
            if Atomic.get t.pending = 0 then ()
            else begin
              Domain.cpu_relax ();
              loop ()
            end
    in
    loop ()

  let run t f =
    let w = Array.length t.deques in
    let spawned =
      Array.init (w - 1) (fun i -> Domain.spawn (fun () -> worker_loop t (i + 1) f))
    in
    worker_loop t 0 f;
    Array.iter Domain.join spawned;
    match Atomic.get t.error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
end
