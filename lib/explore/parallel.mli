(** Domain-parallel scheduling primitives for the explorer.

    Exploration replays are embarrassingly parallel — every prefix is
    re-executed against a fresh store/trace/fiber instance, so workers
    share nothing during a replay. The only shared state is the
    frontier (who explores which prefix), the fingerprint table (who
    has seen which state), and the stop/budget flags; this module
    provides exactly those three, generically. {!Explorer.explore}
    composes them at every domain count: one domain is a pool of one
    worker, which runs in the calling domain and spawns nothing. *)

(** Per-worker work-stealing deque. The owner pushes/pops LIFO at the
    top (depth-first local order); thieves steal FIFO from the bottom,
    where the shallowest prefixes — the largest subtrees — sit.
    Mutex-protected: correctness over lock-freedom, since each item
    costs a full replay and the lock is uncontended on the owner's
    fast path. All operations are safe from any domain. *)
module Ws_deque : sig
  type 'a t

  val create : unit -> 'a t
  val push : 'a t -> 'a -> unit  (** owner end *)

  val pop : 'a t -> 'a option  (** owner end, LIFO *)

  val steal : 'a t -> 'a option  (** opposite end, FIFO *)

  val size : 'a t -> int
  (** Racy snapshot; for monitoring (frontier peaks), not control. *)
end

(** Lock-striped [fingerprint -> minimal depth] table. Lookup-and-record
    is atomic per stripe, so the explorer's "prune iff seen at the same
    or a shallower depth" decision needs no global lock. *)
module Shard_tbl : sig
  type t

  val create : ?shards:int -> unit -> t
  (** [shards] (default 64) is rounded up to a power of two. *)

  val full_hash : 'a -> int
  (** Full-width structural hash used to pick a stripe. The stdlib
      default [Hashtbl.hash] truncates after 10 meaningful nodes, so
      structured values differing only deep in their tail would all
      collide onto one stripe and serialize every worker on its lock;
      this variant ([Hashtbl.hash_param 256 256]) keeps hashing past
      that horizon. Exposed for the collision regression test. *)

  val check_and_record : t -> string -> depth:int -> bool
  (** [true] = not yet seen at [depth] or shallower: the caller should
      expand, and the table now records [depth] as the key's minimum. *)
end

(** Fixed-size domain pool draining the work-stealing deques.
    Termination is exact: an item counts as pending from its push until
    its callback returns (children are pushed {e inside} the callback,
    so the count never dips to zero while work is still implied). An
    exception in any worker stops the pool and is re-raised from
    {!Pool.run} on the calling domain. *)
module Pool : sig
  type 'a t

  val create :
    ?on_steal:(thief:int -> victim:int -> unit) -> ?fifo:bool -> workers:int -> unit -> 'a t
  (** [on_steal] is an observability hook invoked on the thief's domain
      after every successful steal (the explorer routes it to steal
      events and per-worker steal counters). It runs outside the deque
      locks; keep it cheap and thread-safe.

      [fifo] (default [false]) makes each owner take its {e oldest}
      item ({!Ws_deque.steal} on its own deque) instead of its newest:
      a one-worker FIFO pool drains in push order (breadth-first), a
      LIFO one in reverse push order (depth-first). *)

  val workers : 'a t -> int

  val push : 'a t -> worker:int -> 'a -> unit
  (** Enqueue onto the given worker's deque (any domain may push). *)

  val frontier_size : 'a t -> int
  (** Racy sum of deque sizes; for monitoring. *)

  val stop : 'a t -> unit
  (** Ask every worker to exit after its current item. *)

  val stopped : 'a t -> bool

  val run : 'a t -> (int -> 'a -> unit) -> unit
  (** Spawn [workers - 1] domains and participate with the calling
      domain as worker 0; each item is handed to the callback with the
      worker id. Returns when all work is done or {!stop} was called,
      after joining every spawned domain. *)
end
