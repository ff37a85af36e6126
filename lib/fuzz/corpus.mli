(** Fuzz corpus: interesting candidates ranked by fingerprint novelty.

    The corpus owns the global set of state keys seen across all
    executions ({!note_hash}); a candidate whose trajectory visited
    previously-unseen states is "interesting" and kept, ranked by how
    many new states it contributed. {!pick} is rank-biased toward
    high-novelty entries. All operations are deterministic functions
    of the call sequence and the supplied {!Setsync_schedule.Rng.t}.

    Both stores are bounded: the candidate store is an array of
    [max_entries] slots with O(1) {!pick} and explicit
    {!evictions}/{!rejections} accounting, and the digest set is a
    hash filter that starts small and doubles up to a cap rather than
    an exact table — short hunts hold a small table, long fuzz runs
    hold constant memory once the cap is reached, at the price of an
    {e approximate} novelty signal. A hash collision makes a genuinely
    new state read as seen (false positive, vanishing at 60-bit keys);
    a saturated probe window deterministically evicts an old key, which
    then re-counts as novel if revisited (false negative, counted by
    {!digest_evictions}). Neither affects soundness — violations are
    exactly re-verified — and both are deterministic, preserving the
    same-seed reproduction contract. *)

type t

val create : ?max_entries:int -> ?digest_slots:int -> unit -> t
(** [max_entries] (default 64) bounds the kept candidates.
    [digest_slots] (default [65536], rounded up to a power of two,
    minimum 8) caps the digest filter. The filter starts at 256 slots
    (or the cap, if smaller) and doubles whenever it passes half full
    or a probe window saturates, so below the cap it forgets nothing;
    at the cap it stops growing, and beyond ~that many distinct digests
    it starts evicting and the novelty signal degrades gracefully
    toward re-counting. *)

val note_hash : t -> int -> bool
(** Record one state by an integer key — the fuzz loop passes
    {!Setsync_explore.Explorer.Session.key}, which is equal for two
    states iff their digests are (up to hash collisions); [true] iff
    the filter had not seen it (approximately — see the trade-offs
    above). The key is used as the filter's hash as it is (its sign
    bit cleared, 0 read as 1), so it must already be spread over the
    native int range. *)

val digests : t -> int
(** Number of [true] {!note_hash} results so far (the coverage count;
    an overcount once {!digest_evictions} is nonzero). *)

val digest_evictions : t -> int
(** Digests forgotten by the bounded filter (saturated-window
    overwrites). [0] until the filter has grown to its cap and is
    near full there. *)

val add : t -> novelty:int -> Mutate.candidate -> unit
(** Keep a candidate that contributed [novelty > 0] new digests
    (no-op at [novelty <= 0]). Ties keep insertion order. At capacity
    the lowest-novelty entry is displaced ({!evictions}) — unless the
    newcomer itself ranks last, in which case it is dropped
    ({!rejections}). *)

val size : t -> int

val is_empty : t -> bool

val evictions : t -> int
(** At-capacity adds that displaced a kept entry. *)

val rejections : t -> int
(** At-capacity adds dropped for ranking at or below the current
    worst entry. *)

val pick : t -> Setsync_schedule.Rng.t -> Mutate.candidate
(** Rank-biased draw (min of two uniform ranks over the
    novelty-descending order), O(1). Raises [Invalid_argument] when
    empty. *)
