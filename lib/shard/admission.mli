(** Write-stall admission control, per shard.

    Signal: the shard's compaction debt in level-0 runs
    ({!Core.Engine.compaction_debt_runs}). Below the soft limit writes
    pass untouched; in the soft zone a write is never delayed, but may
    start one relief step on the shard's idle background worker (one
    partition's major compaction, or, once the shard is {!escalated} and
    within one hand-off of the hard limit, as many as bring the debt two
    hand-offs below it); at the
    hard limit the writer stalls — riding the shard's background worker
    and forcing compaction relief — until the debt drops below the limit
    again. Stalls are counted for the [shard.stall_*] metrics and charged
    to the [Admission_stall] attr phase. *)

type t

val create : clock:Sim.Clock.t -> soft_tables:int -> hard_tables:int -> t
(** The hard limit is clamped to at least [max 2 soft_tables]. *)

val at_hard_limit : t -> Core.Engine.t -> bool
(** Is the engine's debt at or past the (clamped) hard limit — would
    {!admit} stall a write now? *)

val admit :
  t ->
  Core.Engine.t ->
  wait_background:(unit -> bool) ->
  relieve:(unit -> unit) ->
  step:(below:int -> unit) option ->
  unit
(** Gate one write. [wait_background ()] blocks until the shard's
    in-flight background job finishes, returning [false] when there was
    none to wait for; [relieve ()] then forces one round of compaction.
    In the soft zone a [Some step] is run once and counted; the caller
    offers it only when the worker is idle and the write will not hand
    off a memtable, and books it to the worker, so the write never waits
    on it. [step ~below] relieves until the debt is below [below]: the
    current debt (one partition) normally; two hand-offs below the hard
    limit when the shard is {!escalated} and the debt is within one
    hand-off of it, a hand-off being one run per engine partition. *)

val soft_admits : t -> int
(** Writes admitted in the soft zone. *)

val relief_steps : t -> int
(** Relief steps started from the soft zone. *)

val escalated : t -> bool
(** Has the shard hard-stalled after its first relief step? One partition
    per step then fell behind its flushes, and steps near the hard limit
    relieve deeper from then on. *)

val stalls : t -> int

val stall_ns : t -> float
(** Total simulated ns writers spent hard-stalled at this shard. *)
