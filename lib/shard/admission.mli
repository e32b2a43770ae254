(** Write-stall admission control, per shard.

    Signal: the shard's compaction debt in level-0 tables. Below the soft
    limit writes pass untouched; in the soft zone each write is delayed
    proportionally to the overshoot; at the hard limit the writer stalls
    — riding the shard's background worker and forcing compaction relief
    — until the debt drops below the limit again. Stalls and delays are
    counted for the [shard.stall_*] metrics and charged to the
    [Admission_stall] attr phase. *)

type t

val create : clock:Sim.Clock.t -> soft_tables:int -> hard_tables:int -> t
(** The hard limit is clamped to at least [max 2 soft_tables]; the soft
    zone delays each write by up to 100 us, linear in the overshoot. *)

val at_hard_limit : t -> Core.Engine.t -> bool
(** Is the engine's debt at or past the (clamped) hard limit — would
    {!admit} stall a write now? *)

val admit :
  t ->
  Core.Engine.t ->
  wait_background:(unit -> bool) ->
  relieve:(unit -> unit) ->
  unit
(** Gate one write. [wait_background ()] blocks until the shard's
    in-flight background job finishes, returning [false] when there was
    none to wait for; [relieve ()] then forces one round of compaction. *)

val soft_delays : t -> int
val stalls : t -> int

val stall_ns : t -> float
(** Total simulated ns writers spent hard-stalled at this shard. *)
