(** Windowed latency health tracker: freezes a baseline from the first
    warmup samples, then follows live latency with an EWMA. The ratio
    {!slow_factor} is the gray-failure signal — a fail-slow device answers
    correctly but drifts far above its own healthy baseline. *)

type t

val create : unit -> t
(** The EWMA weights the newest sample 0.2; the first 64 samples average
    into the frozen baseline. *)

val observe : t -> float -> unit
(** Feed one operation latency in simulated nanoseconds. *)

val samples : t -> int
val baseline : t -> float
(** Frozen healthy-self baseline; 0.0 until warmed up. *)

val warmed_up : t -> bool
(** True once the baseline is frozen. *)

val slow_factor : t -> float
(** [ewma / baseline], clamped to >= 1.0; 1.0 until warmed up. *)

val reset_ewma : t -> unit
(** Snap the EWMA back to the baseline (after a fault episode clears, so a
    recovered device is not punished for its past). *)
