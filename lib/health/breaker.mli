(** Circuit breaker: converts a sick device's unbounded waits into fast
    typed rejections.

    Closed admits traffic; consecutive failures or a windowed error rate
    past threshold trip it Open. Open rejects until [cooldown_ns] elapses
    on the virtual clock, then Half_open admits probes: [half_open_probes]
    consecutive probe successes close it, one probe failure re-opens it.
    What counts as "failure" is the caller's diagnosis (I/O error, or a
    latency blow-out against [Tracker]'s baseline). *)

type state = Closed | Open | Half_open

type decision =
  | Allow  (** closed: serve normally *)
  | Probe  (** half-open: serve, but this operation is a probe *)
  | Reject  (** open: do not touch the device; answer degraded instead *)

type config = {
  window : int;  (** sliding outcome window size *)
  failure_threshold : int;  (** consecutive failures that trip the breaker *)
  error_rate : float;  (** windowed failure rate that trips the breaker *)
  cooldown_ns : float;  (** open-state dwell before probing, virtual ns *)
  half_open_probes : int;  (** probe successes required to close *)
}

val default_config : config

type t

val create : ?config:config -> Sim.Clock.t -> t
val state : t -> state

val decide : t -> decision
(** Consult before an operation. May transition Open -> Half_open when the
    cooldown has elapsed; counts a rejection when it answers [Reject]. *)

val record_success : t -> unit
val record_failure : t -> unit

val force_open : t -> unit
(** Trip immediately (e.g. the latency tracker diagnosed fail-slow without
    any discrete error). No-op when already open. *)

val error_rate : t -> float
(** Windowed failure rate currently in evidence. *)

val trips : t -> int
(** Times the breaker transitioned to Open. *)

val rejections : t -> int
(** Operations turned away while Open. *)

val pp_state : state Fmt.t
