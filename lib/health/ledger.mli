(** Availability ledger: exclusive per-operation outcome counters, one
    bucket per operation so ratios are honest.

    [Deadline_miss] outranks the others — a correct answer that arrived
    after its budget is still a miss. Fast typed refusals ([Shed],
    [Unavailable], [Degraded]) count as within-deadline: refusing fast is
    the availability the breaker buys. *)

type outcome =
  | Ok_op  (** normal answer within budget *)
  | Degraded  (** typed degraded answer (PM-only read, quarantine fallback) *)
  | Shed  (** write refused at admission before any engine mutation *)
  | Unavailable  (** read refused: breaker open and no degraded path *)
  | Failed  (** typed failure after the engine was touched (ambiguous) *)
  | Deadline_miss  (** answer (of any kind) arrived past its budget *)

type t

val create : unit -> t
val record : t -> outcome -> unit
val ok : t -> int
val degraded : t -> int
val shed : t -> int
val unavailable : t -> int
val failed : t -> int
val deadline_miss : t -> int
val total : t -> int

val deadline_ok_ratio : t -> float
(** [within_deadline / total]; 1.0 on an empty ledger. *)

val merge : into:t -> t -> unit
val pp : t Fmt.t
