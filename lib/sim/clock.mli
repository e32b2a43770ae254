(** Virtual clock in nanoseconds of simulated time.

    Every simulated device (PM, SSD, CPU cost model) charges time here, so
    latency and duration measurements are deterministic and hardware
    independent. *)

type t

val create : unit -> t
val now : t -> float
val advance : t -> float -> unit
val advance_to : t -> float -> unit

(** Pull the clock back by a duration — the overlap rebate used to model
    CPU/I-O concurrency inside an otherwise serial simulation. *)
val rewind : t -> float -> unit

val time : t -> (unit -> 'a) -> 'a * float
(** [time t f] runs [f] and returns its result with the simulated duration. *)

(** Unit helpers: [us 3.0] is 3 microseconds in nanoseconds, etc. *)

val ns : float -> float
val us : float -> float
val ms : float -> float
val s : float -> float
val to_us : float -> float
val to_s : float -> float

val pp_duration : float Fmt.t
(** Human-readable rendering with an auto-selected unit. *)
