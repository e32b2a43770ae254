(** Scheduling of compaction coroutines over simulated cores and the SSD
    (paper §V).

    Three policies matching the experiment configurations of §VI-C:
    [Thread_like] (preemptive, synchronous I/O, OS-scale switch/wakeup
    costs), [Cooperative] (basic coroutines: switch on I/O wait), and
    [Flush_coroutine] (the paper's method: a per-worker flush coroutine owns
    every S3 write, admitted under [q_flush = q_max - q_comp - q_cli]). *)

type policy =
  | Thread_like of { time_slice : float; switch_cost : float; wakeup_delay : float }
  | Cooperative of { switch_cost : float }
  | Flush_coroutine of { switch_cost : float; q_max : int }

val default_thread_like : policy
val default_cooperative : policy
val default_flush_coroutine : ?q_max:int -> unit -> policy

type t

val create : cores:int -> policy:policy -> Sim.Des.t -> Ssd.t -> t
(** Attaches the DES to the SSD's async interface. *)

val spawn : ?name:string -> t -> int -> (unit -> unit) -> unit
(** [spawn t i f] pins coroutine [f] to worker [i mod cores]. [f] may use
    the {!Co} effects. [name] labels the task in sanitizer reports. *)

val set_client_io : t -> int -> unit
(** Set q_cli, the count of foreground reads concurrently using the SSD. *)

val run_to_completion : t -> float
(** Drive the DES until all coroutines and flush queues drain; returns the
    simulated makespan. Declares end-of-run to the sanitizer, which then
    reports tasks still parked on a latch as lost wakeups. *)

val sanitizer : t -> Sanitize.Schedsan.t option
(** The happens-before checker attached at creation (when
    [Sanitize.Control] was enabled); [None] otherwise. *)

val q_flush : t -> int
(** Current admission budget of the flush coroutines (0 under other
    policies); exposed for tests. *)

val workers : t -> int

val register_metrics : Obs.Registry.t -> t -> unit
(** Register scheduler counters and gauges (switches, io_issued, live
    q_flush headroom, pending flush bytes, ...) under [sched.] dotted
    names. *)

val switches : t -> int

type report = {
  makespan : float;
  cpu_utilization : float;
  cpu_idleness : float;
  io_utilization : float;
  io_idleness : float;
  io_mean_latency : float;
  io_requests : int;
  switches : int;
}

val report : t -> makespan:float -> report
