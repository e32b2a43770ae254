(** YCSB core workloads (Load, A-F) with standard operation mixes and key
    choosers (zipfian, latest, scrambled), driving the simulated engine. *)

type workload = Load | A | B | C | D | E | F

val name : workload -> string
val of_string : string -> workload

type t

val create : ?seed:int -> ?value_bytes:int -> unit -> t
(** Zipfian skew 0.99; workload E scans 1-100 keys. *)

val record_count : t -> int

(** {2 Driving a store} — against any {!Sink.t}: the router's
    [Shard.Router.sink], or a bare engine's {!Sink.of_engine}. *)

val load_sink : t -> Sink.t -> records:int -> unit
(** The YCSB load phase: insert [records] sequential-rank keys. *)

val step_sink : t -> Sink.t -> workload -> unit
(** Execute one operation of the given workload. *)

val run_sink : t -> Sink.t -> workload -> ops:int -> unit
