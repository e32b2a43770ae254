(** Systematic crash-point exploration, one skeleton for every store.

    A counting run measures how many times a seeded workload reaches an
    injection site; {!sweep} then replays that identical workload once per
    crash point — cutting execution at exactly that site, crashing both
    devices (seeded torn SSD tails included), recovering, and checking the
    {!Checker} invariants against the {!Golden} history. Deterministic end
    to end: same seed, same config, same crash point -> the same failure.

    The store under test is a {!target}: {!engine} crashes a single
    engine, [Shard.Sweep] the range-sharded router. *)

(** {1 Targets} *)

type store = {
  pm : Pmem.t;
  ssd : Ssd.t;
  wals : unit -> Core.Wal.t list;
      (** the live logs (one per shard), asked when a plan is armed and
          when it is disarmed *)
  put : key:string -> string -> unit;  (** returns once the put is durable *)
  delete : string -> unit;
  settle : unit -> unit;  (** the tail step: flush plus internal compaction *)
  check : Golden.t -> Checker.violation list;
      (** the post-recovery invariants, structural checks included *)
}
(** A live store on crash-mode devices, as closures. *)

type target = {
  name : string;  (** the report header, e.g. ["crash sweep"] *)
  fresh : unit -> store;  (** a new store with both devices in crash mode *)
  recover : pm:Pmem.t -> ssd:Ssd.t -> store;
      (** rebuild from the crashed devices; raises [Failure] when it
          cannot *)
}

val engine : Core.Config.t -> target
(** The single-engine target. Raises [Invalid_argument] unless the engine
    config is durable. *)

val fresh_engine : Core.Config.t -> Core.Engine.t
(** A new engine with both devices in crash mode (its initial manifest is
    already durable). *)

val of_engine : Core.Engine.t -> store

(** {1 Shared pieces} *)

val run_ops :
  seed:int -> ops:int -> keyspace:int -> value_len:int -> Golden.t -> store -> unit
(** The seeded workload: [ops] ops over [user%06d] keys, 80% puts of
    [value_len]-byte values and 20% deletes, each mirrored into the golden
    model. The sweeps and [Corruption_sweep] all run it. *)

val crash : ?torn_seed:int -> pm:Pmem.t -> ssd:Ssd.t -> unit -> unit
(** Pull the plug on both devices. With [torn_seed], each unsynced SSD
    file keeps a seeded torn tail of up to 4 KiB; without it, none. *)

val recover :
  ?stats:Plan.stats ->
  double:bool ->
  salt:int ->
  seed:int ->
  int ->
  pm:Pmem.t ->
  ssd:Ssd.t ->
  (unit -> 'a) ->
  'a
(** [recover ~double ~salt ~seed n ~pm ~ssd f] runs the recovery [f].
    With [double], a second crash schedule (seeded from [seed], [salt] and
    [n], cutting within the first 12 site hits) is armed over it; when [f]
    trips it, both devices crash again with a torn tail seeded from [seed]
    and [n], and [f] reruns from the doubly-crashed image (recovery
    idempotence). [stats] counts that second crash. *)

val sanitizer_violations : Pmem.t -> Checker.violation list
(** The device's pmsan findings as ["sanitizer"] invariant violations
    (empty without an attached sanitizer). *)

(** {1 The sweep} *)

type config = {
  seed : int;
  ops : int;
  keyspace : int;
  value_len : int;
  rules : (string * Plan.trigger * Plan.action) list;
  double_crash : bool;
  target : target;
}

val config :
  ?seed:int ->
  ?ops:int ->
  ?keyspace:int ->
  ?value_len:int ->
  ?rules:(string * Plan.trigger * Plan.action) list ->
  ?double_crash:bool ->
  target ->
  config
(** Defaults: seed 42, 300 ops over 64 keys, 24-byte values, no rules,
    [double_crash] on. [rules] are armed on every sweep run (not the
    counting run): planting a durability bug — say
    [("wal.sync", Every, Wal_sync_loss)] — and asserting the sweep reports
    violations is the subsystem's self-test. [double_crash] arms a second
    seeded crash schedule over each leg's recovery path (see {!recover}). *)

type point = {
  crash_at : int;  (** the global site hit the run crashed at *)
  crash_site : string option;
      (** [None]: the workload finished before reaching the point (the plug
          is pulled at the end instead) *)
  recovered : bool;
  violations : Checker.violation list;
}

type report = {
  name : string;  (** the target's name *)
  total_sites : int;
  points : point list;
  stats : Plan.stats;
}

val violation_count : report -> int
val clean : report -> bool
(** Every point recovered with zero violations. *)

val count_sites : config -> int
(** Site hits of one clean run of the workload (deterministic in the
    seed). *)

val run_crash_at : ?stats:Plan.stats -> config -> int -> point
(** Fresh store, crash at the [n]th site hit, recover, check. Runs
    sanitized: pmsan findings join the leg's violation list. *)

type selection = All | Sample of int
(** [Sample k]: a seeded k-subset of the crash points (CI smoke runs). *)

val sweep :
  ?selection:selection ->
  ?stats:Plan.stats ->
  ?progress:(point -> unit) ->
  config ->
  report
(** [progress] fires after each crash point (CLI live output). [stats]
    accumulates across the sweep's plans and is what
    [Plan.register_metrics] exports. *)

val pp_report : report Fmt.t
