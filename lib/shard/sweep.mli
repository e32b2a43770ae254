(** Systematic fault exploration on the {!Router}: the crash sweep and the
    corruption sweep, one workload, one config.

    The crash sweep: a counting run measures how many times a seeded
    workload reaches an injection site; {!sweep} then replays that
    identical workload once per crash point — cutting execution at exactly
    that site, crashing both devices (seeded torn SSD tails included),
    recovering the whole router, and checking the {!Fault.Checker}
    invariants against the {!Fault.Golden} history. The devices — hence
    the fault plan — are shared, and every shard's WAL arms the
    [wal.sync] site, so one counting run measures the workload's sites
    across all shards. Each leg recovers with {!Router.recover}
    (per-shard named manifest roots plus the union orphan GC) and checks
    the router's merged read paths and every shard's manifest.

    The corruption sweep ({!corruption_sweep}) runs the same workload into
    a fresh router, stages every shard so the target structure exists,
    injects one seeded corruption ({!Fault.Plan.inject_corruption}) cycling
    over the four targets and both damage modes, scrubs every shard, and
    demands the stack answers for it.

    The committers run in [Sync] mode, so an acked put is durable and the
    golden mirror's single-pending-op story holds. Deterministic end to
    end: same seed, same config, same point -> the same failure. *)

(** {1 Config} *)

type config = {
  seed : int;
  ops : int;
  keyspace : int;
  rules : (string * Fault.Plan.trigger * Fault.Plan.action) list;
  boundaries : string list;
  router_config : Core.Config.t;
}

val config :
  ?seed:int ->
  ?ops:int ->
  ?keyspace:int ->
  ?rules:(string * Fault.Plan.trigger * Fault.Plan.action) list ->
  ?boundaries:string list ->
  Core.Config.t ->
  config
(** Defaults: seed 42, 300 ops over 64 keys, no rules. [rules] are armed
    on every crash-sweep run (not the counting run): planting a durability
    bug — say [("wal.sync", Every, Wal_sync_loss)] — and asserting the
    sweep reports violations is the subsystem's self-test. Every crash
    point also arms a second seeded crash schedule over its leg's recovery
    path (see {!recover}). When [boundaries] is omitted a multi-shard
    config gets an even split of the workload's [user%06d] key population.
    Raises [Invalid_argument] unless the config is durable. *)

val workload_boundaries : keyspace:int -> shards:int -> string list

(** {1 Shared pieces} *)

val fresh : config -> Router.t
(** A new router with both devices in crash mode (every shard's initial
    manifest is already durable). *)

val run_ops : config -> Fault.Golden.t -> Router.t -> unit
(** The seeded workload: [ops] ops over [user%06d] keys, 80% puts of
    24-byte values and 20% deletes, each mirrored into the golden
    model. Writes go through {!Router.sink}, which raises on any outcome
    but an ack, so a refused write is never mirrored as acked. *)

val crash : ?torn_seed:int -> pm:Pmem.t -> ssd:Ssd.t -> unit -> unit
(** Pull the plug on both devices. With [torn_seed], each unsynced SSD
    file keeps a seeded torn tail of up to 4 KiB; without it, none. *)

val recover :
  ?stats:Fault.Plan.stats ->
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

val sanitizer_violations : Pmem.t -> Fault.Checker.violation list
(** The device's pmsan findings as ["sanitizer"] invariant violations
    (empty without an attached sanitizer). *)

(** {1 The crash sweep} *)

type point = {
  crash_at : int;  (** the global site hit the run crashed at *)
  crash_site : string option;
      (** [None]: the workload finished before reaching the point (the plug
          is pulled at the end instead) *)
  recovered : bool;
  violations : Fault.Checker.violation list;
}

type report = { total_sites : int; points : point list; stats : Fault.Plan.stats }

val violation_count : report -> int
val clean : report -> bool
(** Every point recovered with zero violations. *)

val count_sites : config -> int
(** Site hits of one clean run of the workload (deterministic in the
    seed). *)

val run_crash_at : ?stats:Fault.Plan.stats -> config -> int -> point
(** Fresh router, crash at the [n]th site hit, recover, check. Runs
    sanitized: pmsan findings join the leg's violation list. *)

type selection = All | Sample of int
(** [Sample k]: a seeded k-subset of the crash points (CI smoke runs). *)

val sweep :
  ?selection:selection ->
  ?stats:Fault.Plan.stats ->
  ?progress:(point -> unit) ->
  config ->
  report
(** [progress] fires after each crash point (CLI live output). [stats]
    accumulates across the sweep's plans and is what
    [Fault.Plan.register_metrics] exports. *)

val pp_report : report Fmt.t

(** {1 The corruption sweep}

    PM-table and SSTable points are scrubbed live: the damage must appear
    in some shard's scrub report and the salvaged router must serve only
    exact, typed-degraded, or recorded-lost answers. WAL and manifest
    points additionally pull the plug and recover the router: recovery
    must survive — skipping and counting corrupt WAL records, falling back
    to the previous manifest slot — and the recovered router is held to
    the same no-crash / no-silent-wrong-answer bar
    ({!Fault.Checker.check_corruption}). *)

type corruption_point = {
  index : int;
  target : Fault.Plan.corruption_target;
  mode : Fault.Plan.corruption_mode;
  victim : string option;
      (** [None]: no eligible victim existed and the point was skipped *)
  detected : bool;  (** some shard's live scrub saw the damage *)
  recovered : bool;  (** recovery survived (always true on live-only legs) *)
  violations : Fault.Checker.violation list;
}

type corruption_report = {
  points : corruption_point list;
  skipped : int;
  stats : Fault.Plan.stats;
}

val corruption_clean : corruption_report -> bool
(** Every injected corruption was detected and every point recovered with
    zero violations. *)

val corruption_sweep :
  ?stats:Fault.Plan.stats ->
  ?progress:(corruption_point -> unit) ->
  points:int ->
  config ->
  corruption_report
(** [points] injections, each into a fresh router; point [i] hits the
    [i mod 4]th target with a bit flip on even rounds of four and a zeroed
    16-byte range on odd ones. [progress] fires after each point. *)

val pp_corruption_point : corruption_point Fmt.t
val pp_corruption_report : corruption_report Fmt.t
