(** Range-sharded multi-engine front door.

    [shard_count] engines partition the keyspace by range behind one
    router with a single, health-gated front door: {!put_checked},
    {!delete_checked} and {!get_checked} are the only point operations,
    and {!sink} wraps them for the workload generators. Shards share the
    PM and SSD devices, the block cache, and the clock; each owns its
    WAL, memtable, and manifest chain (the superblock root ["shard<i>"],
    at every shard count). The router is the only way to build a durable
    engine ({!Core.Engine.create_shard}, {!Core.Engine.recover}) and,
    through {!run_clients}, to drive concurrent clients.
    Writes route by binary search over the boundaries; cross-shard scans
    concatenate per-shard results in shard order — ranges are disjoint,
    so the result is globally ordered and duplicate-free by construction.
    Each shard carries a {!Group_commit} batcher (the one WAL durability
    point: engines only stage records), its admission limits (soft-zone
    relief steps, hard-limit stalls), and one modelled background worker:
    flush/compaction time is rewound and booked to a [busy_until]
    horizon, so one shard serialises background work while N shards
    overlap it N ways. The router alone decides who waits. *)

type t

val create : ?boundaries:string list -> ?clock:Sim.Clock.t -> Core.Config.t -> t
(** Fresh router with [max 1 config.shard_count] shards. [boundaries]
    (sorted, [shard_count - 1] keys; shard [i] owns keys in
    [\[b(i-1), b(i))]) defaults to a byte-uniform split — pass
    {!ycsb_boundaries} or {!retail_boundaries} for workload-aware
    ranges. Devices and cache are created once and shared. *)

val recover : ?boundaries:string list -> Core.Config.t -> pm:Pmem.t -> ssd:Ssd.t -> t
(** Rebuild every shard from the shared crashed devices — the same
    [boundaries] must be supplied as at {!create} (the split is
    configuration, not persisted state). Each shard recovers its own
    named manifest chain; the router then runs the one orphan GC
    ({!Core.Engine.gc_orphans}) over the union: it reclaims structures
    referenced by no shard's manifest, WAL ring, quarantine list, or
    superblock slot. *)

val ycsb_boundaries : records:int -> shards:int -> string list
(** Equal-population split of the YCSB key space ([Util.Keys.ycsb_key]). *)

val retail_boundaries : tables:int -> shards:int -> string list
(** Split of the retail table space on [Util.Keys.table_prefix] prefixes. *)

(** {1 Accessors} *)

val config : t -> Core.Config.t
val clock : t -> Sim.Clock.t
val pm : t -> Pmem.t
val ssd : t -> Ssd.t
val block_cache : t -> Cache.Block_cache.t option
val shard_count : t -> int

val engines : t -> Core.Engine.t array
(** Underlying engines in shard order (tests and doctor only). *)

val shard_of : t -> string -> int
(** Index of the shard owning [key]. *)

(** {1 Point operations}

    Dispatch, admission, background flush hand-off, the engine call and
    group commit, gated by per-shard circuit breaking, fail-slow
    diagnosis against each shard's own latency baseline, deadline
    budgets, and typed degraded answers. Breakers are consulted before
    any engine mutation, so a [Write_shed] provably never reached the
    store; a healthy shard never consults a sibling's breaker, so one
    sick device range cannot stall the rest. Breakers are opt-in
    ([config.breaker_enabled], built from
    [Health.Breaker.default_config]); budgets come from
    [config.deadline_*]. With both off the gates cost nothing on the
    virtual clock. *)

type write_result =
  | Acked
  | Write_shed of string
      (** refused before any engine mutation (open breaker, or the
          deadline budget cannot survive the shard's backlog); the store
          is unchanged *)
  | Write_failed of string
      (** a typed failure after the engine was touched — ambiguous, like
          a crash mid-op: the write may or may not be applied *)

type read_result =
  | Served of string option  (** normal answer *)
  | Served_degraded of { value : string option; reason : string }
      (** typed degraded answer: an exact memtable/PM-only hit behind an
          open breaker, or a quarantine-crossing fallback (possibly
          stale — reason ["quarantine"]) *)
  | Read_unavailable of string
      (** refused: breaker open (or device erroring) and the PM-only
          path cannot prove an answer *)

val put_checked : ?update:bool -> t -> key:string -> string -> write_result

val delete_checked : t -> string -> write_result

val get_checked : t -> string -> read_result
(** Each op's budget is [config.deadline_read_ns] /
    [config.deadline_write_ns]; 0 means no deadline. *)

(** {1 Scans} *)

val scan_range : t -> start:string -> stop:string -> (string * string) list

val scan : t -> start:string -> limit:int -> (string * string) list
(** The first [limit] live pairs from [start]: {!Core.Engine.scan} on the
    shard holding [start], then on each following shard until [limit]. *)

val flush : t -> unit
val close : t -> unit

(** {1 Group commit} *)

val enable_group_commit : t -> Coroutine.Scheduler.t -> unit
(** Switch every shard's committer to [Batch] mode; writers must be
    coroutines under [sched] (whose sanitizer brackets the batch state). *)

val disable_group_commit : t -> unit

val run_clients :
  t -> clients:int -> per_client:int -> (int -> int -> unit) -> Coroutine.Scheduler.t
(** The closed-loop client harness: [clients] coroutines spawned in order
    on one cooperative core over the router's clock and SSD; client [c]
    runs [step c i] for [i] below [per_client], yielding after each. A
    durable router batches their WAL syncs for the run. Returns the
    finished scheduler, whose sanitizer holds the schedsan findings. *)

(** {1 Aggregates} *)

val stall_count : t -> int

val shard_stall_count : t -> int -> int
(** Shard [i]'s admission hard stalls. *)

val at_hard_limit : t -> bool
(** Is some shard's debt at or past its admission hard limit — would its
    next write stall? *)

val stall_ns : t -> float
val soft_delays : t -> int
(** Writes admitted in the admission soft zone, summed over shards. *)

val relief_steps : t -> int
(** Soft-zone relief steps started on idle shard workers, summed over
    shards. *)

val relief_steps_internal : t -> int
(** Relief steps that ran an internal compaction on PM, summed over
    shards. *)

val gc_batches : t -> int
val gc_synced_entries : t -> int
val gc_mean_batch : t -> float

val gc_size_hist : t -> Util.Histogram.t
(** Batch-size distribution merged across shards (fresh copy). *)

(** {2 Store-wide engine figures}

    Engine counters summed over the shards; device counters read once
    from the shared devices. With one shard each equals the engine's own
    figure. *)

val metrics : t -> Core.Metrics.t
(** Every shard's engine books summed, histograms merged (fresh copy). *)

val pipeline_stats : t -> Compaction.Pipeline.totals
(** Staged-compaction replay totals summed over the shards (fresh copy). *)

val l0_bytes : t -> int
val space_bytes : t -> int

val logical_bytes : t -> int
(** Reads every structure of every shard (perturbing device read stats):
    one-shot diagnostics only. *)

val compaction_debt_bytes : t -> int

val debt_runs : t -> int
(** {!Core.Engine.pressure} summed over the shards. *)

val write_amplification : t -> float
(** Device bytes written (PM + SSD) per user byte written. *)

val read_amplification : t -> float
(** Device bytes read (PM + SSD) per key+value byte returned. *)

val read_latency : t -> Util.Histogram.t
val write_latency : t -> Util.Histogram.t
val scan_latency : t -> Util.Histogram.t

val dispatched : t -> int
(** Total operations routed (puts + gets + deletes + scans). *)

(** {1 Health introspection} *)

type shard_health = {
  h_idx : int;
  h_lo : string;  (** shard's lower bound key *)
  h_state : Health.Breaker.state;
  h_error_rate : float;  (** windowed breaker failure rate *)
  h_trips : int;
  h_rejections : int;
  h_read_slow : float;  (** read-latency EWMA / frozen baseline *)
  h_write_slow : float;
  h_ledger : Health.Ledger.t;
}

val health : t -> shard_health array

val ledger_totals : t -> Health.Ledger.t
(** Health-API outcome counters merged across shards (fresh copy). *)

val breaker_trips : t -> int
val breaker_rejections : t -> int

val shard_breaker : t -> int -> Health.Breaker.t
(** Shard [i]'s breaker (tests and the chaos harness). *)

val shard_ledger : t -> int -> Health.Ledger.t

val reset_health_baselines : t -> unit
(** Snap every shard's latency EWMA back to its baseline (after a fault
    episode clears, so recovered devices are not punished for the past). *)

val pp_health : t Fmt.t
(** Breaker states, outcome totals and per-shard health table (doctor). *)

val sink : t -> Workload.Sink.t
(** Drive the router from the workload generators. Point operations go
    through the checked calls; an outcome other than [Acked] or [Served]
    raises [Failure]. *)

val view : t -> Fault.Checker.view
(** The router's merged read paths for golden-model checking. Point reads
    ask the owning engine directly and never pass through a breaker. *)

val pp_stats : t Fmt.t
(** Router aggregate (dispatch counts, admission, group commit, op
    latencies, per-shard summary) followed by every shard's engine
    stats. *)

val register_metrics : Obs.Registry.t -> t -> unit
(** The store's one registration: [shard.*] aggregates and per-shard
    gauges; the engine families ([engine.*], [wal.*], [pipeline.*],
    [pmtable.bloom_*], [manifest.fallback]) once, summed over the shards
    with histograms merged; and once each for the shared resources: attr
    phases, block cache, pmsan and the [pmem.*] / [ssd.*] devices. *)
