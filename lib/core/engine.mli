(** The PM-Blade storage engine (§III), configuration-driven so every
    evaluation variant — PMBlade, PMBlade-PM, PMBlade-SSD, the ablation
    ladder, RocksDB-like and MatrixKV-like — runs the same code paths.

    Writes land in the DRAM memtable and flush by key range across
    partitions to level-0 (PM tables or SSD SSTables per config); internal
    compaction merges a partition's unsorted stack into its sorted run under
    the §IV-C cost models; major compaction pushes the non-warm partitions
    to the levelled SSD tiers. Every device touch charges the virtual
    clock, so an operation's latency is the clock delta across the call. *)

type t
type partition

(** {1 Integrity errors}

    A checksum failure never surfaces as a wrong answer or a crash: the
    corrupt structure is quarantined (pulled from the read path, its damage
    record persisted with the manifest) and the operation retried against
    the surviving structures. The result is the best *verified* answer —
    possibly an older version than one that rotted — so it is delivered
    through a typed error, never silently. *)

type read_error = {
  key : string;
  fallback : string option;
      (** best surviving answer — may predate a rotted newer version *)
  quarantined : Manifest.quarantined_source list;
}

type scan_error = {
  partial : (string * string) list;
  scan_quarantined : Manifest.quarantined_source list;
}

exception Degraded_read of read_error
exception Degraded_scan of scan_error

val create :
  ?boundaries:string list ->
  ?clock:Sim.Clock.t ->
  ?pm:Pmem.t ->
  ?ssd:Ssd.t ->
  ?cache:Cache.Block_cache.t ->
  Config.t ->
  t
(** The engine starts with one partition and splits at the data median as
    partitions grow, up to [config.partition_count]; explicit [boundaries]
    pre-create the partitioning instead. With [config.durable] a WAL and a
    persisted manifest make {!recover} possible; the WAL is a ring in one PM
    region of {!Wal.ring_bytes} for the configured memtable. [pm]/[ssd]/[cache] supply
    pre-existing (shared) devices instead of creating fresh ones — range
    shards pass the same devices and block cache to every engine; when [pm]
    is given its clock becomes the engine clock. The manifest chain
    persists under the named superblock slot [config.manifest_root]. *)

val recover :
  ?orphan_gc:bool -> ?cache:Cache.Block_cache.t -> Config.t -> pm:Pmem.t -> ssd:Ssd.t -> t
(** Rebuild an engine from the devices after a crash: the superblock points
    at the manifest (the [config.manifest_root] named slot), tables are
    reopened in place, and the WAL ring replays the (durable) writes the
    memtable lost. A ring whose replay hit a torn tail or a rotten record
    is never appended to: its surviving records are re-logged into a fresh
    ring, which the manifest names before the old ring is freed. PM regions and SSD files the manifest does not name —
    crash-resurrected frees and half-built tables from an interrupted
    compaction — are garbage-collected (every superblock slot, named and
    unnamed, and quarantined structures stay referenced). On a shared
    multi-shard device one engine's view is too narrow to reclaim safely:
    pass [~orphan_gc:false] (the router runs {!gc_orphans} over the union
    instead). A named
    table that is present but fails its checksums is quarantined with the
    partition's key range as the lost bound; WAL records that fail their
    CRC are skipped and counted, never applied. Raises [Failure] when the
    device holds no manifest or a named region/file is missing. *)

val gc_orphans :
  pm:Pmem.t -> ssd:Ssd.t -> states:Manifest.state list -> rings:Wal.t list -> unit
(** The orphan GC behind every recovery: free each PM region and SSD file
    that no manifest in [states] names (as a table, a WAL ring or a
    quarantined structure), that is none of the live [rings], and that is
    no superblock slot, named or unnamed. *)

val manifest_state : t -> Manifest.state
(** The structure the next manifest would persist: live tables, WAL ring
    and quarantine records (the router's orphan GC reads it). *)

val config : t -> Config.t
val clock : t -> Sim.Clock.t
val pm : t -> Pmem.t
val ssd : t -> Ssd.t
val metrics : t -> Metrics.t

val wal : t -> Wal.t option
(** The live write-ahead log of a durable engine: a PM ring (fault plans
    arm their [wal.sync] site through this handle). *)

val block_cache : t -> Cache.Block_cache.t option
(** The engine-wide shared SSTable block cache, when
    [config.block_cache_mb > 0]. All SSTables the engine creates or reopens
    route {!Sstable.read_block} misses through it. *)

val check_fence_invariants : bool ref
(** When set (the default), every fence-pointer rebuild asserts that the
    sorted run and each SSD level hold strictly disjoint, ordered key
    ranges, raising [Failure] on violation. Tests may clear it to probe
    behaviour without the guard. *)

(** {1 Operations} *)

val put : ?update:bool -> t -> key:string -> string -> unit
(** [update] feeds the cost model's n_u estimate (workloads know whether a
    write overwrites). May trigger minor/internal/major compactions. *)

val delete : t -> string -> unit

val sync_wal : t -> unit
(** Group-commit durability point: one PM ring write and one fence for
    everything the WAL has staged since the last sync (all writers'
    records), plus the [wal.sync] PM commit point. A group that would
    overflow the ring flushes the memtable first (counted in
    [wal_ring_full_flushes]). Used by the shard batcher together with
    [config.wal_external_sync]; a no-op without a WAL. *)

val memtable_bytes : t -> int
(** Current encoded byte size of the live memtable (the router's pre-put
    flush check reads this without touching devices). *)

(** {2 Reads} — the point lookup, the breaker's PM-only probe, the range
    merge and the bounded scan behind {!Iterator} and the router. Integrity
    degradation is reported one way, by {!Degraded_read} / {!Degraded_scan},
    beside the [Ssd.Io_error] a sick device raises. *)

val get : t -> string -> string option
(** Newest visible value; [None] for absent or deleted keys. Raises
    {!Degraded_read} when the lookup crossed a quarantine; its [fallback]
    is the best surviving answer. *)

val get_pm_only : t -> string -> [ `Hit of string option | `Miss ]
(** Degraded probe that consults only the DRAM memtable and the PM
    level-0 stack, never the SSD (for serving behind an open circuit
    breaker). A [`Hit] is exact — those structures hold strictly newer
    versions than anything on the SSD — while [`Miss] means the newest
    version may live on the (unreachable) SSD. A probe that crosses a
    quarantine conservatively answers [`Miss]. *)

val scan_range : t -> start:string -> stop:string -> (string * string) list
(** All live key/value pairs with key in [\[start, stop)]. Raises
    {!Degraded_scan} when the collection crossed a quarantine. *)

val scan : t -> start:string -> limit:int -> (string * string) list
(** The first [limit] live pairs with key >= [start], any key format,
    collected in windows of [limit + 4] entries per source: a shorter
    answer means the keyspace is exhausted. Raises {!Degraded_scan} when a
    window crossed a quarantine. *)

(** {1 Maintenance (benchmarks drive these manually)} *)

val flush : t -> unit
(** Flush the memtable to level-0 (minor compaction) if non-empty. *)

val force_internal_compaction : t -> unit
val force_major_compaction : t -> unit
(** Compact every partition's unsorted stack into its sorted run / every
    partition's level-0 into L1, then persist the manifest. A corrupt
    input is quarantined and that partition's compaction retried. *)

val relieve_step : ?below:int -> t -> unit
(** One bounded unit of compaction relief: major-compact the partition
    with the most level-0 runs ({!partition_runs}; the first such
    partition on a tie) and persist the manifest, quarantining any
    corrupt input on the way; then the next such partition, until
    {!compaction_debt_runs} is below [below]. By default [below] is the
    debt at the call, so the step relieves exactly one partition. A
    no-op when level-0 is empty. *)

(** {1 Scrub, salvage & quarantine} *)

type scrub_report = {
  scrubbed_tables : int;
  scrubbed_bytes : int;
  corrupt_pm_tables : int;
  corrupt_sstables : int;
  salvaged : int;  (** corrupt tables rebuilt from surviving blocks *)
  dropped : int;  (** corrupt tables with no surviving blocks at all *)
  lost_ranges : (string * string) list;
}

val scrub : ?salvage:bool -> ?rate_limit_mb_s:float -> t -> scrub_report
(** Re-verify every live PM table and SSTable from the medium. Corrupt
    tables are rebuilt from their surviving blocks ([salvage], the default)
    with the lost key range recorded as a damage record, or quarantined
    ([salvage:false]). [rate_limit_mb_s] (default: none, device speed)
    floors the scrub's wall time to model a budgeted background task. *)

val pp_scrub_report : scrub_report Fmt.t

val quarantined : t -> Manifest.quarantine list
(** Damage records accumulated so far (also persisted in the manifest). *)

val damaged_key : t -> string -> bool
(** Is [key] inside a recorded lost range? A [None] from {!get} for such a
    key means "possibly lost to corruption", not "never written". *)

(** {1 Introspection} *)

val owned_file_ids : t -> int list
(** Ids of every SSD file this engine currently reaches — level files and
    SSD-L0 tables — ascending. The device footprint a shard-scoped gray
    fault should target. *)

val owned_region_ids : t -> int list
(** Ids of every live PM region this engine references — its level-0
    tables and the WAL ring — ascending. *)

val partitions : t -> partition array
val partition_of : t -> string -> partition
val partition_l0_bytes : partition -> int

val partition_runs : partition -> int
(** The partition's share of {!compaction_debt_runs}. *)

val l0_bytes : t -> int
val unsorted_table_count : t -> int
val sorted_table_count : t -> int
val level_file_count : t -> int -> int
(** [level_file_count t 0] counts L1 files across partitions. *)

val user_bytes : t -> int
val pm_bytes_written : t -> int
val ssd_bytes_written : t -> int
val pm_bytes_read : t -> int
val ssd_bytes_read : t -> int

val write_amplification : t -> float
(** Device bytes written (PM + SSD) per user byte written. *)

val read_amplification : t -> float
(** Device bytes read (PM + SSD) per key+value byte returned to the user. *)

val compaction_debt_bytes : t -> int
(** Level-0 backlog bytes (both media) still awaiting compaction. *)

val compaction_debt_runs : t -> int
(** Level-0 runs a point read may probe: each unsorted PM table, the
    key-disjoint sorted run as one, each SSD level-0 table. The one debt
    measure — admission, doctor, gauges and the CLI all read it. *)

val chaos_table_debt : bool ref
(** Planted-bug kill switch: when set, {!compaction_debt_runs} counts
    every sorted-run table again. Exists so the PM-share gate can prove it
    catches the old table-count debt. Leave it [false]. *)

val space_bytes : t -> int
(** Physical live bytes across PM and SSD structures. *)

val logical_bytes : t -> int
(** Key+value bytes of the newest visible version of every key, via a full
    merged collection. Reads every structure (perturbing device read
    stats) — one-shot diagnostics only. *)

val pipeline_stats : t -> Compaction.Pipeline.totals
(** Cumulative staged-compaction replay accounting
    ([Config.pipeline_compaction]): runs, serial vs pipelined time, clock
    rebate, per-stage busy time, queue waits and replay sanitizer counts.
    All zero while the pipeline is disabled. *)

val pp_wal : t Fmt.t
(** One-line WAL ring summary: region, size, tail, high-water mark,
    syncs, lines, fences and ring-full flushes. *)

val pp_stats : t Fmt.t
(** One-look storage report: per-tier occupancy, latency percentiles,
    compaction counters, write amplification, PM hit ratio. *)

val register_metrics : Obs.Registry.t -> t -> unit
(** Register this engine's readouts under stable dotted names
    ([engine.reads], [engine.l0_bytes], latency histograms, ...) together
    with its devices' [pmem.*] / [ssd.*] namespaces. *)
