(** The PM-Blade storage engine (§III), configuration-driven so every
    evaluation variant — PMBlade, PMBlade-PM, PMBlade-SSD, the ablation
    ladder, RocksDB-like and MatrixKV-like — runs the same code paths.

    Writes land in the DRAM memtable and flush by key range across
    partitions to level-0 (PM tables or SSD SSTables per config). After
    each flush {!Policy.step} runs Algorithm 1: internal compaction merges
    a partition's unsorted stack into its sorted run under the §IV-C cost
    models, and major compaction pushes the non-warm partitions to the
    levelled SSD tiers. The state and those mechanisms are {!Lsm}. Every
    device touch charges the virtual clock, so an operation's latency is
    the clock delta across the call.

    Durability has one point and one collector. A durable engine's writes
    only stage their WAL records; {!sync_wal}, called by the shard's group
    committer, makes them durable. {!recover} rebuilds one engine and
    leaves orphan collection to [Shard.Router.recover], which runs
    {!gc_orphans} once over every shard's state. *)

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
  ?pm:Pmem.t ->
  ?ssd:Ssd.t ->
  ?cache:Cache.Block_cache.t ->
  ?manifest_root:string ->
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
    persists under the named superblock slot [manifest_root] (default
    [""], the unnamed pair; router shards pass ["shard<i>"]). A put stages
    its WAL record; it is durable after the next {!sync_wal}. *)

val recover :
  ?cache:Cache.Block_cache.t ->
  manifest_root:string ->
  Config.t ->
  pm:Pmem.t ->
  ssd:Ssd.t ->
  t
(** Rebuild an engine from the devices after a crash: the superblock points
    at the manifest (the [manifest_root] named slot, as in {!create}),
    tables are reopened in place, and the WAL ring replays the (durable) writes the
    memtable lost. A ring whose replay hit a torn tail or a rotten record
    is never appended to: its surviving records are re-logged into a fresh
    ring, which the manifest names before the old ring is freed. Orphans
    are left in place: on a shared device one engine's view is too narrow
    to reclaim safely, so the caller runs {!gc_orphans} over every
    engine's {!manifest_state} ([Shard.Router.recover] does). A named
    table that is present but fails its checksums is quarantined with the
    partition's key range as the lost bound; WAL records that fail their
    CRC are skipped and counted, never applied. Raises [Failure] when the
    device holds no manifest or a named region/file is missing. *)

val gc_orphans : pm:Pmem.t -> ssd:Ssd.t -> states:Manifest.state list -> unit
(** The orphan GC behind every recovery: free each PM region and SSD file
    that no manifest in [states] names (as a table, a WAL ring or a
    quarantined structure) and that is no superblock slot, named or
    unnamed. *)

val manifest_state : t -> Manifest.state
(** The structure the next manifest would persist: live tables, WAL ring
    and quarantine records (the router's orphan GC reads it). *)

val config : t -> Config.t

val manifest_root : t -> string
(** The named superblock slot this engine's manifest chain persists under. *)

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

val new_block_cache : Sim.Clock.t -> Config.t -> Cache.Block_cache.t option
(** A block cache of [config.block_cache_mb] on [clock]; [None] when that
    is 0. Range shards share one ({!create}'s [cache]). *)

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
    [wal_ring_full_flushes]). The only WAL sync: the shard's group
    committer calls it; a no-op without a WAL. *)

val memtable_bytes : t -> int
(** Current encoded byte size of the live memtable (the router's pre-put
    flush check reads this without touching devices). *)

val memtable_entries : t -> int
(** Entries buffered in the live memtable. *)

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
(** Flush the memtable to level-0 (minor compaction) if non-empty, then
    run {!Policy.step} on each partition it reached. When PM runs out,
    {!Policy.make_room} relieves it and the flush is retried; a slice not
    yet installed goes back into the memtable first, so no acknowledged
    write is lost. Every memtable flush — foreground, the router's
    hand-off, a benchmark's — takes this path. *)

val force_internal_compaction : t -> unit
val force_major_compaction : t -> unit
(** Compact every partition's unsorted stack into its sorted run / every
    partition's level-0 into L1, then persist the manifest. A corrupt
    input is quarantined and that partition's compaction retried; an
    internal compaction that runs out of PM lets {!Policy.make_room}
    relieve it first. *)

(** {1 Level-0 pressure and relief} — {!Policy}'s entry points for the
    router's admission, the CLI and the tests. *)

type relief = Policy.relief = Internal | Major

val pressure : t -> int
(** Level-0 runs a point read may probe ({!Policy.pressure}). *)

val partition_pressure : partition -> int
(** The partition's share of {!pressure}. *)

val relieve : t -> relief option
(** One bounded unit of compaction relief ({!Policy.relieve}). *)

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

val scrub : ?salvage:bool -> t -> scrub_report
(** Re-verify every live PM table and SSTable from the medium. Corrupt
    tables are rebuilt from their surviving blocks ([salvage], the default)
    with the lost key range recorded as a damage record, or quarantined
    ([salvage:false]). *)

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

val l0_bytes : t -> int
val unsorted_table_count : t -> int
val sorted_table_count : t -> int
val level_file_count : t -> int -> int
(** [level_file_count t 0] counts L1 files across partitions. *)

val user_bytes : t -> int
val pm_bytes_written : t -> int
val ssd_bytes_written : t -> int

val write_amplification : t -> float
(** Device bytes written (PM + SSD) per user byte written. *)

val read_amplification : t -> float
(** Device bytes read (PM + SSD) per key+value byte returned to the user. *)

val compaction_debt_bytes : t -> int
(** Level-0 backlog bytes (both media) still awaiting compaction. *)

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

