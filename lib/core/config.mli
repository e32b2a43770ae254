(** Engine configurations: one engine, the paper's eight variants.

    All byte sizes follow the repository-wide ~1000x scale-down (GB -> MB)
    so every capacity ratio the behaviour depends on is preserved; see
    EXPERIMENTS.md. *)

type l0_medium = L0_pm | L0_ssd

type l0_strategy =
  | Conventional of { max_tables : int option; max_bytes : int option }
  | Cost_based of Compaction.Cost_model.params
  | Matrix of { columns : int; trigger_bytes : int }

type t = {
  name : string;
  memtable_bytes : int;
  l0_medium : l0_medium;
  l0_capacity : int;
  l0_strategy : l0_strategy;
  table_kind : Pmtable.Table.kind;
  group_size : int;
  l0_run_table_bytes : int;
  partition_count : int;
  level_base_bytes : int;
  sstable_target_bytes : int;
  pipeline_compaction : bool;
      (** stage major/internal compaction as a read/merge/build/write
          pipeline over bounded SPSC queues (Compaction.Pipeline) and
          rebate the measured stage overlap; off = serial, no rebate *)
  background_share : float;
  durable : bool;
  matrix_flush_overhead_ns_per_byte : float;
  ssd_retry_jitter : float;
      (** seeded jitter fraction on retry backoff: each sleep is scaled by
          a factor uniform in [1 - j/2, 1 + j/2]; 0 = pure exponential *)
  block_cache_mb : int;
      (** DRAM budget of the engine-wide shared SSTable block cache (MiB);
          0 disables it *)
  pm_bloom_bits_per_key : int;
      (** Bloom density of PM level-0 tables (format v2); 0 writes
          bloom-less v1 tables *)
  sanitize : bool;
      (** attach the persistence-ordering sanitizer to the PM device and
          check commit points (default true; also gated by the
          process-wide [Sanitize.Control] switch) *)
  shard_count : int;
      (** range shards behind the router front door (lib/shard); 1 = a
          single engine *)
  group_commit_window_ns : float;
      (** how long a group-commit leader holds a batch open for followers *)
  group_commit_max : int;  (** close and sync a batch at this many writers *)
  admission_soft_tables : int;
      (** per-shard compaction debt (level-0 runs) where admission starts
          relief steps on the idle background worker *)
  admission_hard_tables : int;
      (** per-shard debt (level-0 runs) where admission stalls until drained *)
  breaker_enabled : bool;
      (** per-shard circuit breakers in the router, built from
          [Health.Breaker.default_config]: open on error bursts or
          fail-slow drift and answer degraded/unavailable fast. Default
          false — opt in where a fault is expected *)
  deadline_read_ns : float;
      (** per-read latency budget for deadline-aware serving; 0 = none *)
  deadline_write_ns : float;
      (** per-write budget; past-deadline writes are shed at admission;
          0 = none *)
  manifest_root : string;
      (** named superblock root slot for the manifest chain; "" = the
          classic unnamed pair (shards use "shard<i>") *)
  wal_external_sync : bool;
      (** stage WAL records but leave the sync durability point to an
          external group-commit batcher calling [Engine.sync_wal] *)
  pm_params : Pmem.params;
  ssd_params : Ssd.params;
  seed : int;
}

val mib : int -> int
val kib : int -> int
val scaled_cost_model : Compaction.Cost_model.params

val base : t
val pmblade : t
val pmblade_pm : t
val pmblade_ssd : t
val rocksdb_like : t
val pmb_p : t
val pmb_pi : t
val pmb_pic : t
val matrixkv_8 : t
val matrixkv_80 : t
val all_variants : t list

val fingerprint : t -> string
(** Canonical 8-hex-digit CRC32 over every behaviour-affecting field
    (including nested device and cost-model parameters). Bench JSON stamps
    it so the perf gate never compares runs of different configurations. *)
