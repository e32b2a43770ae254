(** Engine configurations: one engine, the paper's eight variants.

    All byte sizes follow the repository-wide ~1000x scale-down (GB -> MB)
    so every capacity ratio the behaviour depends on is preserved; see
    EXPERIMENTS.md. A field is a choice some variant, workload or CLI flag
    makes; a setting with one value in use is a constant beside the code
    that reads it (the PM-table group of 8, the 30% background share, the
    retry jitter), and per-shard wiring (manifest root, external WAL sync)
    is an {!Engine.create} argument the router passes. *)

type l0_medium = L0_pm | L0_ssd

type l0_strategy =
  | Conventional of { max_tables : int option; max_bytes : int option }
  | Cost_based of Compaction.Cost_model.params
  | Matrix of { columns : int; trigger_bytes : int }

type t = {
  name : string;
  memtable_bytes : int;  (** rotation threshold of the DRAM memtable *)
  l0_medium : l0_medium;
  l0_capacity : int;  (** PM budget for level-0 *)
  l0_strategy : l0_strategy;
  table_kind : Pmtable.Table.kind;
  l0_run_table_bytes : int;  (** target size of sorted-run tables *)
  partition_count : int;  (** range partitions the engine splits up to *)
  level_base_bytes : int;  (** per-partition L1 target size *)
  sstable_target_bytes : int;
  pipeline_compaction : bool;
      (** stage major/internal compaction as a read/merge/build/write
          pipeline over bounded SPSC queues (Compaction.Pipeline) and
          rebate the measured stage overlap; off = serial, no rebate *)
  durable : bool;
      (** keep a WAL and persist the manifest on structural changes, so
          {!Engine.recover} can rebuild after a crash *)
  matrix_flush_overhead_ns_per_byte : float;
      (** extra level-0 construction cost at flush (MatrixKV cross-hint) *)
  block_cache_mb : int;
      (** DRAM budget of the engine-wide shared SSTable block cache (MiB);
          0 disables it *)
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
