(** The engine's state and the mechanisms that move data through it.

    {!Policy} decides when and where level-0 data moves; {!Engine} is the
    public API and includes this module. Everything here does what it is
    told: flush one memtable slice, internal / major / column compaction
    (the SSD cascade included), partition split, the manifest install and
    quarantine. A mechanism that runs out of PM part-way
    ([Pmem.Out_of_space]) leaves level-0 as it was before the call. Only
    a router shard ({!create_shard}) is durable, and its WAL only stages
    records: the one sync is [Engine.sync_wal], which the shard's group
    committer calls. *)

(** Fence pointers of one partition, rebuilt lazily by the read path. Each
    [f_src_*] field holds the exact list value the set was built from, so a
    structural change (which always assigns a new list) invalidates it. *)
type fences = {
  f_src_sorted : Pmtable.Table.t list;
  f_src_ssd_l0 : Sstable.t list;
  f_src_levels : Sstable.t list array;
  f_sorted : Pmtable.Table.t array;  (** the sorted run, ascending by min key *)
  f_sorted_min : string array;
  f_levels : Sstable.t array array;
  f_levels_min : string array array;
  f_l0 : Sstable.t array;  (** SSD level-0 tables, newest first *)
  f_l0_min : string array;
  f_l0_max : string array;
}

type partition = {
  mutable idx : int;
  mutable lo : string;
  mutable hi : string;  (** key range [\[lo, hi)]; splits shrink it *)
  mutable unsorted : Pmtable.Table.t list;  (** newest first *)
  mutable sorted_run : Pmtable.Table.t list;  (** key-disjoint, ascending *)
  mutable ssd_l0 : Sstable.t list;  (** newest first (SSD-L0 variants) *)
  mutable levels : Sstable.t list array;  (** [levels.(j)] is L(j+1), ascending *)
  mutable fences : fences option;
  mutable matrix_wms : (Pmtable.Table.t * string) list;
      (** matrix-container watermark per unsorted row: the row's keys
          below it are in L1 already. A row without one has [""]. *)
  mutable reads : int;  (** cost-model statistics, reset at each compaction *)
  mutable writes : int;
  mutable updates : int;
  mutable window_start : float;
}

type t = {
  config : Config.t;
  manifest_root : string;
      (** superblock root of a router shard's manifest chain
          (["shard<i>"]); [""] on a bare engine, which persists nothing *)
  clock : Sim.Clock.t;
  pm : Pmem.t;
  ssd : Ssd.t;
  block_cache : Cache.Block_cache.t option;
  mutable memtable : Memtable.t;
  mutable next_seq : int;
  mutable partitions : partition array;
  metrics : Metrics.t;
  mutable memtable_seed : int;
  retry_rng : Util.Xoshiro.t;  (** seeded jitter for SSD retry backoff *)
  mutable in_foreground : bool;
      (** inside a put/delete: compactions charge only 30% of their
          time *)
  mutable wal : Wal.t option;
  mutable quarantined : Manifest.quarantine list;
  mutable pipe_recording : Compaction.Pipeline.recording option;
  pipe_totals : Compaction.Pipeline.totals;
}

val max_key_sentinel : string
val wal_capacity : Config.t -> int

val new_block_cache : Sim.Clock.t -> Config.t -> Cache.Block_cache.t option
(** The engine-wide SSTable block cache of [config.block_cache_mb]; [None]
    when that is 0. *)

val create : ?boundaries:string list -> Config.t -> t
(** A fresh bare engine state on its own clock and devices. Raises
    [Invalid_argument] on a durable config. *)

val create_shard :
  pm:Pmem.t ->
  ssd:Ssd.t ->
  cache:Cache.Block_cache.t option ->
  manifest_root:string ->
  Config.t ->
  t
(** A fresh router shard's state on the shared devices; a durable one has
    persisted its manifest under [manifest_root]. *)

val config : t -> Config.t
val manifest_root : t -> string
val clock : t -> Sim.Clock.t
val pm : t -> Pmem.t
val ssd : t -> Ssd.t
val metrics : t -> Metrics.t
val wal : t -> Wal.t option
val block_cache : t -> Cache.Block_cache.t option

val new_sst : t -> Util.Kv.entry list -> Sstable.t
(** An SSTable that reads through the engine's shared block cache. *)

val partition_of : t -> string -> partition
val partitions : t -> partition array
val partition_l0_bytes : partition -> int
val l0_bytes : t -> int
val level_bytes : partition -> int -> int

val space_bytes : t -> int
(** Physical live bytes across PM and SSD structures. *)

val pipeline_stats : t -> Compaction.Pipeline.totals

(** {1 Mechanisms} *)

val slices : t -> Util.Kv.entry list -> (partition * Util.Kv.entry list) list
(** A flushed memtable's sorted entries grouped into per-partition sorted
    slices, in flush order. *)

val flush_slice : t -> partition -> Util.Kv.entry list -> unit
(** Build the partition's level-0 table from its slice and put it on top
    of the unsorted stack (or the SSD level-0). *)

val internal_compaction : t -> partition -> unit
(** Merge the unsorted stack and the sorted run into a new sorted run on
    PM. Raises [Pmem.Out_of_space] with the partition unchanged. *)

val major_compact_partition : t -> partition -> unit
(** Push the partition's whole level-0 into L1, cascading down. *)

val column_compaction : t -> partition -> columns:int -> unit
(** MatrixKV: push the lowest ~1/[columns] key range of every row to L1
    and advance the rows' watermarks. *)

val matrix_wm_of : partition -> Pmtable.Table.t -> string

val maybe_split : t -> unit
(** Split the biggest partition at its median boundary key once it
    outweighs an even share, up to [config.partition_count]. Every half is
    built before a straddling table is freed, so a failed build leaves the
    partition as it was. *)

val manifest_state : t -> Manifest.state

val persist_manifest : t -> unit
(** Install the current structure (durable engines only). *)

val note_quarantine : t -> Manifest.quarantined_source -> q_lo:string -> q_hi:string -> unit
val quarantine_region : t -> int -> unit
val quarantine_file : t -> int -> unit

val guard_integrity : t -> (unit -> 'a) -> 'a * Manifest.quarantined_source list
(** Run [f]; a corrupt structure it meets is quarantined and [f] retried.
    Returns the result and the sources quarantined on the way. *)
