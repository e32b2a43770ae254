(* Engine configurations: one engine, eight paper variants.

   All byte sizes follow the repository-wide ~1000x scale-down of the
   paper's deployment (GB -> MB): memtable 64 MB -> 64 KB, level-0 PM
   80 GB -> 80 MB, MatrixKV's 8 GB -> 8 MB, and the cost-model thresholds
   scaled identically, so every capacity *ratio* the behaviour depends on is
   preserved. *)

type l0_medium = L0_pm | L0_ssd

type l0_strategy =
  | Conventional of { max_tables : int option; max_bytes : int option }
      (* flush-and-forget level-0: major-compact the whole partition L0
         when either trigger fires (RocksDB: 4 tables; PMBlade-PM: PM
         nearly full) *)
  | Cost_based of Compaction.Cost_model.params
      (* the paper's method: internal compaction under Eq. 1/2, major
         compaction of the non-warm partitions under Eq. 3 *)
  | Matrix of { columns : int; trigger_bytes : int }
      (* MatrixKV: matrix container rows + fine-grained column compaction
         of the lowest uncompacted key range once L0 exceeds the trigger *)

type t = {
  name : string;
  memtable_bytes : int;
  l0_medium : l0_medium;
  l0_capacity : int;              (* PM budget for level-0 *)
  l0_strategy : l0_strategy;
  table_kind : Pmtable.Table.kind;
  group_size : int;               (* PM-table prefix group size *)
  l0_run_table_bytes : int;       (* target size of sorted-run tables *)
  partition_count : int;
  level_base_bytes : int;         (* L1 target size *)
  sstable_target_bytes : int;
  pipeline_compaction : bool;
      (* stage major/internal compaction as a read/merge/build/write
         pipeline over bounded SPSC queues (Compaction.Pipeline): the
         engine's serial data plane records per-stage cost tokens, the
         staged replay on a coroutine scheduler measures the overlapped
         makespan, and the difference is applied as the timing rebate;
         off, compaction runs serially with no rebate *)
  background_share : float;
      (* compactions run on background cores; the foreground operation that
         triggered one observes only this share of its duration
         (interference and backpressure), like RocksDB's background jobs *)
  durable : bool;
      (* maintain a write-ahead log and persist the manifest on structural
         changes so Engine.recover can rebuild after a crash; requires the
         compressed PM table (the only self-describing level-0 format) *)
  matrix_flush_overhead_ns_per_byte : float;
      (* extra level-0 construction cost at flush (MatrixKV cross-hint) *)
  ssd_retry_jitter : float;
      (* seeded jitter fraction on each backoff: the sleep is scaled by a
         factor drawn uniformly from [1 - j/2, 1 + j/2], decorrelating
         retry storms across shards; 0 restores pure exponential *)
  block_cache_mb : int;
      (* DRAM budget of the engine-wide shared SSTable block cache, in MiB;
         0 disables it (every uncached block read hits the SSD) *)
  pm_bloom_bits_per_key : int;
      (* Bloom filter density of PM level-0 tables (format v2); 0 writes
         bloom-less v1 tables — negative lookups then always probe PM *)
  sanitize : bool;
      (* attach the persistence-ordering sanitizer (lib/sanitize) to the PM
         device and check the engine's commit points; on by default so the
         test suite runs sanitized, and subject to the process-wide
         [Sanitize.Control] switch *)
  shard_count : int;
      (* range shards behind the router front door (lib/shard); 1 = a
         single engine, the classic configuration *)
  group_commit_window_ns : float;
      (* how long a group-commit leader holds the batch open for followers
         to join before syncing the shard's WAL *)
  group_commit_max : int;
      (* close and sync the batch once this many writers have joined *)
  admission_soft_tables : int;
      (* per-shard compaction debt, in level-0 runs
         ([Engine.compaction_debt_runs]), where admission starts relief
         steps: a soft-zone write hands an idle background worker one
         partition's major compaction ([Engine.relieve_step]) and is never
         delayed. The name predates counting runs and stays because the
         front-door benchmark's workloads set it. The limit survives
         because it marks where that bounded background relief begins,
         and admission is the only compaction driver of a strategy with
         no triggers (the conventional one of the 4-shard workloads); no
         policy derives it yet *)
  admission_hard_tables : int;
      (* per-shard debt in level-0 runs where admission stalls writers
         until compaction drains below the limit; a shard that stalls
         despite relief steps makes its steps near this limit deeper *)
  breaker_enabled : bool;
      (* per-shard circuit breakers in the router (lib/health): open on
         error bursts or fail-slow drift, answer degraded/unavailable fast
         instead of queueing behind a sick device. Off by default: with
         no fault injected they trip on background-work latency alone *)
  deadline_read_ns : float;
      (* per-read latency budget for deadline-aware serving; 0 = none *)
  deadline_write_ns : float;
      (* per-write latency budget; past-deadline writes are shed at
         admission rather than queued; 0 = none *)
  manifest_root : string;
      (* named superblock root slot this engine's manifest chain persists
         under; "" is the classic unnamed pair. Shards set "shard<i>" so
         N manifest chains coexist on the shared SSD. *)
  wal_external_sync : bool;
      (* stage WAL records but leave the durability-point sync to an
         external group-commit batcher; a put's ack is then deferred until
         the batch leader calls [Engine.sync_wal] *)
  pm_params : Pmem.params;
  ssd_params : Ssd.params;
  seed : int;
}

let mib n = n * 1024 * 1024
let kib n = n * 1024

let scaled_cost_model =
  {
    Compaction.Cost_model.default with
    tau_w = kib 512;
    tau_m = mib 72;
    tau_t = mib 48;
  }

let base =
  {
    name = "base";
    memtable_bytes = kib 64;
    l0_medium = L0_pm;
    l0_capacity = mib 80;
    l0_strategy = Cost_based scaled_cost_model;
    table_kind = Pmtable.Table.Pm_compressed;
    group_size = 8;
    l0_run_table_bytes = kib 256;
    partition_count = 8;
    (* per-partition L1 target; with 8 partitions and the engine's level
       ratio of 10 the global levels are 4 MB / 40 MB / 400 MB,
       RocksDB-proportioned at this scale *)
    level_base_bytes = kib 512;
    sstable_target_bytes = kib 256;
    pipeline_compaction = true;
    background_share = 0.3;
    durable = false;
    matrix_flush_overhead_ns_per_byte = 0.0;
    ssd_retry_jitter = 0.5;
    block_cache_mb = 0;
    pm_bloom_bits_per_key = 10;
    sanitize = true;
    shard_count = 1;
    group_commit_window_ns = 20_000.0;  (* 20 us *)
    group_commit_max = 8;
    admission_soft_tables = 12;
    admission_hard_tables = 24;
    breaker_enabled = false;
    deadline_read_ns = 0.0;
    deadline_write_ns = 0.0;
    manifest_root = "";
    wal_external_sync = false;
    pm_params = { Pmem.default_params with capacity = mib 128 };
    ssd_params = Ssd.default_params;
    seed = 42;
  }

(* The full system: every technique of the paper enabled. *)
let pmblade = { base with name = "PMBlade" }

(* 80 GB PM level-0 but the conventional whole-L0 compaction strategy and
   uncompressed tables (the PMBlade-PM configuration of §VI-B). *)
let pmblade_pm =
  {
    base with
    name = "PMBlade-PM";
    l0_strategy = Conventional { max_tables = None; max_bytes = Some (mib 72) };
    table_kind = Pmtable.Table.Array_plain;
    (* the placement variants keep serial compaction so Fig. 5-7 isolate
       the L0 medium, not the overlap technique *)
    pipeline_compaction = false;
  }

(* Conventional DRAM+SSD LSM-tree: level-0 on the SSD, major compaction at
   4 level-0 tables (PMBlade-SSD; structurally also the RocksDB model).
   Unpartitioned — range partitioning is a PM-Blade technique (§III), and
   RocksDB's whole memtable flushes as one L0 file. *)
let pmblade_ssd =
  {
    base with
    name = "PMBlade-SSD";
    l0_medium = L0_ssd;
    l0_capacity = 0;
    l0_strategy = Conventional { max_tables = Some 4; max_bytes = None };
    table_kind = Pmtable.Table.Array_plain;
    partition_count = 1;
    pipeline_compaction = false;
  }

(* The RocksDB baseline keeps serial compaction: pipelined staging is one
   of the techniques under evaluation, so the comparison system must not
   get it for free. *)
let rocksdb_like = { pmblade_ssd with name = "RocksDB"; pipeline_compaction = false }

(* Ablation ladder of §VI-D: the coroutine/pipeline compaction technique
   is the ladder's last rung (PMBlade itself), so the PMB-* rungs keep
   serial compaction — otherwise the rung's delta would vanish. *)
let pmb_p =
  {
    base with
    name = "PMB-P";
    l0_strategy = Conventional { max_tables = None; max_bytes = Some (mib 72) };
    table_kind = Pmtable.Table.Array_plain;
    pipeline_compaction = false;
  }

let pmb_pi =
  {
    base with
    name = "PMB-PI";
    table_kind = Pmtable.Table.Array_plain;
    pipeline_compaction = false;
  }

let pmb_pic = { base with name = "PMB-PIC"; pipeline_compaction = false }

(* MatrixKV with its default 8 GB (scaled: 8 MB) level-0, and the enlarged
   80 GB (80 MB) configuration the paper adds for fairness. Unpartitioned
   (it is RocksDB-based); the matrix container's construction overhead
   (row organisation + cross-hint indexing) is charged per flushed byte. *)
let matrixkv_like ~l0_mib =
  {
    base with
    name = Printf.sprintf "MatrixKV-%dGB" l0_mib;
    l0_capacity = mib l0_mib;
    l0_strategy =
      Matrix { columns = 16; trigger_bytes = int_of_float (0.9 *. float_of_int (mib l0_mib)) };
    table_kind = Pmtable.Table.Array_plain;
    partition_count = 1;
    matrix_flush_overhead_ns_per_byte = 4.0;
    (* MatrixKV schedules its column compactions serially, like the
       RocksDB baseline it derives from. *)
    pipeline_compaction = false;
  }

let matrixkv_8 = matrixkv_like ~l0_mib:8
let matrixkv_80 = matrixkv_like ~l0_mib:80

let all_variants =
  [ pmblade; pmblade_pm; pmblade_ssd; rocksdb_like; pmb_p; pmb_pi; pmb_pic;
    matrixkv_8; matrixkv_80 ]

(* Canonical fingerprint over every field that affects simulated behaviour,
   as a CRC32 of a versioned field dump. Bench JSON stamps it so a perf
   gate never compares runs of different configurations (or of the same
   named config after its defaults changed). *)
let fingerprint t =
  let b = Buffer.create 512 in
  let add fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b '|')
      fmt
  in
  add "v5";
  add "%s" t.name;
  add "%d" t.memtable_bytes;
  add "%s" (match t.l0_medium with L0_pm -> "pm" | L0_ssd -> "ssd");
  add "%d" t.l0_capacity;
  (match t.l0_strategy with
  | Conventional { max_tables; max_bytes } ->
      add "conv:%d:%d"
        (Option.value max_tables ~default:(-1))
        (Option.value max_bytes ~default:(-1))
  | Cost_based p ->
      add "cost:%g:%g:%g:%g:%g:%d:%d:%d" p.Compaction.Cost_model.i_b p.i_p p.i_s p.t_p
        p.spend_scale p.tau_w p.tau_m p.tau_t
  | Matrix { columns; trigger_bytes } -> add "matrix:%d:%d" columns trigger_bytes);
  add "%s"
    (match t.table_kind with
    | Pmtable.Table.Array_plain -> "plain"
    | Pmtable.Table.Array_snappy -> "snappy"
    | Pmtable.Table.Array_snappy_group -> "snappy-group"
    | Pmtable.Table.Pm_compressed -> "compressed");
  add "%d" t.group_size;
  add "%d" t.l0_run_table_bytes;
  add "%d" t.partition_count;
  add "%d" t.level_base_bytes;
  add "%d" t.sstable_target_bytes;
  add "%b" t.pipeline_compaction;
  add "%g" t.background_share;
  add "%b" t.durable;
  add "%g" t.matrix_flush_overhead_ns_per_byte;
  add "%g" t.ssd_retry_jitter;
  add "%d" t.block_cache_mb;
  add "%d" t.pm_bloom_bits_per_key;
  add "%b" t.sanitize;
  add "%d" t.shard_count;
  add "%g" t.group_commit_window_ns;
  add "%d" t.group_commit_max;
  add "%d" t.admission_soft_tables;
  add "%d" t.admission_hard_tables;
  add "%b" t.breaker_enabled;
  add "%g" t.deadline_read_ns;
  add "%g" t.deadline_write_ns;
  add "%s" t.manifest_root;
  add "%b" t.wal_external_sync;
  let pm = t.pm_params in
  add "pm:%d:%g:%g:%g:%g:%g:%g" pm.Pmem.capacity pm.read_access_ns pm.write_access_ns
    pm.read_byte_ns pm.write_byte_ns pm.flush_ns pm.drain_ns;
  let sd = t.ssd_params in
  add "ssd:%d:%g:%g:%g:%g:%g:%d" sd.Ssd.page_size sd.read_latency_ns sd.write_latency_ns
    sd.read_byte_ns sd.write_byte_ns sd.fsync_latency_ns sd.channels;
  add "%d" t.seed;
  Printf.sprintf "%08x" (Util.Crc32.string (Buffer.contents b) land 0xFFFFFFFF)
