(* The benchmark's workloads. Each is closed-loop (a client sends its next
   operation only after the previous one returned) and runs on
   [Core.Config.pmblade] with a durable WAL plus the listed changes.

   A workload step is one YCSB operation or one retail transaction. The
   generator gets its seed from the command line and nothing else, so one
   seed gives one input sequence. *)

type gen = {
  load : Workload.Sink.t -> unit;  (** populate the store *)
  step : Workload.Sink.t -> unit;  (** one closed-loop operation *)
}

type t = {
  name : string;
  seed : int;  (** default input seed *)
  config : Core.Config.t;
  boundaries : string list;
  clients : int;
  load : int;  (** records or orders loaded before warm-up *)
  warmup : int;  (** steps before measuring; their time counts as set-up *)
  measure : int;  (** measured steps *)
  gen : seed:int -> load:int -> gen;
}

let mib = Core.Config.mib

let durable cfg = { cfg with Core.Config.durable = true }

let with_taus cfg ~tau_m ~tau_t =
  match cfg.Core.Config.l0_strategy with
  | Core.Config.Cost_based p ->
      {
        cfg with
        Core.Config.l0_strategy =
          Core.Config.Cost_based { p with Compaction.Cost_model.tau_m; tau_t };
      }
  | _ -> cfg

let ycsb ~value_bytes op ~seed ~load:records =
  let y = Workload.Ycsb.create ~seed ~value_bytes () in
  {
    load = (fun sink -> Workload.Ycsb.load_sink y sink ~records);
    step = (fun sink -> Workload.Ycsb.step_sink y sink op);
  }

let retail ~seed ~load:orders =
  let r = Workload.Retail.create ~seed () in
  {
    load = (fun sink -> Workload.Retail.load_sink r sink ~orders);
    step = (fun sink -> Workload.Retail.step_sink r sink);
  }

(* Data at twice the PM level-0 budget and 1.3x the block cache, so writes
   drive WAL, admission, compaction and the SSD. *)
let ycsb_a_spill =
  {
    name = "ycsb_a_spill";
    seed = 11;
    config =
      {
        (with_taus (durable Core.Config.pmblade) ~tau_m:(mib 5 / 3) ~tau_t:(mib 1)) with
        Core.Config.l0_capacity = mib 2;
        pm_params = { Pmem.default_params with capacity = mib 4 };
        block_cache_mb = 3;
      };
    boundaries = [];
    clients = 1;
    load = 4_000;
    warmup = 12_000;
    measure = 16_000;
    gen = ycsb ~value_bytes:1024 Workload.Ycsb.A;
  }

(* Read-only and the data fits the PM tier many times over: only the read
   path works, so a write-path change must leave this workload flat. *)
let ycsb_c_resident =
  {
    name = "ycsb_c_resident";
    seed = 11;
    config = durable Core.Config.pmblade;
    boundaries = [];
    clients = 1;
    load = 10_000;
    warmup = 10_000;
    measure = 100_000;
    gen = ycsb ~value_bytes:1024 Workload.Ycsb.C;
  }

(* The paper's headline workload, and the only one with scans and with
   prefix-compressible index keys. Its store grows for the whole run, so
   runs compare only at a fixed length. *)
let retail_mix =
  {
    name = "retail_mix";
    seed = 23;
    config = durable Core.Config.pmblade;
    boundaries = [];
    clients = 1;
    load = 1_000;
    warmup = 1_500;
    measure = 12_000;
    gen = retail;
  }

(* The only concurrent workload: router dispatch, group-commit batching,
   admission and tail latency from background work. Breakers stay off:
   with the default thresholds they trip on background-work latency and
   shed operations although no fault is injected (see README). *)
let shard4_ycsb_a_8c =
  let records = 12_000 and shards = 4 in
  {
    name = "shard4_ycsb_a_8c";
    seed = 11;
    config =
      {
        (durable Core.Config.pmblade) with
        Core.Config.memtable_bytes = 16 * 1024;
        l0_run_table_bytes = 32 * 1024;
        l0_strategy = Core.Config.Conventional { max_tables = None; max_bytes = None };
        block_cache_mb = 8;
        shard_count = shards;
        group_commit_window_ns = 30_000.0;
        group_commit_max = 16;
        admission_soft_tables = 24;
        admission_hard_tables = 48;
        breaker_enabled = false;
      };
    boundaries = Shard.Router.ycsb_boundaries ~records ~shards;
    clients = 8;
    load = records;
    warmup = 8_000;
    measure = 40_000;
    gen = ycsb ~value_bytes:400 Workload.Ycsb.A;
  }

(* Not benchmarked: the concurrent workload with the default breakers, kept
   to reproduce the finding that they shed operations with no fault
   injected. *)
let shard4_breakers =
  {
    shard4_ycsb_a_8c with
    name = "shard4_breakers";
    config = { shard4_ycsb_a_8c.config with Core.Config.breaker_enabled = true };
  }

let all = [ ycsb_a_spill; ycsb_c_resident; retail_mix; shard4_ycsb_a_8c ]
let find name = List.find_opt (fun w -> w.name = name) (shard4_breakers :: all)

(* The same workload with its load and step counts divided, for smoke
   tests; the configuration stays. *)
let scaled w ~divisor =
  let s n = max w.clients (n / divisor) in
  { w with load = s w.load; warmup = s w.warmup; measure = s w.measure }
