(* Fig. 11 — head-to-head on the online-retail workload (§VI-E): write
   amplification (split by device), read / write / scan latency and
   normalised throughput for PMBlade, MatrixKV-8GB, MatrixKV-80GB and
   RocksDB. *)

let orders = 5_000
let transactions = 4_000

(* Scaled like fig10: 20 MB PM budget under a ~2x dataset; MatrixKV keeps
   its own (8 MB / 20 MB) container budgets. *)
let pm_budget = 20 * 1024 * 1024
let tau_m = 18 * 1024 * 1024
let tau_t = 12 * 1024 * 1024

let shrink (cfg : Core.Config.t) =
  {
    cfg with
    Core.Config.l0_capacity = min cfg.Core.Config.l0_capacity pm_budget;
    pm_params = { Pmem.default_params with capacity = pm_budget + (4 * 1024 * 1024) };
    l0_strategy =
      (match cfg.Core.Config.l0_strategy with
      | Core.Config.Cost_based p ->
          Core.Config.Cost_based { p with Compaction.Cost_model.tau_m; tau_t }
      | Core.Config.Conventional _ as s -> s
      | Core.Config.Matrix { columns; trigger_bytes } ->
          Core.Config.Matrix { columns; trigger_bytes = min trigger_bytes tau_m });
  }

let systems =
  [
    ("PMBlade", shrink Core.Config.pmblade);
    ("MatrixKV-8GB", shrink Core.Config.matrixkv_8);
    ("MatrixKV-80GB", shrink Core.Config.matrixkv_80);
    ("RocksDB", shrink Core.Config.rocksdb_like);
  ]

let run_one (cfg : Core.Config.t) =
  Report.note_config cfg;
  let eng = Core.Engine.create cfg in
  let retail = Workload.Retail.create () in
  let sink = Workload.Sink.of_engine eng in
  Workload.Retail.load_sink retail sink ~orders;
  let m = Core.Engine.metrics eng in
  Util.Histogram.reset m.Core.Metrics.read_latency;
  Util.Histogram.reset m.Core.Metrics.write_latency;
  Util.Histogram.reset m.Core.Metrics.scan_latency;
  let summary =
    Workload.Driver.measure eng ~ops:transactions (fun _ ->
        Workload.Retail.step_sink retail sink)
  in
  summary

let run () =
  Report.heading "Fig 11: real-world (retail) workload, four systems";
  let results = List.map (fun (name, cfg) -> (name, run_one cfg)) systems in
  let base_tp =
    match List.assoc_opt "RocksDB" results with
    | Some s -> s.Workload.Driver.throughput
    | None -> 1.0
  in
  Report.table
    ~header:
      [ "system"; "PM written"; "SSD written"; "WA"; "read avg"; "write avg"; "scan avg";
        "throughput vs RocksDB" ]
    (List.map
       (fun (name, s) ->
         [
           name;
           Report.mb s.Workload.Driver.pm_bytes_written;
           Report.mb s.ssd_bytes_written;
           Report.ratio
             (float_of_int (s.pm_bytes_written + s.ssd_bytes_written)
             /. float_of_int (max 1 s.user_bytes));
           Report.us s.read_avg_ns;
           Report.us s.write_avg_ns;
           Report.us s.scan_avg_ns;
           Report.ratio (s.throughput /. base_tp);
         ])
       results);
  Report.note "paper: PMBlade WA 197 GB (18%% of RocksDB), write latency 33%% of";
  Report.note "RocksDB / 48%% of MatrixKV-8, scan 22%%/34%%, throughput 3.7x RocksDB";
  Report.note "and ~2.5-2.6x both MatrixKV configurations."
