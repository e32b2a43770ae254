(* Fig. 10 — ablation study on the online-retail workload (§VI-D): how much
   each technique contributes. Configurations ladder up from PMBlade-SSD
   (nothing enabled, no PM) through PMB-P (PM level-0), PMB-PI (+ internal
   compaction under the cost models), PMB-PIC (+ compressed PM tables) to
   PMBlade (+ coroutine compaction).

   The paper loads 200 GB against 80 GB of PM; the scaled run keeps the
   pressure ratio with a 20 MB PM budget and a ~2x dataset, so minor,
   internal and major compactions all run during the measurement. *)

let orders = 5_000
let transactions = 4_000

let pm_budget = 20 * 1024 * 1024
let tau_m = 18 * 1024 * 1024
let tau_t = 12 * 1024 * 1024

let shrink (cfg : Core.Config.t) =
  {
    cfg with
    Core.Config.l0_capacity = pm_budget;
    pm_params = { Pmem.default_params with capacity = pm_budget + (4 * 1024 * 1024) };
    l0_strategy =
      (match cfg.Core.Config.l0_strategy with
      | Core.Config.Cost_based p ->
          Core.Config.Cost_based { p with Compaction.Cost_model.tau_m; tau_t }
      | Core.Config.Conventional { max_tables = Some _; _ } as s -> s
      | Core.Config.Conventional _ ->
          Core.Config.Conventional { max_tables = None; max_bytes = Some tau_m }
      | Core.Config.Matrix m -> Core.Config.Matrix m);
  }

let configs =
  [
    ("PMBlade-SSD", shrink Core.Config.pmblade_ssd);
    ("PMB-P", shrink Core.Config.pmb_p);
    ("PMB-PI", shrink Core.Config.pmb_pi);
    ("PMB-PIC", shrink Core.Config.pmb_pic);
    ("PMBlade", shrink Core.Config.pmblade);
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
  (eng, summary)

let run () =
  Report.heading "Fig 10a/10b: ablation on the retail workload";
  let results = List.map (fun (name, cfg) -> (name, run_one cfg)) configs in
  Report.table
    ~header:
      [ "configuration"; "read avg"; "scan avg"; "write avg"; "throughput (tx/s)";
        "internal compactions" ]
    (List.map
       (fun (name, (eng, s)) ->
         [
           name;
           Report.us s.Workload.Driver.read_avg_ns;
           Report.us s.scan_avg_ns;
           Report.us s.write_avg_ns;
           Printf.sprintf "%.0f" s.throughput;
           string_of_int (Core.Engine.metrics eng).Core.Metrics.internal_compactions;
         ])
       results);
  (match (List.assoc_opt "PMB-P" results, List.assoc_opt "PMBlade" results) with
  | Some (_, p), Some (_, full) ->
      Report.note "PMBlade vs PMB-P: read %.0f%%, write %.0f%%, scan %.0f%%, throughput %+.0f%%"
        (100. *. (1. -. (full.Workload.Driver.read_avg_ns /. p.Workload.Driver.read_avg_ns)))
        (100. *. (1. -. (full.write_avg_ns /. p.write_avg_ns)))
        (100. *. (1. -. (full.scan_avg_ns /. p.scan_avg_ns)))
        (100. *. ((full.throughput /. p.throughput) -. 1.))
  | _ -> ());
  Report.note "paper: vs PMB-P, PMBlade cuts read 40%%, write 48%%, scan 54%%";
  Report.note "and lifts throughput 51%%; internal compaction contributes most."
