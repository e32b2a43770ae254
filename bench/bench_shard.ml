(* Sharding benchmark (BENCH_shard): multi-client YCSB-A/B through the
   range-sharded front door at 1/2/4/8 shards, group commit on.

   Eight client coroutines drive the router under one cooperative
   scheduler; every shard runs with the WAL durability point in the group
   committer and background work (flush + admission-driven compaction
   relief) on the shard's modelled worker. The headline claim is the
   sharding one: level-0 flush and compaction serialise behind a single
   worker on one shard but overlap N ways on N, so aggregate put
   throughput at 4 shards must clear 1.5x the single-shard run — that
   ratio, the group-commit mean batch size, and the tail latencies are
   the perf-gate metrics against the committed BENCH_shard.json.

     dune exec bench/main.exe -- shard --json BENCH_shard.json

   A last leg checks the paper's premise at the front door: one shard
   running the cost-based PMBlade strategy loads a YCSB store that fits
   the PM level-0 budget, then serves YCSB-C. Admission must leave that
   store on PM, so the share of reads PM serves is gated too.

   A priced leg checks that relief steps speak Eq. 2: one cost-based shard
   shaped like the front door's spill workload (2 MiB level-0 in a 4 MiB
   PM device, tau_m 5/3 MiB) runs update-heavy YCSB-A on data twice its
   level-0. Most of its relief steps must be internal compactions on PM,
   and its throughput is gated with them.

   The run fails its own floors (4-shard speedup, mean batch, no run
   ending stalled, PM read share, internal-step share) before
   scripts/check_bench.sh compares it with the baseline.

   PMB_PLANT=no_batch forces every commit to sync alone (window and max
   batch collapse to nothing) while stamping the nominal fingerprint: the
   planted regression must trip the gate and the mean-batch check.
   PMB_PLANT=table_debt sets [Core.Policy.chaos_table_debt], so admission
   counts every sorted-run table as debt again: the resident load then
   hits the hard limit, relief pushes level-0 to the SSD, and the PM-share
   floor and gate must fail. *)

let records = 12_000
let ops = 10_000
let clients = 8
let value_bytes = 400

let planted () =
  match Sys.getenv_opt "PMB_PLANT" with Some "no_batch" -> true | _ -> false

let resident_records = 10_000
let resident_ops = 10_000

(* Small memtables and a compaction strategy that never self-triggers:
   all background work flows through the router's per-shard worker
   (pre-emptive flush, admission-driven relief), which is exactly the
   work sharding parallelises. *)
let config shards =
  {
    Core.Config.pmblade with
    Core.Config.name = Printf.sprintf "shard-s%d" shards;
    memtable_bytes = 16 * 1024;
    l0_run_table_bytes = 32 * 1024;
    l0_strategy = Core.Config.Conventional { max_tables = None; max_bytes = None };
    block_cache_mb = 8;
    durable = true;
    shard_count = shards;
    group_commit_window_ns = 30_000.0;
    group_commit_max = 16;
    admission_soft_tables = 24;
    admission_hard_tables = 48;
  }

type run = {
  shards : int;
  throughput : float;  (* all ops per simulated second *)
  put_throughput : float;
  p99_ns : float;
  p999_ns : float;
  mean_batch : float;
  stalls : int;
  stalled_at_end : bool;  (* a shard still over the hard limit after the run *)
}

let run_one workload shards =
  let cfg = config shards in
  Report.note_config cfg;
  let cfg =
    if planted () then
      { cfg with Core.Config.group_commit_window_ns = 0.0; group_commit_max = 1 }
    else cfg
  in
  let boundaries = Shard.Router.ycsb_boundaries ~records ~shards in
  let router = Shard.Router.create ~boundaries cfg in
  let y = Workload.Ycsb.create ~value_bytes () in
  let sink = Shard.Router.sink router in
  Workload.Ycsb.load_sink y sink ~records;
  Shard.Router.flush router;
  let clock = Shard.Router.clock router in
  let des = Sim.Des.create clock in
  let sched =
    Coroutine.Scheduler.create ~cores:1
      ~policy:(Coroutine.Scheduler.Cooperative { switch_cost = 0.0 })
      des (Shard.Router.ssd router)
  in
  (* Only the measured phase batches: the load above ran in [Sync] mode,
     so batch statistics are deltas from here. *)
  let batches0 = Shard.Router.gc_batches router in
  let synced0 = Shard.Router.gc_synced_entries router in
  let op_lat = Util.Histogram.create () in
  Shard.Router.enable_group_commit router sched;
  let t_start = Sim.Clock.now clock in
  let per_client = ops / clients in
  for c = 0 to clients - 1 do
    Coroutine.Scheduler.spawn ~name:(Printf.sprintf "client-%d" c) sched 0 (fun () ->
        for _ = 1 to per_client do
          let t0 = Sim.Clock.now clock in
          Workload.Ycsb.step_sink y sink workload;
          Util.Histogram.record op_lat (Sim.Clock.now clock -. t0);
          Coroutine.Co.yield ()
        done)
  done;
  ignore (Coroutine.Scheduler.run_to_completion sched);
  Shard.Router.disable_group_commit router;
  let elapsed = Sim.Clock.now clock -. t_start in
  let run_ops = per_client * clients in
  let batches = Shard.Router.gc_batches router - batches0 in
  let synced = Shard.Router.gc_synced_entries router - synced0 in
  let seconds = Sim.Clock.to_s elapsed in
  let throughput = if seconds > 0.0 then float_of_int run_ops /. seconds else 0.0 in
  let put_throughput =
    if seconds > 0.0 then float_of_int synced /. seconds else 0.0
  in
  let stalled_at_end = Shard.Router.at_hard_limit router in
  let r =
    {
      shards;
      throughput;
      put_throughput;
      p99_ns = Util.Histogram.percentile op_lat 99.0;
      p999_ns = Util.Histogram.percentile op_lat 99.9;
      mean_batch =
        (if batches > 0 then float_of_int synced /. float_of_int batches else 0.0);
      stalls = Shard.Router.stall_count router;
      stalled_at_end;
    }
  in
  Shard.Router.close router;
  r

let run_workload wname workload counts =
  Report.heading
    (Printf.sprintf "Shard: %d-client YCSB-%s over range shards" clients wname);
  let runs = List.map (run_one workload) counts in
  Report.table
    ~header:
      [ "shards"; "ops/s"; "puts/s"; "p99"; "p99.9"; "mean batch"; "stalls" ]
    (List.map
       (fun r ->
         [
           string_of_int r.shards;
           Printf.sprintf "%.0f" r.throughput;
           Printf.sprintf "%.0f" r.put_throughput;
           Report.duration r.p99_ns;
           Report.duration r.p999_ns;
           Printf.sprintf "%.2f" r.mean_batch;
           string_of_int r.stalls;
         ])
       runs);
  let tag = "shard.ycsb_" ^ String.lowercase_ascii wname in
  List.iter
    (fun r ->
      let m name = Printf.sprintf "%s.s%d.%s" tag r.shards name in
      Report.record_metric (m "throughput_ops") r.throughput;
      Report.record_metric (m "put_throughput_ops") r.put_throughput;
      Report.record_metric (m "p99_ns") r.p99_ns;
      Report.record_metric (m "p999_ns") r.p999_ns;
      Report.record_metric (m "mean_batch") r.mean_batch)
    runs;
  runs

(* The share of level-0-or-deeper gets that PM served (memtable hits
   excluded), over the YCSB-C phase only. *)
let run_resident () =
  let cfg =
    {
      Core.Config.pmblade with
      Core.Config.name = "shard-resident";
      durable = true;
      shard_count = 1;
    }
  in
  Report.note_config cfg;
  let router = Shard.Router.create cfg in
  let y = Workload.Ycsb.create ~value_bytes:1024 () in
  let sink = Shard.Router.sink router in
  Workload.Ycsb.load_sink y sink ~records:resident_records;
  let m = Core.Engine.metrics (Shard.Router.engines router).(0) in
  Core.Metrics.reset_read_sources m;
  for _ = 1 to resident_ops do
    Workload.Ycsb.step_sink y sink Workload.Ycsb.C
  done;
  let served = m.Core.Metrics.reads_from_pm + m.Core.Metrics.reads_from_ssd in
  let share =
    if served > 0 then float_of_int m.Core.Metrics.reads_from_pm /. float_of_int served
    else 0.0
  in
  Report.heading "Shard: 1-shard resident YCSB-C (cost-based PM level-0)";
  Report.table ~header:[ "records"; "gets"; "PM read share"; "stalls" ]
    [
      [
        string_of_int resident_records;
        string_of_int resident_ops;
        Printf.sprintf "%.4f" share;
        string_of_int (Shard.Router.stall_count router);
      ];
    ];
  Shard.Router.close router;
  share

let priced_records = 4_000
let priced_ops = 12_000

(* Simulated ops/s over the YCSB-A phase, and the share of its relief
   steps that Eq. 2 priced as internal compactions. *)
let run_priced () =
  let mib = Core.Config.mib in
  let cfg =
    {
      Core.Config.pmblade with
      Core.Config.name = "shard-priced";
      durable = true;
      shard_count = 1;
      l0_capacity = mib 2;
      l0_strategy =
        Core.Config.Cost_based
          { Core.Config.scaled_cost_model with tau_m = mib 5 / 3; tau_t = mib 1 };
      pm_params = { Pmem.default_params with capacity = mib 4 };
      block_cache_mb = 3;
    }
  in
  Report.note_config cfg;
  let router = Shard.Router.create cfg in
  let y = Workload.Ycsb.create ~value_bytes:1024 () in
  let sink = Shard.Router.sink router in
  Workload.Ycsb.load_sink y sink ~records:priced_records;
  let clock = Shard.Router.clock router in
  let steps0 = Shard.Router.relief_steps router
  and internal0 = Shard.Router.relief_steps_internal router in
  let t0 = Sim.Clock.now clock in
  for _ = 1 to priced_ops do
    Workload.Ycsb.step_sink y sink Workload.Ycsb.A
  done;
  let seconds = Sim.Clock.to_s (Sim.Clock.now clock -. t0) in
  let throughput = if seconds > 0.0 then float_of_int priced_ops /. seconds else 0.0 in
  let steps = Shard.Router.relief_steps router - steps0
  and internal = Shard.Router.relief_steps_internal router - internal0 in
  let share = if steps > 0 then float_of_int internal /. float_of_int steps else 0.0 in
  Report.heading "Shard: 1-shard update-heavy YCSB-A (relief steps priced by Eq. 2)";
  Report.table ~header:[ "records"; "ops"; "ops/s"; "relief steps"; "internal"; "stalls" ]
    [
      [
        string_of_int priced_records;
        string_of_int priced_ops;
        Printf.sprintf "%.0f" throughput;
        string_of_int steps;
        string_of_int internal;
        string_of_int (Shard.Router.stall_count router);
      ];
    ];
  Shard.Router.close router;
  (throughput, share)

let run () =
  if Sys.getenv_opt "PMB_PLANT" = Some "table_debt" then Core.Policy.chaos_table_debt := true;
  let a_runs = run_workload "A" Workload.Ycsb.A [ 1; 2; 4; 8 ] in
  let b_runs = run_workload "B" Workload.Ycsb.B [ 1; 4 ] in
  let find rs n = List.find (fun r -> r.shards = n) rs in
  let a1 = find a_runs 1 and a4 = find a_runs 4 in
  let speedup =
    if a1.put_throughput > 0.0 then a4.put_throughput /. a1.put_throughput else 0.0
  in
  Report.record_metric "shard.ycsb_a.speedup_4v1" speedup;
  Report.record_metric "shard.gc.mean_batch_4" a4.mean_batch;
  Report.note "put-throughput speedup at 4 shards: %s over 1 shard"
    (Report.ratio speedup);
  let pm_share = run_resident () in
  Report.record_metric "shard.resident.pm_read_share" pm_share;
  let priced_throughput, internal_share = run_priced () in
  Report.record_metric "shard.priced.throughput_ops" priced_throughput;
  Report.record_metric "shard.priced.internal_step_share" internal_share;
  Report.require
    (Printf.sprintf "4-shard put speedup %.3f >= 1.5" speedup)
    (speedup >= 1.5);
  Report.require
    (Printf.sprintf "4-shard group-commit mean batch %.3f > 1.0" a4.mean_batch)
    (a4.mean_batch > 1.0);
  Report.require "no run ends stalled over the hard limit"
    (not (List.exists (fun r -> r.stalled_at_end) (a_runs @ b_runs)));
  Report.require
    (Printf.sprintf "resident PM read share %.4f >= 0.9" pm_share)
    (pm_share >= 0.9);
  Report.require
    (Printf.sprintf "priced internal-step share %.4f >= 0.5" internal_share)
    (internal_share >= 0.5);
  if planted () then Report.note "PLANTED regression active: group commit disabled";
  if !Core.Policy.chaos_table_debt then
    Report.note "PLANTED regression active: debt counts sorted-run tables"
