(* Attribution baseline (BENCH_attr): one deterministic YCSB-A run through
   a one-shard router (the front door, as `doctor` measures it) with the
   per-op profiler enabled, printed as a per-phase breakdown and recorded
   as the scalar metrics the perf gate compares against the committed
   BENCH_attr.json baseline (scripts/check_bench.sh attr).

   The dataset exceeds the PM level-0 budget so reads exercise every layer
   the profiler attributes: memtable, PM blooms, the block cache, PM and
   SSD media, and the WAL (staged by the engine, synced by the shard's
   group committer) on the write side. The measured window must run at
   least one internal and one major compaction, so the per-phase table
   and the gate see both the PM and the SSD compaction paths.

     dune exec bench/main.exe -- attr --json BENCH_attr.json

   PMB_PLANT=cache_off runs the same experiment with the block cache
   disabled while still stamping the *nominal* config fingerprint — a
   planted regression that must make the gate fail on metrics, proving the
   gate can catch a real perf bug rather than just config drift. *)

let records = 12_000
let ops = 10_000
let cache_mb = 8
let pm_budget = 6 * 1024 * 1024
let tau_m = 5 * 1024 * 1024
let tau_t = 3 * 1024 * 1024

let nominal =
  let cfg = Core.Config.pmblade in
  {
    cfg with
    Core.Config.l0_capacity = pm_budget;
    pm_params = { Pmem.default_params with capacity = pm_budget + (4 * 1024 * 1024) };
    l0_strategy =
      (match cfg.Core.Config.l0_strategy with
      | Core.Config.Cost_based p ->
          Core.Config.Cost_based { p with Compaction.Cost_model.tau_m; tau_t }
      | s -> s);
    block_cache_mb = cache_mb;
    (* durable so the WAL stage/sync phases show up in the breakdown *)
    durable = true;
    shard_count = 1;
  }

let planted () =
  match Sys.getenv_opt "PMB_PLANT" with Some "cache_off" -> true | _ -> false

let run () =
  Report.heading "Attr: per-op attribution + perf-gate baseline (YCSB-A)";
  (* The planted variant keeps the nominal fingerprint on purpose: the gate
     must catch the regression through metrics, not a config mismatch. *)
  Report.note_config nominal;
  let cfg =
    if planted () then { nominal with Core.Config.block_cache_mb = 0 } else nominal
  in
  (* an empty minor heap, so how much survives to be promoted does not
     depend on what ran before (argument parsing, say) *)
  Gc.minor ();
  let gc0 = Gc.quick_stat () in
  let router = Shard.Router.create cfg in
  let y = Workload.Ycsb.create () in
  let sink = Shard.Router.sink router in
  Workload.Ycsb.load_sink y sink ~records;
  Shard.Router.flush router;
  Core.Engine.force_internal_compaction (Shard.Router.engines router).(0);
  let clock = Shard.Router.clock router in
  let m0 = Shard.Router.metrics router in
  let internal0 = m0.Core.Metrics.internal_compactions
  and major0 = m0.Core.Metrics.major_compactions in
  (* latencies of the measured window only, not of the load *)
  Util.Histogram.reset (Shard.Router.read_latency router);
  Util.Histogram.reset (Shard.Router.write_latency router);
  Obs.Attr.enable ~clock;
  let t0 = Sim.Clock.now clock in
  for _ = 1 to ops do
    Workload.Ycsb.step_sink y sink Workload.Ycsb.A
  done;
  let elapsed = Sim.Clock.to_s (Sim.Clock.now clock -. t0) in
  let gc1 = Gc.quick_stat () in
  let snap = Obs.Attr.snapshot () in
  let op_ns = Obs.Attr.op_ns () in
  let accounted = Obs.Attr.accounted_ns () in
  let coverage = if op_ns > 0.0 then accounted /. op_ns else 0.0 in
  let phases =
    snap.Obs.Attr.op_phases
    |> List.filter (fun (_, ns) -> ns > 0.0)
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  in
  Report.table
    ~header:[ "phase"; "op time"; "share"; "events" ]
    (List.map
       (fun (p, ns) ->
         [
           Obs.Attr.phase_name p;
           Report.duration ns;
           Report.pct (ns /. op_ns);
           string_of_int
             (Option.value ~default:0
                (List.assoc_opt p snap.Obs.Attr.phase_counts));
         ])
       phases);
  Report.note "attribution coverage: %s of %s measured op time"
    (Report.pct coverage) (Report.duration op_ns);
  let hit_ratio =
    match Shard.Router.block_cache router with
    | Some c -> Cache.Block_cache.hit_ratio c
    | None -> 0.0
  in
  let m = Shard.Router.metrics router in
  let internal = m.Core.Metrics.internal_compactions - internal0
  and major = m.Core.Metrics.major_compactions - major0 in
  let metric name v =
    Report.record_metric name v;
    Printf.printf "  ATTR %s %.6g\n" name v
  in
  let reads = Shard.Router.read_latency router
  and writes = Shard.Router.write_latency router in
  metric "attr.ycsb_a.throughput_ops"
    (if elapsed > 0.0 then float_of_int ops /. elapsed else 0.0);
  metric "attr.ycsb_a.read_avg_ns" (Util.Histogram.mean reads);
  metric "attr.ycsb_a.read_p999_ns" (Util.Histogram.percentile reads 99.9);
  metric "attr.ycsb_a.write_avg_ns" (Util.Histogram.mean writes);
  metric "attr.coverage" coverage;
  metric "engine.waf" (Shard.Router.write_amplification router);
  metric "engine.raf" (Shard.Router.read_amplification router);
  (* behind the router a flush runs on the shard's worker, so writers stall
     at admission (hard limit), not inside the engine *)
  metric "shard.stall_ns" (Shard.Router.stall_ns router);
  metric "engine.debt_bytes" (float_of_int (Shard.Router.compaction_debt_bytes router));
  metric "cache.hit_ratio" hit_ratio;
  (* Request size over the whole run (load and compactions included): a
     table build is one write and a compaction input one read, so these
     fall back to about a block if either goes per-block again. *)
  let ssd = Ssd.stats (Shard.Router.ssd router) in
  let per_request bytes requests =
    if requests > 0 then float_of_int bytes /. float_of_int requests else 0.0
  in
  metric "ssd.write_bytes_per_request" (per_request ssd.Ssd.bytes_written ssd.Ssd.writes);
  metric "ssd.read_bytes_per_request" (per_request ssd.Ssd.bytes_read ssd.Ssd.reads);
  (* Host allocation of the whole run (load and its major compactions
     included) per measured op: the program is deterministic, so these
     repeat exactly on one compiler. A compaction that goes back to
     materialising whole runs shows up in the promoted words; a read or
     build that copies device bytes again shows up in the direct major
     words (blocks too large for the minor heap, allocated in the major
     heap without passing through it). *)
  let per_op words = words /. float_of_int ops in
  let promoted = gc1.Gc.promoted_words -. gc0.Gc.promoted_words in
  metric "host.gc.minor_words_per_op" (per_op (gc1.Gc.minor_words -. gc0.Gc.minor_words));
  metric "host.gc.promoted_words_per_op" (per_op promoted);
  metric "host.gc.direct_major_words_per_op"
    (per_op (gc1.Gc.major_words -. gc0.Gc.major_words -. promoted));
  Obs.Attr.disable ();
  Report.require (Printf.sprintf "internal compactions in the measured window %d >= 1" internal)
    (internal >= 1);
  Report.require (Printf.sprintf "major compactions in the measured window %d >= 1" major)
    (major >= 1);
  if planted () then Report.note "PLANTED regression active: block cache disabled"
