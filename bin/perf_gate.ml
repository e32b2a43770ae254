(* The perf gate CLI: compare a committed bench JSON baseline against a
   fresh run of the same experiment (see scripts/check_perf.sh).

     dune exec bin/perf_gate.exe -- BASELINE.json CURRENT.json

   Exit 0 when every baseline metric is within its tolerance on the bad
   side and the headers (schema version, config fingerprints) agree;
   exit 1 otherwise, with a per-metric table either way. Tolerances are
   per-metric-family: the simulation is deterministic, so they only exist
   to absorb intentional drift without churning the committed file. *)

let rules =
  [
    (* Attribution coverage is exact by construction; any drop is a bug in
       the accounting, not noise. *)
    Obs.Perf.rule "attr.coverage" ~tol:0.01 ~direction:Obs.Perf.Higher_is_better;
    Obs.Perf.rule "attr.ycsb_a.throughput_ops" ~tol:0.05
      ~direction:Obs.Perf.Higher_is_better;
    Obs.Perf.rule "cache.hit_ratio" ~tol:0.05 ~direction:Obs.Perf.Higher_is_better;
    (* Tail latency wobbles more than averages under intentional drift. *)
    Obs.Perf.rule "attr.ycsb_a.read_p999_ns" ~tol:0.10;
    (* Stall time and compaction debt are bulk counters; give them room. *)
    Obs.Perf.rule "engine.write_stall_ns" ~tol:0.15;
    Obs.Perf.rule "engine.debt_bytes" ~tol:0.15;
    (* Sharding bench (BENCH_shard.json): the headline scaling ratio and
       group-commit efficiency must not regress; per-point throughputs
       get the usual drift allowance. *)
    Obs.Perf.rule "shard.ycsb_a.speedup_4v1" ~tol:0.05
      ~direction:Obs.Perf.Higher_is_better;
    Obs.Perf.rule "shard.gc.mean_batch_4" ~tol:0.10
      ~direction:Obs.Perf.Higher_is_better;
    (* The resident one-shard leg: the PM level-0 must keep serving the
       reads of a store that fits it. *)
    Obs.Perf.rule "shard.resident.pm_read_share" ~tol:0.01
      ~direction:Obs.Perf.Higher_is_better;
    Obs.Perf.rule "shard.ycsb_a.s1.throughput_ops" ~tol:0.05
      ~direction:Obs.Perf.Higher_is_better;
    Obs.Perf.rule "shard.ycsb_a.s4.throughput_ops" ~tol:0.05
      ~direction:Obs.Perf.Higher_is_better;
    Obs.Perf.rule "shard.ycsb_a.s8.throughput_ops" ~tol:0.05
      ~direction:Obs.Perf.Higher_is_better;
    Obs.Perf.rule "shard.ycsb_a.s4.p999_ns" ~tol:0.10;
    Obs.Perf.rule "shard.ycsb_b.s4.p99_ns" ~tol:0.10;
    (* Every other throughput and batch-size point is higher-is-better too,
       not the lower-is-better default. *)
    Obs.Perf.rule "*throughput_ops" ~direction:Obs.Perf.Higher_is_better;
    Obs.Perf.rule "*mean_batch" ~direction:Obs.Perf.Higher_is_better;
    (* Pipelined compaction (BENCH_pipeline.json): the staged overlap must
       keep its headline speedup and keep both idleness figures down — a
       lost stage overlap shows up as speedup4 falling toward 1 and the
       idles climbing back to the serial numbers. The replay is
       deterministic; zero tolerance on sanitizer findings. *)
    Obs.Perf.rule "pipeline.speedup4" ~tol:0.05
      ~direction:Obs.Perf.Higher_is_better;
    Obs.Perf.rule "pipeline.makespan4_ns" ~tol:0.05;
    Obs.Perf.rule "pipeline.cpu_idle4" ~tol:0.10;
    Obs.Perf.rule "pipeline.io_idle4" ~tol:0.10;
    Obs.Perf.rule "pipeline.queue_wait4_ns" ~tol:0.15;
    Obs.Perf.rule "pipeline.races4" ~tol:0.0;
    Obs.Perf.rule "pipeline.lost_wakeups4" ~tol:0.0;
    (* Chaos soak (BENCH_soak.json): availability under gray faults. The
       ratios are the product claims — zero tolerance on violations, tight
       tolerance on deadline-ok so a broken breaker (which drops it by
       ~0.009 on this seed) cannot hide inside drift. *)
    Obs.Perf.rule "soak.violations" ~tol:0.0;
    Obs.Perf.rule "soak.deadline_ok_ratio" ~tol:0.001
      ~direction:Obs.Perf.Higher_is_better;
    Obs.Perf.rule "soak.healthy_ratio" ~tol:0.005
      ~direction:Obs.Perf.Higher_is_better;
    Obs.Perf.rule "soak.sick_within_ratio" ~tol:0.01
      ~direction:Obs.Perf.Higher_is_better;
    Obs.Perf.rule "soak.mean_ttr_ms" ~tol:0.15;
    (* Read path (BENCH_readpath.json): the cache, bloom and device-free
       ratios must not fall; latencies keep the lower-is-better default. *)
    Obs.Perf.rule "readpath.ssd_read_reduction" ~direction:Obs.Perf.Higher_is_better;
    Obs.Perf.rule "readpath.cache_hit_ratio" ~direction:Obs.Perf.Higher_is_better;
    Obs.Perf.rule "readpath.bloom_filter_rate" ~direction:Obs.Perf.Higher_is_better;
    Obs.Perf.rule "readpath.device_free_negatives" ~direction:Obs.Perf.Higher_is_better;
  ]

let read_doc path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match Obs.Json.parse s with
  | doc -> doc
  | exception Obs.Json.Parse_error msg ->
      Printf.eprintf "perf_gate: %s: %s\n" path msg;
      exit 2

let () =
  match Sys.argv with
  | [| _; baseline_path; current_path |] ->
      let baseline = read_doc baseline_path in
      let current = read_doc current_path in
      let report = Obs.Perf.compare_docs ~rules baseline current in
      Fmt.pr "%a@." Obs.Perf.pp_report report;
      exit (if Obs.Perf.passed report then 0 else 1)
  | _ ->
      Printf.eprintf "usage: perf_gate BASELINE.json CURRENT.json\n";
      exit 2
