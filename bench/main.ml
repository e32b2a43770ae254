(* Benchmark harness: one experiment per table and figure of the paper's
   evaluation (see DESIGN.md's per-experiment index), plus design-choice
   ablations and wall-clock micro-benchmarks.

     dune exec bench/main.exe                       # run everything
     dune exec bench/main.exe -- fig9               # one experiment
     dune exec bench/main.exe -- --list             # list experiment ids
     dune exec bench/main.exe -- fig8 --json r.json # also dump tables as JSON

   Exits 1, after writing the JSON, when a floor an experiment asserts
   with [Report.require] fails; scripts/check_bench.sh adds the perf gate. *)

let experiments =
  [
    ("table1", "Table I: query latency PM vs cache vs SSD", Bench_table1.run);
    ("fig2a", "Fig 2a: flush time breakdown on PM", Bench_fig2a.run);
    ("table3", "Table III: multi-thread compaction utilization", Bench_table3.run);
    ("fig4", "Fig 4: compaction process timelines (rendered)", Bench_fig4.run);
    ("fig6a", "Fig 6a+6b: PM-table structures (build + read)", Bench_fig6.run);
    ("table4", "Table IV: space released by internal compaction", Bench_table4.run);
    ("table5", "Table V: internal vs SSD compaction duration", Bench_table5.run);
    ("fig7", "Fig 7a+7b: read latency under internal compaction", fun () ->
        Bench_fig7.fig7a (); Bench_fig7.fig7b ());
    ("fig8", "Fig 8a+8b: write amplification + PM hit ratio", fun () ->
        Bench_fig8.fig8a (); Bench_fig8.fig8b ());
    ("fig9", "Fig 9a-9d: coroutine-based compaction", Bench_fig9.run);
    ("fig10", "Fig 10: ablation on the retail workload", Bench_fig10.run);
    ("fig11", "Fig 11: four systems on the retail workload", Bench_fig11.run);
    ("fig12", "Fig 12: YCSB normalized throughput", Bench_fig12.run);
    ("readpath", "Read path: block cache, PM blooms, fence pruning", Bench_readpath.run);
    ("attr", "Per-op latency attribution + perf-gate baseline", Bench_attr.run);
    ("pipeline", "Pipelined compaction: staged overlap vs Table III serial", Bench_pipeline.run);
    ("shard", "Range-sharded front door: multi-client YCSB over 1-8 shards", Bench_shard.run);
    ("soak", "Chaos soak: gray faults, crashes, corruption, availability gate", Bench_soak.run);
    ("ablate", "Extra ablations: group size, cost models, warm set", Bench_ablate.run);
    ("micro", "Bechamel wall-clock micro-benchmarks", Bench_micro.run);
  ]

let list_ids () =
  List.iter (fun (id, descr, _) -> Printf.printf "%-8s %s\n" id descr) experiments

let run_ids ids =
  let selected =
    match ids with
    | [] -> experiments
    | ids ->
        List.map
          (fun id ->
            match List.find_opt (fun (eid, _, _) -> eid = id) experiments with
            | Some e -> e
            | None ->
                Printf.eprintf "unknown experiment %S (try --list)\n" id;
                exit 1)
          ids
  in
  List.iter
    (fun (id, _, run) ->
      let t0 = Unix.gettimeofday () in
      run ();
      Printf.printf "  [%s finished in %.1fs wall time]\n%!" id (Unix.gettimeofday () -. t0))
    selected

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec split_json acc = function
    | "--json" :: path :: rest ->
        Report.set_json_path path;
        split_json acc rest
    | [ "--json" ] ->
        Printf.eprintf "--json requires a FILE argument\n";
        exit 1
    | arg :: rest -> split_json (arg :: acc) rest
    | [] -> List.rev acc
  in
  match split_json [] args with
  | [ "--list" ] -> list_ids ()
  | ids ->
      run_ids ids;
      Report.write_json ();
      if !Report.failed_floors <> [] then begin
        List.iter (Printf.eprintf "floor failed: %s\n") (List.rev !Report.failed_floors);
        exit 1
      end
