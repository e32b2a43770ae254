(* Run the YCSB core workloads against two engine configurations and
   compare — a miniature of the paper's Fig. 12.

     dune exec examples/ycsb_demo.exe *)

let run_system name (cfg : Core.Config.t) =
  let engine = Core.Engine.create cfg in
  let y = Workload.Ycsb.create ~value_bytes:256 () in
  let sink = Workload.Sink.of_engine engine in
  Printf.printf "%s:\n" name;
  let load = Workload.Driver.measure engine ~ops:4_000 (fun _ ->
      Workload.Ycsb.step_sink y sink Workload.Ycsb.Load) in
  Printf.printf "  %-5s %8.0f ops/s\n" "Load" load.Workload.Driver.throughput;
  List.iter
    (fun w ->
      let s = Workload.Driver.measure engine ~ops:1_000 (fun _ -> Workload.Ycsb.step_sink y sink w) in
      Printf.printf "  %-5s %8.0f ops/s  (read avg %.1f us)\n" (Workload.Ycsb.name w)
        s.Workload.Driver.throughput
        (s.read_avg_ns /. 1e3))
    [ Workload.Ycsb.A; B; C; E ];
  let m = Core.Engine.metrics engine in
  Printf.printf "  PM hit ratio %.2f, WA %.1fx\n\n" (Core.Metrics.pm_hit_ratio m)
    (float_of_int (Core.Engine.pm_bytes_written engine + Core.Engine.ssd_bytes_written engine)
    /. float_of_int (max 1 (Core.Engine.user_bytes engine)))

let () =
  run_system "PM-Blade (PM level-0, cost-based compaction)" Core.Config.pmblade;
  run_system "Conventional LSM (SSD level-0)" Core.Config.rocksdb_like
