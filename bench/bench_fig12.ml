(* Fig. 12 — YCSB Load + A-F normalised throughput for PMBlade, RocksDB,
   MatrixKV-8GB and MatrixKV-80GB. Standard YCSB procedure: load a dataset,
   then run each core workload on the same store, measuring simulated
   throughput per phase. Scaled: 16k x 1 KB records, 3k ops per phase. *)

let records = 16_000
let ops_per_phase = 3_000

let systems =
  [
    ("PMBlade", Core.Config.pmblade);
    ("RocksDB", Core.Config.rocksdb_like);
    ("MatrixKV-8GB", Core.Config.matrixkv_8);
    ("MatrixKV-80GB", Core.Config.matrixkv_80);
  ]

let phases =
  [ Workload.Ycsb.Load; Workload.Ycsb.A; B; C; D; E; F ]

let run_system (cfg : Core.Config.t) =
  Report.note_config cfg;
  let eng = Core.Engine.create cfg in
  let y = Workload.Ycsb.create () in
  let sink = Workload.Sink.of_engine eng in
  List.map
    (fun phase ->
      let summary =
        match phase with
        | Workload.Ycsb.Load ->
            Workload.Driver.measure eng ~ops:records (fun _ ->
                Workload.Ycsb.step_sink y sink Workload.Ycsb.Load)
        | w ->
            Workload.Driver.measure eng ~ops:ops_per_phase (fun _ ->
                Workload.Ycsb.step_sink y sink w)
      in
      (phase, summary.Workload.Driver.throughput))
    phases

let run () =
  Report.heading "Fig 12: YCSB throughput, normalized to RocksDB";
  let results = List.map (fun (name, cfg) -> (name, run_system cfg)) systems in
  let rocksdb = List.assoc "RocksDB" results in
  Report.table
    ~header:("system" :: List.map Workload.Ycsb.name phases)
    (List.map
       (fun (name, per_phase) ->
         name
         :: List.map
              (fun (phase, tp) ->
                let base = List.assoc phase rocksdb in
                Report.ratio (tp /. base))
              per_phase)
       results);
  Report.note "paper: Load 3.5x RocksDB / 1.8x MatrixKV-8; E 2.0x RocksDB /";
  Report.note "2.4x MatrixKV; A 1.5x RocksDB / 1.3x MatrixKV-8."
