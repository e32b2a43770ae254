(* Fig. 7 — read performance under internal compaction (§VI-B).

   (a) Level-0 read latency as data accumulates, 50% read / 50% write, for
       PMBlade (internal compaction), PMBlade-PM (PM level-0, no internal
       compaction) and PMBlade-SSD (conventional SSD level-0). PMBlade's
       latency stays flat; the other two grow with the unsorted table
       count / SSD depth.

   (b) Read latency while a compaction is in flight: client reads share the
       device with the compaction's I/O, so avg and p99.9 rise — mildly for
       the PM-internal compaction, brutally for the SSD one. Modelled on
       the discrete-event scheduler with a client coroutine issuing point
       reads against the same device the compaction writes. *)

let passive_strategy = Core.Config.Conventional { max_tables = None; max_bytes = None }

let fig7a () =
  Report.heading "Fig 7a: level-0 read latency vs accumulated data (50r/50w)";
  let value_bytes = 256 in
  let checkpoints = [ 1; 2; 4; 8 ] in
  (* in MB written *)
  let run_config (cfg : Core.Config.t) =
    (* For the no-internal-compaction variants, let level-0 grow unbounded
       so read amplification shows; PMBlade keeps its cost models. *)
    Report.note_config cfg;
    let eng = Core.Engine.create cfg in
    let rng = Util.Xoshiro.create 7 in
    let keyspace = 20_000 in
    let written = ref 0 in
    let metrics = Core.Engine.metrics eng in
    List.map
      (fun target_mb ->
        let target = target_mb * 1024 * 1024 in
        while !written < target do
          let key = Util.Keys.ycsb_key (Util.Xoshiro.int rng keyspace) in
          Core.Engine.put ~update:true eng ~key (Util.Xoshiro.string rng value_bytes);
          written := !written + value_bytes + 32;
          ignore (Core.Engine.get eng (Util.Keys.ycsb_key (Util.Xoshiro.int rng keyspace)))
        done;
        Util.Histogram.reset metrics.Core.Metrics.read_latency;
        for _ = 1 to 300 do
          ignore (Core.Engine.get eng (Util.Keys.ycsb_key (Util.Xoshiro.int rng keyspace)))
        done;
        Report.us (Util.Histogram.mean metrics.Core.Metrics.read_latency))
      checkpoints
  in
  let pmblade = run_config Core.Config.pmblade in
  let pmblade_pm =
    run_config { Core.Config.pmblade_pm with Core.Config.l0_strategy = passive_strategy }
  in
  let pmblade_ssd =
    run_config
      { Core.Config.pmblade_ssd with
        Core.Config.l0_strategy = Core.Config.Conventional { max_tables = Some 64; max_bytes = None } }
  in
  Report.table
    ~header:("system" :: List.map (fun mb -> Printf.sprintf "%d MB" mb) checkpoints)
    [ "PMBlade" :: pmblade; "PMBlade-PM" :: pmblade_pm; "PMBlade-SSD" :: pmblade_ssd ];
  Report.note "paper: PMBlade stays low (up to 82%% below PMBlade-PM); the";
  Report.note "no-internal-compaction variants climb as level-0 accumulates."

(* A client coroutine issuing point reads with think time against the same
   device an optional compaction is writing; interference (reads queueing
   behind compaction I/O) produces the avg and tail inflation. *)
let latency_during ~device_params ~write_buffer ~with_compaction ~offload =
  let clock = Sim.Clock.create () in
  let des = Sim.Des.create clock in
  let dev = Ssd.create ~params:device_params clock in
  let policy =
    (* PM writes are admitted under a small q so foreground reads rarely
       queue behind more than one flush chunk. *)
    if offload then Coroutine.Scheduler.default_flush_coroutine ~q_max:2 ()
    else Coroutine.Scheduler.default_thread_like
  in
  let sched = Coroutine.Scheduler.create ~cores:2 ~policy des dev in
  let hist = Util.Histogram.create () in
  let reads = 400 in
  Coroutine.Scheduler.spawn sched 0 (fun () ->
      for _ = 1 to reads do
        let latency = Coroutine.Co.read 4096 in
        Util.Histogram.record hist latency;
        Coroutine.Co.work (Sim.Clock.us 20.0)
      done);
  if with_compaction then
    Coroutine.Scheduler.spawn sched 1
      (Compaction.Pipeline.replay
         (Compaction.Pipeline.synthesize
            {
              Compaction.Pipeline.default_synthetic with
              input_bytes = 16 * 1024 * 1024;
              value_bytes = 1024;
              write_buffer;
              read_block = 2 * write_buffer;
              pm_input_fraction = (if offload then 1.0 else 0.0);
            }));
  ignore (Coroutine.Scheduler.run_to_completion sched);
  (Util.Histogram.mean hist, Util.Histogram.percentile hist 99.9)

let fig7b () =
  Report.heading "Fig 7b: read latency during an in-flight compaction";
  (* PMBlade: reads and internal compaction both on the PM device; the
     queued-device model runs with PM-like service times. *)
  let pm_like =
    {
      Ssd.default_params with
      Ssd.read_latency_ns = 400.0;
      write_latency_ns = 800.0;
      read_byte_ns = 0.35;
      write_byte_ns = 1.0;
      channels = 1;
    }
  in
  let ssd_like = { Ssd.default_params with Ssd.channels = 1 } in
  (* PM writes are persisted in small buffered chunks; the SSD flushes a
     RocksDB-scale write buffer. *)
  let pm_chunk = 32 * 1024 and ssd_chunk = 128 * 1024 in
  let rows =
    [
      ( "PMBlade",
        latency_during ~device_params:pm_like ~write_buffer:pm_chunk ~with_compaction:true
          ~offload:true );
      ( "PMBlade-noComp",
        latency_during ~device_params:pm_like ~write_buffer:pm_chunk ~with_compaction:false
          ~offload:true );
      ( "PMBlade-SSD",
        latency_during ~device_params:ssd_like ~write_buffer:ssd_chunk ~with_compaction:true
          ~offload:false );
      ( "PMBlade-SSD-noComp",
        latency_during ~device_params:ssd_like ~write_buffer:ssd_chunk ~with_compaction:false
          ~offload:false );
    ]
  in
  Report.table
    ~header:[ "configuration"; "avg read latency"; "p99.9 read latency" ]
    (List.map (fun (name, (avg, p999)) -> [ name; Report.us avg; Report.us p999 ]) rows);
  Report.note "paper: compaction lifts PMBlade avg ~1.7x and p99.9 ~5.3x over";
  Report.note "noComp, yet stays at ~23%%/21%% of the SSD configuration."
