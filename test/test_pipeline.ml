(* Tests for the staged compaction pipeline (Compaction.Pipeline): SPSC
   queue invariants (bound, FIFO, no loss, backpressure), the staged
   replay's overlap and its planted-bug legs (serial staging, dropped
   happens-before edge), the serial replay of synthetic compactions
   against the effect loop it replaced and the paper shapes Table III and
   Fig. 9 depend on, byte-identity of the pipelined engine against the
   serial one, and crash-site stage coverage. *)

module Pipeline = Compaction.Pipeline
module Co = Coroutine.Co
module Scheduler = Coroutine.Scheduler

let check = Alcotest.check

let with_sched ~cores f =
  let clock = Sim.Clock.create () in
  let des = Sim.Des.create clock in
  let ssd = Ssd.create clock in
  let sched =
    Scheduler.create ~cores ~policy:(Scheduler.default_flush_coroutine ()) des ssd
  in
  let r = f sched in
  ignore (Scheduler.run_to_completion sched);
  r

(* --- queue invariants --- *)

let test_queue_fifo_bounded () =
  let q = ref None in
  let received = ref [] in
  with_sched ~cores:2 (fun sched ->
      let queue =
        Pipeline.queue_create ~san:(Scheduler.sanitizer sched) ~name:"t.fifo"
          ~capacity:3 ()
      in
      q := Some queue;
      Scheduler.spawn ~name:"prod" sched 0 (fun () ->
          for i = 0 to 99 do
            Co.work 100.0;
            Pipeline.queue_push queue i
          done;
          Pipeline.queue_close queue);
      Scheduler.spawn ~name:"cons" sched 1 (fun () ->
          let rec loop () =
            match Pipeline.queue_pop queue with
            | None -> ()
            | Some v ->
                received := v :: !received;
                (* consumer slower than producer: the bound must hold *)
                Co.work 250.0;
                loop ()
          in
          loop ()));
  let queue = Option.get !q in
  check (Alcotest.list Alcotest.int) "fifo, nothing lost or reordered"
    (List.init 100 Fun.id) (List.rev !received);
  check Alcotest.bool "depth never exceeded capacity" true
    (Pipeline.queue_max_depth queue <= 3);
  check Alcotest.int "drained" 0 (Pipeline.queue_depth queue)

let test_queue_backpressure () =
  let q = ref None in
  with_sched ~cores:2 (fun sched ->
      let queue =
        Pipeline.queue_create ~san:(Scheduler.sanitizer sched) ~name:"t.bp"
          ~capacity:2 ()
      in
      q := Some queue;
      Scheduler.spawn ~name:"prod" sched 0 (fun () ->
          for i = 0 to 19 do
            Pipeline.queue_push queue i
          done;
          Pipeline.queue_close queue);
      Scheduler.spawn ~name:"cons" sched 1 (fun () ->
          let rec loop () =
            match Pipeline.queue_pop queue with
            | None -> ()
            | Some _ ->
                Co.work 10_000.0;
                loop ()
          in
          loop ()));
  let queue = Option.get !q in
  check Alcotest.bool "producer was made to wait" true
    (Pipeline.queue_wait_ns queue > 0.0);
  check Alcotest.bool "queue filled to its bound" true
    (Pipeline.queue_max_depth queue = 2)

let test_queue_handoff_race_free () =
  (* The per-item handoff latch orders every enqueue before its dequeue:
     schedsan must see the run as clean. *)
  let san =
    with_sched ~cores:2 (fun sched ->
        let queue =
          Pipeline.queue_create ~san:(Scheduler.sanitizer sched) ~name:"t.hb"
            ~capacity:4 ()
        in
        Scheduler.spawn ~name:"prod" sched 0 (fun () ->
            for i = 0 to 49 do
              Co.work 50.0;
              Pipeline.queue_push queue i
            done;
            Pipeline.queue_close queue);
        Scheduler.spawn ~name:"cons" sched 1 (fun () ->
            let rec loop () =
              match Pipeline.queue_pop queue with None -> () | Some _ -> loop ()
            in
            loop ());
        Scheduler.sanitizer sched)
  in
  match san with
  | None -> Alcotest.fail "schedsan not attached (Sanitize.Control disabled?)"
  | Some s ->
      check Alcotest.int "no races" 0 (Sanitize.Schedsan.races s);
      check Alcotest.int "no lost wakeups" 0 (Sanitize.Schedsan.lost_wakeups s)

(* --- the staged replay --- *)

let kib = 1024
let block = 256 * kib

let synthetic_recording () =
  let r = Pipeline.create_recording () in
  for _ = 1 to 8 do
    Pipeline.record_read r Pipeline.Ssd ~bytes:block
      ~cost_ns:(20_000.0 +. (0.45 *. float_of_int block))
  done;
  Pipeline.record_merge r ~cost_ns:2_000_000.0;
  Pipeline.record_build r ~cost_ns:3_000_000.0;
  for _ = 1 to 8 do
    Pipeline.record_write r Pipeline.Ssd ~bytes:block
      ~cost_ns:(25_000.0 +. (2.0 *. float_of_int block))
  done;
  r

let sim_config ~cores =
  {
    Pipeline.cores;
    queue_capacity = 4;
    block_bytes = block;
    q_max = 8;
    flush_reserve = 2;
    ssd_params = Ssd.default_params;
  }

let test_simulate_overlap () =
  let r = synthetic_recording () in
  let res = Pipeline.simulate (sim_config ~cores:4) r in
  let serial = Pipeline.serial_ns r in
  check Alcotest.bool "pipelined beats serial" true (res.Pipeline.makespan < serial);
  List.iter
    (fun (st : Pipeline.stage_stat) ->
      check Alcotest.bool
        (Printf.sprintf "stage %s did work" (Pipeline.stage_name st.Pipeline.s_stage))
        true
        (st.Pipeline.busy_ns > 0.0 && st.Pipeline.items > 0))
    res.Pipeline.stages;
  (* the makespan can never undercut the busiest stage *)
  let max_busy =
    List.fold_left
      (fun acc (st : Pipeline.stage_stat) -> Float.max acc st.Pipeline.busy_ns)
      0.0 res.Pipeline.stages
  in
  check Alcotest.bool "makespan bounded below by bottleneck stage" true
    (res.Pipeline.makespan >= max_busy);
  check Alcotest.int "replay race-free" 0 res.Pipeline.races;
  check Alcotest.int "no lost wakeups" 0 res.Pipeline.lost_wakeups;
  List.iter
    (fun (qname, depth) ->
      check Alcotest.bool (qname ^ " depth within bound") true (depth <= 4))
    res.Pipeline.queue_max_depths

let test_simulate_more_cores_never_slower () =
  let r = synthetic_recording () in
  let m1 = (Pipeline.simulate (sim_config ~cores:1) r).Pipeline.makespan in
  let m4 = (Pipeline.simulate (sim_config ~cores:4) r).Pipeline.makespan in
  check Alcotest.bool "4 cores at least as fast as 1" true (m4 <= m1)

let test_simulate_deterministic () =
  let r = synthetic_recording () in
  let a = Pipeline.simulate (sim_config ~cores:4) r in
  let b = Pipeline.simulate (sim_config ~cores:4) r in
  check (Alcotest.float 0.0) "same makespan" a.Pipeline.makespan b.Pipeline.makespan

let test_serial_plant_kills_speedup () =
  let r = synthetic_recording () in
  let res = Pipeline.simulate ~plant:Pipeline.Serial_stages (sim_config ~cores:4) r in
  check Alcotest.bool "serial staging shows no speedup" true
    (res.Pipeline.makespan >= Pipeline.serial_ns r)

let test_drop_hb_plant_caught () =
  (* Dropping the enqueue->dequeue happens-before edge must be reported
     as races by schedsan — proof the checker covers the queue handoffs. *)
  let r = synthetic_recording () in
  let res = Pipeline.simulate ~plant:Pipeline.Drop_hb (sim_config ~cores:4) r in
  check Alcotest.bool "dropped handoff edge detected" true (res.Pipeline.races > 0)

(* --- the serial replay of synthetic compactions --- *)

let qtest = QCheck_alcotest.to_alcotest
let thread = Scheduler.default_thread_like
let coroutine = Scheduler.default_cooperative
let pmblade = Scheduler.default_flush_coroutine ~q_max:4 ()

let harness_run ?(params = Pipeline.default_synthetic) ?(q_max = 4) policy ~tasks ~cores =
  Pipeline.replay_all ~policy ~cores (Pipeline.subtasks ~policy ~cores ~q_max ~tasks params)

(* The executor the serial replay replaced, kept as the reference: the
   S1/S2/S3 loop performed directly as effects, S2 one burst, S3 offloaded
   only under the flush coroutine and a blocking write otherwise. *)
let reference_compaction ~offload ~on_stage (p : Pipeline.synthetic) () =
  let rng = Util.Xoshiro.create p.seed in
  let entry_size = p.value_bytes + p.entry_overhead in
  let remaining = ref p.input_bytes in
  let write_fill = ref 0 in
  let staged name f =
    let t0 = Co.now () in
    f ();
    on_stage name t0 (Co.now ())
  in
  let emit bytes =
    if offload then staged "S3q" (fun () -> Co.offload_write bytes)
    else staged "S3" (fun () -> ignore (Co.write bytes))
  in
  while !remaining > 0 do
    let block = min p.read_block !remaining in
    remaining := !remaining - block;
    staged "S1" (fun () ->
        if Util.Xoshiro.float rng 1.0 < p.pm_input_fraction then
          Co.work (float_of_int block *. p.pm_read_ns_per_byte)
        else ignore (Co.read block));
    let entries = max 1 (block / entry_size) in
    staged "S2" (fun () ->
        Co.work
          ((float_of_int entries *. p.cpu_per_entry_ns)
          +. (float_of_int block *. p.cpu_per_byte_ns)));
    let dedup =
      let d = p.dedup_ratio +. ((Util.Xoshiro.float rng 2.0 -. 1.0) *. p.dedup_spread) in
      Float.max 0.0 (Float.min 0.95 d)
    in
    let survivors = int_of_float (float_of_int entries *. (1.0 -. dedup)) in
    write_fill := !write_fill + (survivors * entry_size);
    while !write_fill >= p.write_buffer do
      emit p.write_buffer;
      write_fill := !write_fill - p.write_buffer
    done
  done;
  if !write_fill > 0 then emit !write_fill

(* The reference harness: §V-C's subtask rule and per-unit seeds, the
   report and every stage span as (unit, stage, start, finish). *)
let reference_run ~policy ~cores ~q_max ~tasks (p : Pipeline.synthetic) =
  let clock = Sim.Clock.create () in
  let des = Sim.Des.create clock in
  let sched = Scheduler.create ~cores ~policy des (Ssd.create clock) in
  let offload, units =
    match policy with
    | Scheduler.Thread_like _ -> (false, tasks)
    | Cooperative _ -> (false, max tasks (max (q_max / cores) 1 * cores))
    | Flush_coroutine _ -> (true, max tasks (max (q_max / cores) 1 * cores))
  in
  let per_unit = p.input_bytes * tasks / units in
  let stage_of = function "S1" -> "read" | "S2" -> "merge" | _ -> "write" in
  let spans = ref [] in
  for i = 0 to units - 1 do
    let on_stage name t0 t1 = spans := (i, stage_of name, t0, t1) :: !spans in
    Scheduler.spawn ~name:(Printf.sprintf "compaction-%d" i) sched i
      (reference_compaction ~offload ~on_stage
         { p with input_bytes = per_unit; seed = p.seed + (31 * i) })
  done;
  let makespan = Scheduler.run_to_completion sched in
  (Scheduler.report sched ~makespan, List.rev !spans)

let replay_run ~policy ~cores ~q_max ~tasks p =
  let spans = ref [] in
  let on_stage i stage t0 t1 = spans := (i, Pipeline.stage_name stage, t0, t1) :: !spans in
  let report =
    Pipeline.replay_all ~on_stage ~policy ~cores
      (Pipeline.subtasks ~policy ~cores ~q_max ~tasks p)
  in
  (report, List.rev !spans)

let prop_replay_matches_reference =
  let gen =
    QCheck.Gen.(
      let* value_bytes = oneofl [ 32; 100; 256; 1024; 4096 ] in
      let* pm_input_fraction = float_range 0.0 1.0 in
      let* dedup_spread = float_range 0.0 0.5 in
      let* read_block = oneofl [ 16 * 1024; 64 * 1024; 256 * 1024 ] in
      let* write_buffer = oneofl [ 16 * 1024; 96 * 1024; 192 * 1024; 1024 * 1024 ] in
      let* input_kib = int_range 64 768 in
      let* cores = int_range 1 2 in
      let* tasks = int_range 1 5 in
      let* seed = int_range 0 1000 in
      return
        ( {
            Pipeline.default_synthetic with
            value_bytes;
            pm_input_fraction;
            dedup_spread;
            read_block;
            write_buffer;
            input_bytes = input_kib * 1024;
            seed;
          },
          cores,
          tasks ))
  in
  let print ((p : Pipeline.synthetic), cores, tasks) =
    Printf.sprintf
      "value %d, pm %.3f, spread %.3f, read block %d, write buffer %d, input %d, seed \
       %d, cores %d, tasks %d"
      p.value_bytes p.pm_input_fraction p.dedup_spread p.read_block p.write_buffer
      p.input_bytes p.seed cores tasks
  in
  QCheck.Test.make ~name:"serial replay = reference effect loop" ~count:40
    (QCheck.make ~print gen) (fun (p, cores, tasks) ->
      List.for_all
        (fun policy ->
          let q_max = 4 in
          let ref_report, ref_spans = reference_run ~policy ~cores ~q_max ~tasks p in
          let report, spans = replay_run ~policy ~cores ~q_max ~tasks p in
          let untraced = harness_run ~params:p ~q_max policy ~tasks ~cores in
          report = ref_report && untraced = ref_report && spans = ref_spans)
        [ thread; coroutine; pmblade ])

let test_harness_deterministic () =
  let r1 = harness_run thread ~tasks:2 ~cores:1 in
  let r2 = harness_run thread ~tasks:2 ~cores:1 in
  check (Alcotest.float 1e-9) "same makespan" r1.Scheduler.makespan r2.Scheduler.makespan;
  check (Alcotest.float 1e-9) "same cpu util" r1.cpu_utilization r2.cpu_utilization

let test_utilizations_bounded () =
  List.iter
    (fun policy ->
      let r = harness_run policy ~tasks:4 ~cores:2 in
      check Alcotest.bool "cpu in [0,1]" true
        (r.Scheduler.cpu_utilization >= 0.0 && r.cpu_utilization <= 1.0);
      check Alcotest.bool "io in [0,1]" true
        (r.io_utilization >= 0.0 && r.io_utilization <= 1.0);
      check Alcotest.bool "makespan positive" true (r.makespan > 0.0))
    [ thread; coroutine; pmblade ]

let test_subtask_count () =
  let units policy ~tasks =
    List.length
      (Pipeline.subtasks ~policy ~cores:2 ~q_max:4 ~tasks Pipeline.default_synthetic)
  in
  (* k = max(q/c, 1) = 2 subtasks per core -> 4 units *)
  check Alcotest.int "k*c units" 4 (units pmblade ~tasks:4);
  check Alcotest.int "threads: one unit per task" 3 (units thread ~tasks:3)

let test_pmblade_beats_thread () =
  (* Fig. 9's headline: the flush coroutine shortens compaction and lifts
     CPU utilization relative to OS threads. *)
  let t = harness_run thread ~tasks:4 ~cores:2 in
  let p = harness_run pmblade ~tasks:4 ~cores:2 in
  check Alcotest.bool "shorter makespan" true (p.Scheduler.makespan < t.Scheduler.makespan);
  check Alcotest.bool "higher cpu utilization" true (p.cpu_utilization > t.cpu_utilization)

let test_coroutine_between_thread_and_pmblade () =
  let cpu policy = (harness_run policy ~tasks:4 ~cores:2).Scheduler.cpu_utilization in
  check Alcotest.bool "coroutine >= thread on cpu" true (cpu coroutine >= cpu thread);
  check Alcotest.bool "pmblade >= coroutine on cpu" true (cpu pmblade >= cpu coroutine)

(* Table III's shape: the same total work split over [n] threads on one
   core. *)
let fixed_work n =
  harness_run thread ~tasks:n ~cores:1
    ~params:{ Pipeline.default_synthetic with input_bytes = 4 * 1024 * 1024 / n }

let test_more_threads_more_io_latency () =
  (* Table III's I/O latency column: concurrency raises per-request latency. *)
  let latency n = (fixed_work n).Scheduler.io_mean_latency in
  check Alcotest.bool "latency grows 1 -> 4 threads" true (latency 4 > latency 1)

let test_fixed_work_speedup () =
  (* Table III's speed-up column: same total work, more threads, bounded
     speed-up that saturates. *)
  let makespan n = (fixed_work n).Scheduler.makespan in
  let m1 = makespan 1 and m2 = makespan 2 and m4 = makespan 4 in
  check Alcotest.bool "2 threads faster than 1" true (m2 < m1);
  check Alcotest.bool "speedup bounded by 2.5x" true (m1 /. m4 < 2.5)

let test_value_size_shifts_bottleneck () =
  (* Fig. 9b: larger values push I/O utilization up. *)
  let io_util value_bytes =
    (harness_run pmblade ~tasks:4 ~cores:2
       ~params:{ Pipeline.default_synthetic with value_bytes })
      .Scheduler.io_utilization
  in
  check Alcotest.bool "64K values more IO-bound than 32B" true (io_util 65536 > io_util 32)

(* --- engine integration --- *)

let small cfg =
  {
    cfg with
    Core.Config.memtable_bytes = 4 * 1024;
    l0_run_table_bytes = 8 * 1024;
    level_base_bytes = 64 * 1024;
    sstable_target_bytes = 16 * 1024;
  }

let run_workload cfg ~ops =
  let eng = Core.Engine.create cfg in
  let rng = Util.Xoshiro.create 23 in
  for _ = 1 to ops do
    (match Util.Xoshiro.int rng 10 with
    | 0 ->
        Core.Engine.delete eng
          (Util.Keys.record_key ~table_id:1 ~row_id:(Util.Xoshiro.int rng 400))
    | _ ->
        Core.Engine.put eng
          ~key:(Util.Keys.record_key ~table_id:1 ~row_id:(Util.Xoshiro.int rng 400))
          (Util.Xoshiro.string rng 64));
    ignore
      (Core.Engine.get eng
         (Util.Keys.record_key ~table_id:1 ~row_id:(Util.Xoshiro.int rng 400)))
  done;
  Core.Engine.force_major_compaction eng;
  eng

let test_pipeline_byte_identity () =
  (* The staged data plane is the serial one: same bytes on both media,
     same structures, same answers — only the clock differs. A
     size-triggered (Conventional) strategy keeps the compaction
     *schedule* time-independent too, so the whole trajectory is
     byte-identical; under the cost-based strategy the rebated clock can
     legitimately shift reads-per-second windows and with them when (not
     what) compactions run. *)
  let cfg on = { (small Core.Config.pmb_p) with Core.Config.pipeline_compaction = on } in
  let on = run_workload (cfg true) ~ops:2500 in
  let off = run_workload (cfg false) ~ops:2500 in
  let scan e = Core.Engine.scan_range e ~start:"" ~stop:"\xff\xff\xff\xff" in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "identical scans" (scan off) (scan on);
  check Alcotest.int "identical SSD bytes written" (Core.Engine.ssd_bytes_written off)
    (Core.Engine.ssd_bytes_written on);
  check Alcotest.int "identical PM bytes written" (Core.Engine.pm_bytes_written off)
    (Core.Engine.pm_bytes_written on);
  let tot = Core.Engine.pipeline_stats on in
  check Alcotest.bool "pipeline actually ran" true (tot.Pipeline.runs > 0);
  check Alcotest.bool "overlap rebate earned" true (tot.Pipeline.rebate_total_ns > 0.0);
  check Alcotest.int "replays race-free" 0 tot.Pipeline.races_total;
  let off_tot = Core.Engine.pipeline_stats off in
  check Alcotest.int "serial engine never replays" 0 off_tot.Pipeline.runs;
  (* the rebate must show up as cheaper compactions on the same workload *)
  let time e = (Core.Engine.metrics e).Core.Metrics.major_compaction_time in
  check Alcotest.bool "pipelined majors cheaper" true (time on < time off)

let test_crash_sites_tagged_by_stage () =
  (* Device fault hooks observe the stage whose section issued the I/O, so
     a crash sweep can attribute every site to a pipeline stage. A major
     compaction with SSD levels populated must reach sites in both the
     read stage (input SSTables) and the write stage (output builds). *)
  let cfg = { (small Core.Config.pmblade) with Core.Config.pipeline_compaction = true } in
  let eng = run_workload cfg ~ops:2500 in
  let rng = Util.Xoshiro.create 77 in
  for i = 0 to 800 do
    Core.Engine.put eng
      ~key:(Util.Keys.record_key ~table_id:1 ~row_id:i)
      (Util.Xoshiro.string rng 64)
  done;
  let seen = Hashtbl.create 8 in
  let note () =
    match Pipeline.current_stage () with
    | Some s -> Hashtbl.replace seen (Pipeline.stage_name s) true
    | None -> ()
  in
  let ssd = Core.Engine.ssd eng in
  Ssd.set_read_hook ssd
    (Some
       (fun ~file_id:_ ~len:_ ->
         note ();
         Ssd.Io_ok));
  Ssd.set_write_hook ssd
    (Some
       (fun ~file_id:_ ~len:_ ->
         note ();
         Ssd.Io_ok));
  Core.Engine.force_major_compaction eng;
  Ssd.set_read_hook ssd None;
  Ssd.set_write_hook ssd None;
  check Alcotest.bool "read-stage crash sites reachable" true
    (Hashtbl.mem seen "read");
  check Alcotest.bool "write-stage crash sites reachable" true
    (Hashtbl.mem seen "write")

let test_sweep_sites_invariant_under_pipeline () =
  (* Staging must not move, add or drop crash sites: the sweep's site
     count over the same seeded workload is identical with the pipeline
     on and off, and both sweeps come back clean. *)
  let durable on =
    {
      (small Core.Config.pmblade) with
      Core.Config.durable = true;
      pipeline_compaction = on;
    }
  in
  let sweep_config on = Shard.Sweep.config ~seed:7 ~ops:120 (durable on) in
  let cfg_on = sweep_config true and cfg_off = sweep_config false in
  let sites_on = Shard.Sweep.count_sites cfg_on in
  let sites_off = Shard.Sweep.count_sites cfg_off in
  check Alcotest.int "same crash sites either way" sites_off sites_on;
  (* spot-check a few legs of the pipelined sweep end to end *)
  List.iter
    (fun n ->
      let p = Shard.Sweep.run_crash_at cfg_on (n mod max 1 sites_on) in
      check Alcotest.bool
        (Printf.sprintf "leg %d recovered clean" n)
        true
        (p.Shard.Sweep.recovered && p.violations = []))
    [ 3; sites_on / 2; sites_on - 2 ]

let () =
  Alcotest.run "pipeline"
    [
      ( "queues",
        [
          Alcotest.test_case "fifo bounded" `Quick test_queue_fifo_bounded;
          Alcotest.test_case "backpressure" `Quick test_queue_backpressure;
          Alcotest.test_case "handoff race-free" `Quick test_queue_handoff_race_free;
        ] );
      ( "replay",
        [
          Alcotest.test_case "overlap" `Quick test_simulate_overlap;
          Alcotest.test_case "cores monotone" `Quick test_simulate_more_cores_never_slower;
          Alcotest.test_case "deterministic" `Quick test_simulate_deterministic;
          Alcotest.test_case "serial plant" `Quick test_serial_plant_kills_speedup;
          Alcotest.test_case "drop-hb plant caught" `Quick test_drop_hb_plant_caught;
        ] );
      ( "harness",
        [
          Alcotest.test_case "deterministic" `Quick test_harness_deterministic;
          Alcotest.test_case "utilizations bounded" `Quick test_utilizations_bounded;
          Alcotest.test_case "subtask count" `Quick test_subtask_count;
          qtest prop_replay_matches_reference;
        ] );
      ( "paper shapes",
        [
          Alcotest.test_case "pmblade beats thread" `Quick test_pmblade_beats_thread;
          Alcotest.test_case "coroutine in between" `Quick test_coroutine_between_thread_and_pmblade;
          Alcotest.test_case "io latency grows with threads" `Quick test_more_threads_more_io_latency;
          Alcotest.test_case "bounded speedup" `Quick test_fixed_work_speedup;
          Alcotest.test_case "value size shifts bottleneck" `Quick test_value_size_shifts_bottleneck;
        ] );
      ( "engine",
        [
          Alcotest.test_case "byte identity" `Quick test_pipeline_byte_identity;
          Alcotest.test_case "crash sites per stage" `Quick test_crash_sites_tagged_by_stage;
          Alcotest.test_case "sweep sites invariant" `Quick
            test_sweep_sites_invariant_under_pipeline;
        ] );
    ]
