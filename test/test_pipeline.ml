(* Tests for the staged compaction pipeline (Compaction.Pipeline): SPSC
   queue invariants (bound, FIFO, no loss, backpressure), the staged
   replay's overlap and its planted-bug legs (serial staging, dropped
   happens-before edge), byte-identity of the pipelined engine against
   the serial one, and crash-site stage coverage. *)

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
  Pipeline.record_merge r ~entries:8_000 ~cost_ns:2_000_000.0;
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
      ( "engine",
        [
          Alcotest.test_case "byte identity" `Quick test_pipeline_byte_identity;
          Alcotest.test_case "crash sites per stage" `Quick test_crash_sites_tagged_by_stage;
          Alcotest.test_case "sweep sites invariant" `Quick
            test_sweep_sites_invariant_under_pipeline;
        ] );
    ]
