(* Pipelined compaction: staged read/merge/build/write overlap vs the
   Table III serial baseline.

   One synthetic compaction (Pipeline.synthesize, all input on the SSD)
   is replayed two ways. The serial side is its Thread replay on one core
   — the exact Table III threads=1 configuration. The pipelined side is
   Compaction.Pipeline.simulate of the same recording at 1, 2 and 4
   cores, which reports speedup, bottleneck-core CPU idleness, device
   idleness and queue behaviour.

   The run fails its own floors on a 4-core speedup under 1.8x, a stage
   with no busy time, idleness not below the serial run, or sanitizer
   findings in the replay. PMB_PLANT=serial_pipeline switches the replay
   to the Serial_stages plant (stages gate on their predecessor
   draining), which the speedup floor must catch as speedup <= 1. *)

module Pipeline = Compaction.Pipeline

let total_work = 8 * 1024 * 1024
let core_points = [ 1; 2; 4 ]

let planted () =
  match Sys.getenv_opt "PMB_PLANT" with
  | Some "serial_pipeline" -> true
  | _ -> false

let sim_config ~cores = { Pipeline.default_sim_config with cores }

let stage_busy (res : Pipeline.result) stage =
  match
    List.find_opt (fun s -> s.Pipeline.s_stage = stage) res.Pipeline.stages
  with
  | Some s -> s.Pipeline.busy_ns
  | None -> 0.0

(* The pipeline never runs a stage on more than one core, so aggregate
   idleness over all cores undersells the overlap; the honest CPU figure
   is the bottleneck core's idle share. *)
let bottleneck_idle (res : Pipeline.result) =
  let busiest =
    List.fold_left
      (fun acc s -> Float.max acc s.Pipeline.busy_ns)
      0.0 res.Pipeline.stages
  in
  if res.Pipeline.makespan <= 0.0 then 0.0
  else Float.max 0.0 (1.0 -. (busiest /. res.Pipeline.makespan))

let run () =
  Report.heading
    "Pipelined compaction: staged overlap vs Table III serial baseline";
  Report.note_config Core.Config.pmblade;
  let plant = if planted () then Pipeline.Serial_stages else Pipeline.No_plant in
  if planted () then
    Report.note "PLANTED regression active: stages forced serial";
  let recording =
    Pipeline.synthesize
      { Pipeline.default_synthetic with input_bytes = total_work; pm_input_fraction = 0.0 }
  in
  let serial =
    Pipeline.replay_all ~policy:Coroutine.Scheduler.default_thread_like ~cores:1 [ recording ]
  in
  Report.note "serial (Table III, 1 thread): makespan %s, CPU idle %s, IO idle %s"
    (Report.ms serial.Coroutine.Scheduler.makespan)
    (Report.pct serial.Coroutine.Scheduler.cpu_idleness)
    (Report.pct serial.Coroutine.Scheduler.io_idleness);
  Report.note "recorded serial token sum: %s over %d read blocks"
    (Report.ms (Pipeline.serial_ns recording))
    (total_work / Pipeline.default_synthetic.Pipeline.read_block);
  let results =
    List.map (fun cores -> (cores, Pipeline.simulate ~plant (sim_config ~cores) recording)) core_points
  in
  Report.table
    ~header:
      [ "cores"; "makespan"; "speedup"; "cpu idle*"; "io idle"; "q wait"; "races" ]
    (List.map
       (fun (cores, res) ->
         [
           string_of_int cores;
           Report.ms res.Pipeline.makespan;
           Report.ratio (serial.Coroutine.Scheduler.makespan /. res.Pipeline.makespan);
           Report.pct (bottleneck_idle res);
           Report.pct res.Pipeline.sched.Coroutine.Scheduler.io_idleness;
           Report.ms res.Pipeline.queue_wait_total_ns;
           string_of_int res.Pipeline.races;
         ])
       results);
  Report.note "cpu idle* = bottleneck-core idleness (stages are single-core)";
  let res4 = List.assoc 4 results in
  Report.table
    ~header:[ "stage"; "busy"; "wait"; "items"; "busy/makespan" ]
    (List.map
       (fun s ->
         [
           Pipeline.stage_name s.Pipeline.s_stage;
           Report.ms s.Pipeline.busy_ns;
           Report.ms s.Pipeline.wait_ns;
           string_of_int s.Pipeline.items;
           Report.pct (s.Pipeline.busy_ns /. res4.Pipeline.makespan);
         ])
       res4.Pipeline.stages);
  List.iter
    (fun (q, d) -> Report.note "queue %s high-water depth: %d" q d)
    res4.Pipeline.queue_max_depths;
  let speedup_at cores =
    let res = List.assoc cores results in
    serial.Coroutine.Scheduler.makespan /. res.Pipeline.makespan
  in
  Report.record_metric "pipeline.serial_makespan_ns"
    serial.Coroutine.Scheduler.makespan;
  Report.record_metric "pipeline.serial_cpu_idle"
    serial.Coroutine.Scheduler.cpu_idleness;
  Report.record_metric "pipeline.serial_io_idle"
    serial.Coroutine.Scheduler.io_idleness;
  List.iter
    (fun (cores, res) ->
      Report.record_metric
        (Printf.sprintf "pipeline.speedup%d" cores)
        (speedup_at cores);
      Report.record_metric
        (Printf.sprintf "pipeline.makespan%d_ns" cores)
        res.Pipeline.makespan)
    results;
  Report.record_metric "pipeline.cpu_idle4" (bottleneck_idle res4);
  Report.record_metric "pipeline.io_idle4"
    res4.Pipeline.sched.Coroutine.Scheduler.io_idleness;
  Report.record_metric "pipeline.queue_wait4_ns" res4.Pipeline.queue_wait_total_ns;
  Report.record_metric "pipeline.races4" (float_of_int res4.Pipeline.races);
  Report.record_metric "pipeline.lost_wakeups4"
    (float_of_int res4.Pipeline.lost_wakeups);
  let speedup4 = speedup_at 4 in
  Report.require
    (Printf.sprintf "4-core pipeline speedup %.3f >= 1.8" speedup4)
    (speedup4 >= 1.8);
  List.iter
    (fun stage ->
      let busy = stage_busy res4 stage in
      Report.require
        (Printf.sprintf "%s stage busy %.0f ns > 0" (Pipeline.stage_name stage) busy)
        (busy > 0.0))
    [ Pipeline.Read; Pipeline.Merge; Pipeline.Build; Pipeline.Write ];
  let cpu_idle = bottleneck_idle res4
  and serial_cpu_idle = serial.Coroutine.Scheduler.cpu_idleness in
  Report.require
    (Printf.sprintf "4-core CPU idleness %.4f < serial %.4f" cpu_idle serial_cpu_idle)
    (cpu_idle < serial_cpu_idle);
  let io_idle = res4.Pipeline.sched.Coroutine.Scheduler.io_idleness
  and serial_io_idle = serial.Coroutine.Scheduler.io_idleness in
  Report.require
    (Printf.sprintf "4-core I/O idleness %.4f < serial %.4f" io_idle serial_io_idle)
    (io_idle < serial_io_idle);
  Report.require
    (Printf.sprintf "replay races %d = 0 and lost wakeups %d = 0"
       res4.Pipeline.races res4.Pipeline.lost_wakeups)
    (res4.Pipeline.races = 0 && res4.Pipeline.lost_wakeups = 0)
