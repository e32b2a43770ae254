(* Fig. 4 — behaviours of different compaction processes, rendered from
   actual execution. Two compaction coroutines share one core and the SSD;
   each row is one coroutine's timeline bucketed at a fixed resolution:

     1  reading an input block (S1)
     2  merging (S2)
     3  writing, blocked on the device (S3)
     .  idle / waiting

   Under synchronous writes (Fig. 4b/4c) the erratic write-buffer fill cuts
   S2 into fragments and both coroutines end up blocked in S3 together —
   the wasted CPU the paper points at. Under the flush coroutine (Fig. 4d)
   S3 never clips S2 ('q' marks the instantaneous hand-off) and the
   timelines stay dense. *)

module Pipeline = Compaction.Pipeline

type span = { task : int; mark : char; t0 : float; t1 : float }

let run_traced ~offload =
  let policy =
    if offload then Coroutine.Scheduler.default_flush_coroutine ~q_max:4 ()
    else Coroutine.Scheduler.default_cooperative
  in
  let spans = ref [] in
  let mark = function
    | Pipeline.Read -> '1'
    | Merge | Build -> '2'
    | Write -> if offload then 'q' else '3'
  in
  let on_stage task stage t0 t1 = spans := { task; mark = mark stage; t0; t1 } :: !spans in
  let report =
    Pipeline.replay_all ~policy ~cores:1 ~on_stage
      ~ssd_params:{ Ssd.default_params with Ssd.channels = 1 }
      (List.init 2 (fun task ->
           Pipeline.synthesize
             {
               Pipeline.default_synthetic with
               input_bytes = 1024 * 1024;
               value_bytes = 256;
               read_block = 128 * 1024;
               write_buffer = 192 * 1024;
               pm_input_fraction = 1.0;
               dedup_spread = 0.3;
               seed = 7 + (31 * task);
             }))
  in
  (List.rev !spans, report.Coroutine.Scheduler.makespan, report)

let render ~title spans makespan =
  Printf.printf "\n%s (makespan %.2f ms)\n" title (makespan /. 1e6);
  let columns = 96 in
  let bucket = makespan /. float_of_int columns in
  for task = 0 to 1 do
    let line = Bytes.make columns '.' in
    List.iter
      (fun s ->
        if s.task = task then begin
          let c0 = int_of_float (s.t0 /. bucket) in
          let c1 = int_of_float (s.t1 /. bucket) in
          for c = max 0 c0 to min (columns - 1) (max c0 c1) do
            (* later stages overwrite idle, never a previous stage's mark,
               except the instantaneous hand-off which must stay visible *)
            if Bytes.get line c = '.' || s.mark = 'q' then Bytes.set line c s.mark
          done
        end)
      spans;
    Printf.printf "  coroutine-%d |%s|\n" (task + 1) (Bytes.to_string line)
  done

let run () =
  Report.heading "Fig 4: compaction process behaviour (rendered from execution)";
  let spans_sync, makespan_sync, report_sync = run_traced ~offload:false in
  render ~title:"synchronous S3 (Fig. 4b/4c: fragments, shared blocking)" spans_sync
    makespan_sync;
  let spans_flush, makespan_flush, report_flush = run_traced ~offload:true in
  render ~title:"flush coroutine + q_flush (Fig. 4d)" spans_flush makespan_flush;
  Report.note "paper: S3 cuts S2 into fragments and both coroutines end up";
  Report.note "blocked in S3 together (the '3' runs overlapping across rows);";
  Report.note "the flush coroutine removes every cut ('q' hand-offs).";
  Report.note "measured CPU utilization: %.0f%% -> %.0f%% (tail = device drain)"
    (100. *. report_sync.Coroutine.Scheduler.cpu_utilization)
    (100. *. report_flush.Coroutine.Scheduler.cpu_utilization)
