(* Table III — resource utilization of compaction scheduled by OS threads:
   a fixed amount of compaction work split over 1..5 threads pinned to a
   single core. Speed-up saturates well below the thread count, both the
   CPU and the I/O device stay substantially idle, and per-request I/O
   latency climbs with concurrency.

   Floors: speed-up in (1, 2.5) at 2-5 threads, CPU idleness at 5 threads
   below 1 thread, and I/O latency at 4 and 5 threads above 1 thread. *)

module Scheduler = Coroutine.Scheduler

let total_work = 8 * 1024 * 1024

let run () =
  Report.heading "Table III: compaction with multi-threads (1 core)";
  let policy = Scheduler.default_thread_like in
  let reports =
    List.map
      (fun threads ->
        ( threads,
          Compaction.Pipeline.replay_all ~policy ~cores:1
            (Compaction.Pipeline.subtasks ~policy ~cores:1 ~q_max:4 ~tasks:threads
               {
                 Compaction.Pipeline.default_synthetic with
                 input_bytes = total_work / threads;
                 pm_input_fraction = 0.0;
               }) ))
      [ 1; 2; 3; 4; 5 ]
  in
  let at threads = List.assoc threads reports in
  let speedup threads = (at 1).Scheduler.makespan /. (at threads).Scheduler.makespan in
  let rows =
    List.map
      (fun (threads, (r : Scheduler.report)) ->
        [
          string_of_int threads;
          Report.ratio (speedup threads);
          Report.pct r.cpu_idleness;
          Report.pct r.io_idleness;
          Report.ms r.io_mean_latency;
        ])
      reports
  in
  Report.table
    ~header:[ "threads"; "time speed up"; "CPU idleness"; "I/O idleness"; "I/O latency" ]
    rows;
  Report.note "paper: speedup 1x->1.9x saturating, CPU idle 43->30%%, I/O idle";
  Report.note "47->37%%, I/O latency 3.9->10.9ms rising with concurrency.";
  Report.require "table3 speed-up in (1, 2.5) at 2-5 threads"
    (List.for_all (fun n -> speedup n > 1.0 && speedup n < 2.5) [ 2; 3; 4; 5 ]);
  Report.require "table3 CPU idleness at 5 threads below 1 thread"
    ((at 5).Scheduler.cpu_idleness < (at 1).Scheduler.cpu_idleness);
  Report.require "table3 I/O latency at 4 and 5 threads above 1 thread"
    (List.for_all
       (fun n -> (at n).Scheduler.io_mean_latency > (at 1).Scheduler.io_mean_latency)
       [ 4; 5 ])
