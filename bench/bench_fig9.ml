(* Fig. 9 — coroutine-based compaction (§VI-C): CPU utilization, I/O device
   utilization, mean I/O latency and compaction duration across value
   sizes, for the Thread / Coroutine / PMBlade schedulers. The paper's
   configuration: 2 GB of data (scaled to 2 MB per task here), 4 compaction
   tasks, 2 cores, maximum I/O concurrency 4.

   Floors: at every value size CPU utilization orders PMBlade > Coroutine >
   Thread (9a) and compaction duration PMBlade < Coroutine < Thread (9d).
   Fig. 9b's and 9c's PMBlade orderings do not hold at every size; they
   stay printed deviations. PMB_PLANT=no_flush_coroutine runs the PMBlade
   leg under the cooperative policy, so it ties Coroutine and the floors
   must fail. *)

module Scheduler = Coroutine.Scheduler

let value_sizes = [ 32; 64; 128; 256; 512; 1024 ]
let q_max = 4

let policies () =
  let pmblade =
    if Sys.getenv_opt "PMB_PLANT" = Some "no_flush_coroutine" then
      Scheduler.default_cooperative
    else Scheduler.default_flush_coroutine ~q_max ()
  in
  [
    ("Thread", Scheduler.default_thread_like);
    ("Coroutine", Scheduler.default_cooperative);
    ("PMBlade", pmblade);
  ]

let run_one policy value_bytes =
  let cores = 2 in
  Compaction.Pipeline.replay_all ~policy ~cores
    (Compaction.Pipeline.subtasks ~policy ~cores ~q_max ~tasks:4
       {
         Compaction.Pipeline.default_synthetic with
         value_bytes;
         input_bytes = 2 * 1024 * 1024;
       })

let run () =
  let results =
    List.map
      (fun (name, policy) ->
        (name, List.map (fun v -> (v, run_one policy v)) value_sizes))
      (policies ())
  in
  let series title extract fmt =
    Report.heading title;
    Report.table
      ~header:("scheduler" :: List.map (fun v -> Printf.sprintf "%dB" v) value_sizes)
      (List.map
         (fun (name, per_size) ->
           name :: List.map (fun (_, r) -> fmt (extract r)) per_size)
         results)
  in
  (* [better a b]: [a] beats [b] at every value size *)
  let ordered what extract better =
    let at name v = extract (List.assoc v (List.assoc name results)) in
    List.for_all
      (fun v ->
        better (at "PMBlade" v) (at "Coroutine" v)
        && better (at "Coroutine" v) (at "Thread" v))
      value_sizes
    |> Report.require (what ^ " at every value size")
  in
  series "Fig 9a: CPU utilization during major compaction"
    (fun r -> r.Scheduler.cpu_utilization)
    Report.pct;
  Report.note "paper: PMBlade ~23%% above Thread and ~14%% above Coroutine at 256B.";
  ordered "fig9a CPU utilization PMBlade > Coroutine > Thread"
    (fun r -> r.Scheduler.cpu_utilization)
    ( > );
  series "Fig 9b: I/O device utilization"
    (fun r -> r.Scheduler.io_utilization)
    Report.pct;
  Report.note "paper: PMBlade ~35%% above Thread at 32B; near 100%% past 128B.";
  series "Fig 9c: mean I/O latency"
    (fun r -> r.Scheduler.io_mean_latency)
    Report.ms;
  Report.note "paper: PMBlade lowest (about 66%% of Thread at 512B) - q_flush";
  Report.note "admission avoids bursty concurrent writes.";
  series "Fig 9d: compaction duration"
    (fun r -> r.Scheduler.makespan)
    Report.ms;
  Report.note "paper: PMBlade ~71%% of Thread and ~80%% of Coroutine at 64B.";
  ordered "fig9d duration PMBlade < Coroutine < Thread"
    (fun r -> r.Scheduler.makespan)
    ( < )
