(* Scheduling of compaction coroutines over simulated cores and the SSD.

   Three policies, matching the configurations of §VI-C:

   - [Thread_like]: one schedulable unit per task, synchronous I/O (the
     unit blocks until completion), preemptive round-robin time slices with
     an OS-scale context-switch cost, and a wakeup delay between an I/O
     completing and the blocked unit becoming runnable. This is the
     RocksDB-style baseline.

   - [Cooperative]: basic coroutines — switch to another coroutine whenever
     one performs I/O; cheap switches, no preemption, no admission control.

   - [Flush_coroutine]: the paper's method. Each worker owns its own flush
     queue and flush coroutine (not a single shared queue: offloaded S3
     writes stay with the worker that produced them) that takes over all
     S3 writes ([Co.offload_write] returns immediately, so S2 is never
     clipped by S3), and writes are admitted to the device only while

       q_flush = q_max - q_comp - q_cli > 0

     i.e. while total outstanding I/O pressure stays under the user cap.
     [pump_flush] re-evaluates the budget at every scheduling decision and
     I/O completion, across all workers' queues.

   Compaction.Pipeline extends this admission policy to its staged
   read/merge/build/write pipeline: the read stage's prefetch I/O is
   admitted only while in-flight requests stay under
   q_max - flush_reserve, so the reserved headroom guarantees the
   flush coroutine (and the write stage behind it) always finds q_flush > 0
   and never starves behind a deep prefetch pipeline. The per-stage quota
   logic lives in lib/compaction/pipeline.ml; this scheduler only exposes
   the live [q_flush]/[Ssd.in_flight] figures it arbitrates with.

   A worker models one core: it executes one continuation at a time, Work
   effects occupy it for their duration via a DES event, Io effects suspend
   the continuation and free it. CPU busy/idle accounting feeds Table III
   and Fig. 9a. *)

type policy =
  | Thread_like of { time_slice : float; switch_cost : float; wakeup_delay : float }
  | Cooperative of { switch_cost : float }
  | Flush_coroutine of { switch_cost : float; q_max : int }

let default_thread_like =
  Thread_like
    { time_slice = Sim.Clock.us 200.0; switch_cost = Sim.Clock.us 3.0;
      wakeup_delay = Sim.Clock.us 5.0 }

let default_cooperative = Cooperative { switch_cost = Sim.Clock.us 0.5 }

let default_flush_coroutine ?(q_max = 8) () =
  Flush_coroutine { switch_cost = Sim.Clock.us 0.5; q_max }

(* What a coroutine does when it next suspends (or finishes). *)
type answer =
  | Done
  | Work of float * (unit, answer) Effect.Deep.continuation
  | Io of Co.io_kind * int * (float, answer) Effect.Deep.continuation
  | Offload of int * (unit, answer) Effect.Deep.continuation
  | Yielded of (unit, answer) Effect.Deep.continuation
  | Awaiting of Co.latch * (unit, answer) Effect.Deep.continuation
  | Signaled of Co.latch * (unit, answer) Effect.Deep.continuation

type worker = {
  wid : int;
  ready : (float * (unit -> unit)) Queue.t;  (* (enqueue ts, continuation) *)
  cpu : Sim.Resource.t;
  mutable running : bool;
  flush_queue : int Queue.t;      (* offloaded S3 writes, in bytes *)
  mutable flush_in_flight : int;
}

type t = {
  des : Sim.Des.t;
  ssd : Ssd.t;
  policy : policy;
  workers : worker array;
  mutable live_tasks : int;
  mutable client_io : int;        (* q_cli: foreground reads on the SSD *)
  mutable switches : int;
  mutable io_issued : int;
  mutable wait_ns : float;        (* cumulative ready-queue wait before dispatch *)
  (* happens-before checker (lib/sanitize); attached at creation when the
     global switch is on *)
  san : Sanitize.Schedsan.t option;
}

let create ~cores ~policy des ssd =
  if cores <= 0 then invalid_arg "Scheduler.create: cores must be positive";
  let clock = Sim.Des.clock des in
  Ssd.attach_des ssd des;
  {
    des;
    ssd;
    policy;
    workers =
      Array.init cores (fun wid ->
          {
            wid;
            ready = Queue.create ();
            cpu = Sim.Resource.create ~name:(Printf.sprintf "cpu%d" wid) clock;
            running = false;
            flush_queue = Queue.create ();
            flush_in_flight = 0;
          });
    live_tasks = 0;
    client_io = 0;
    switches = 0;
    io_issued = 0;
    wait_ns = 0.0;
    san =
      (if Sanitize.Control.is_enabled () then
         Some (Sanitize.Schedsan.create ())
       else None);
  }

let switch_cost t =
  match t.policy with
  | Thread_like { switch_cost; _ }
  | Cooperative { switch_cost }
  | Flush_coroutine { switch_cost; _ } -> switch_cost

let set_client_io t n = t.client_io <- n
let sanitizer t = t.san
let workers t = Array.length t.workers
let switches t = t.switches

let q_flush t =
  match t.policy with
  | Flush_coroutine { q_max; _ } -> max 0 (q_max - Ssd.in_flight t.ssd - t.client_io)
  | Thread_like _ | Cooperative _ -> 0

let total_pending_flush t =
  Array.fold_left
    (fun acc w -> acc + Queue.length w.flush_queue + w.flush_in_flight)
    0 t.workers

(* The flush coroutine's admission loop: issue queued S3 writes while the
   paper's q_flush permits. Invoked at every scheduling decision and on
   every I/O completion — the moments the real flush coroutine is woken. *)
let rec pump_flush t w =
  if (not (Queue.is_empty w.flush_queue)) && q_flush t > 0 then begin
    let bytes = Queue.pop w.flush_queue in
    if Obs.Trace.is_enabled () then begin
      Obs.Trace.instant "sched.flush_admit" ~tid:(w.wid + 1) ~attrs:(fun () ->
          [ ("bytes", Obs.Trace.Int bytes); ("q_flush", Obs.Trace.Int (q_flush t)) ]);
      Obs.Trace.counter "sched.q_flush" (float_of_int (q_flush t))
    end;
    w.flush_in_flight <- w.flush_in_flight + 1;
    t.io_issued <- t.io_issued + 1;
    Ssd.submit t.ssd Ssd.Write ~bytes (fun _latency ->
        w.flush_in_flight <- w.flush_in_flight - 1;
        pump_all_flush t);
    pump_flush t w
  end

and pump_all_flush t = Array.iter (fun w -> pump_flush t w) t.workers

(* Give the core to the next ready continuation if the core is free. The
   continuation always resumes through the DES (after the switch cost), so
   runnable units queued at the same instant interleave fairly instead of
   the releasing unit re-dispatching itself synchronously. *)
let dispatch t w =
  pump_flush t w;
  if (not w.running) && not (Queue.is_empty w.ready) then begin
    let queued_at, k = Queue.pop w.ready in
    let wait = Float.max 0.0 (Sim.Clock.now (Sim.Des.clock t.des) -. queued_at) in
    t.wait_ns <- t.wait_ns +. wait;
    Obs.Attr.charge Obs.Attr.Sched_wait wait;
    w.running <- true;
    Sim.Resource.mark_busy w.cpu;
    t.switches <- t.switches + 1;
    if Obs.Trace.is_enabled () then
      Obs.Trace.instant "sched.switch" ~tid:(w.wid + 1) ~attrs:(fun () ->
          [ ("ready", Obs.Trace.Int (Queue.length w.ready)) ]);
    Sim.Des.schedule_after t.des (switch_cost t) k
  end
  else if not w.running then Sim.Resource.mark_idle w.cpu

let release t w =
  w.running <- false;
  Sim.Resource.mark_idle w.cpu;
  dispatch t w

let enqueue t w k =
  Queue.push (Sim.Clock.now (Sim.Des.clock t.des), k) w.ready;
  dispatch t w

let spawn_on ?(name = "task") t w f =
  let clock = Sim.Des.clock t.des in
  let handler : (unit, answer) Effect.Deep.handler =
    {
      retc = (fun () -> Done);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Co.Work duration ->
              Some (fun (k : (a, answer) Effect.Deep.continuation) -> Work (duration, k))
          | Co.Io (kind, bytes) -> Some (fun k -> Io (kind, bytes, k))
          | Co.Offload_write bytes -> Some (fun k -> Offload (bytes, k))
          | Co.Yield -> Some (fun k -> Yielded k)
          | Co.Now ->
              (* resumes inline: no suspension, no scheduling decision *)
              Some (fun k -> Effect.Deep.continue k (Sim.Clock.now clock))
          | Co.Await l -> Some (fun k -> Awaiting (l, k))
          | Co.Signal l -> Some (fun k -> Signaled (l, k))
          | _ -> None);
    }
  in
  t.live_tasks <- t.live_tasks + 1;
  (* schedsan bookkeeping: the task is registered at spawn (fork edge from
     whoever is running), and [enter]/[leave] bracket every slice so
     annotated accesses inside the task body attribute to it. *)
  let stask = Option.map (fun s -> Sanitize.Schedsan.on_spawn s ~name) t.san in
  let with_san f = match (t.san, stask) with
    | Some s, Some task -> f s task
    | _ -> ()
  in
  let enter () = with_san (fun s task -> Sanitize.Schedsan.enter s task) in
  let leave () = with_san (fun s task -> Sanitize.Schedsan.leave s task) in
  (* Latency attribution follows the task across suspensions: its live op
     and open frames are detached at the end of every slice and
     reinstalled at the next, so interleaved clients don't mix books. *)
  let actx = ref Obs.Attr.empty_task_ctx in
  let rec step (a : answer) =
    match a with
    | Done ->
        with_san (fun s task -> Sanitize.Schedsan.on_task_done s task);
        t.live_tasks <- t.live_tasks - 1;
        release t w
    | Work (duration, k) -> run_work duration k
    | Io (kind, bytes, k) ->
        (* Synchronous I/O: suspend, submit, wake on completion (threads pay
           an extra OS wakeup delay), and give the core away meanwhile. *)
        submit_io kind bytes (fun latency ->
            wake (fun () -> resume k latency));
        release t w
    | Offload (bytes, k) -> (
        match t.policy with
        | Flush_coroutine _ ->
            Queue.push bytes w.flush_queue;
            pump_flush t w;
            (* Continue immediately: S2 is not clipped by S3. *)
            resume k ()
        | Thread_like _ | Cooperative _ ->
            (* No flush coroutine: degrade to a blocking write. *)
            submit_io Co.Write bytes (fun _latency ->
                wake (fun () -> resume k ()));
            release t w)
    | Yielded k ->
        enqueue t w (fun () -> resume k ());
        release t w
    | Awaiting (l, k) ->
        if l.Co.signaled then begin
          (* already signaled: sticky latches resume immediately, but the
             signal's clock still orders us after the signaler *)
          with_san (fun s task -> Sanitize.Schedsan.acquire s task ~sync:l.Co.lid);
          resume k ()
        end
        else begin
          with_san (fun s task ->
              Sanitize.Schedsan.note_blocked s task l.Co.latch_name);
          l.Co.waiters <-
            (fun () ->
              with_san (fun s task ->
                  Sanitize.Schedsan.note_unblocked s task;
                  Sanitize.Schedsan.acquire s task ~sync:l.Co.lid);
              wake (fun () -> resume k ()))
            :: l.Co.waiters;
          release t w
        end
    | Signaled (l, k) ->
        with_san (fun s task -> Sanitize.Schedsan.release s task ~sync:l.Co.lid);
        l.Co.signaled <- true;
        let ws = l.Co.waiters in
        l.Co.waiters <- [];
        List.iter (fun wakeup -> wakeup ()) ws;
        resume k ()
  and resume : type a. (a, answer) Effect.Deep.continuation -> a -> unit =
   fun k v ->
    enter ();
    Obs.Attr.restore_task !actx;
    let a = Effect.Deep.continue k v in
    actx := Obs.Attr.capture_task ();
    leave ();
    step a
  and submit_io kind bytes completion =
    let kind = match kind with Co.Read -> Ssd.Read | Co.Write -> Ssd.Write in
    t.io_issued <- t.io_issued + 1;
    Ssd.submit t.ssd kind ~bytes (fun latency ->
        completion latency;
        pump_all_flush t)
  and wake k =
    match t.policy with
    | Thread_like { wakeup_delay; _ } when wakeup_delay > 0.0 ->
        Sim.Des.schedule_after t.des wakeup_delay (fun () -> enqueue t w k)
    | _ -> enqueue t w k
  and run_work duration k =
    (* Occupy the core; under the preemptive policy cut long bursts into
       time slices so equal-priority units interleave like OS threads. *)
    match t.policy with
    | Thread_like { time_slice; _ }
      when duration > time_slice && not (Queue.is_empty w.ready) ->
        Sim.Des.schedule_after t.des time_slice (fun () ->
            enqueue t w (fun () -> run_work (duration -. time_slice) k);
            release t w)
    | _ ->
        Sim.Des.schedule_after t.des duration (fun () -> resume k ())
  in
  enqueue t w (fun () ->
      enter ();
      Obs.Attr.restore_task !actx;
      let a = Effect.Deep.match_with f () handler in
      actx := Obs.Attr.capture_task ();
      leave ();
      step a)

let spawn ?name t i f = spawn_on ?name t t.workers.(i mod Array.length t.workers) f

(* Run everything to completion; returns the simulated makespan. *)
let run_to_completion t =
  let clock = Sim.Des.clock t.des in
  let t0 = Sim.Clock.now clock in
  Sim.Des.run t.des;
  (* Settle flush stragglers that q_flush throttled on behalf of client I/O:
     with the DES drained nothing else can move, so admit them directly. *)
  while total_pending_flush t > 0 do
    Array.iter
      (fun w ->
        while not (Queue.is_empty w.flush_queue) do
          let bytes = Queue.pop w.flush_queue in
          w.flush_in_flight <- w.flush_in_flight + 1;
          t.io_issued <- t.io_issued + 1;
          Ssd.submit t.ssd Ssd.Write ~bytes (fun _ ->
              w.flush_in_flight <- w.flush_in_flight - 1)
        done)
      t.workers;
    Sim.Des.run t.des
  done;
  (* the scheduler just ran dry: any task still parked on a latch will
     never be woken *)
  (match t.san with Some s -> Sanitize.Schedsan.on_run_end s | None -> ());
  Sim.Clock.now clock -. t0

(* Stable dotted metric names; q_flush reads the live admission headroom,
   so a sampler can reproduce the paper's flush-admission curves. *)
let register_metrics reg t =
  let name suffix = "sched." ^ suffix in
  let open Obs.Registry in
  register_int reg (name "cores") ~kind:Gauge ~help:"simulated cores (workers)"
    (fun () -> Array.length t.workers);
  register_int reg (name "switches") ~help:"context/coroutine switches" (fun () ->
      t.switches);
  register_int reg (name "io_issued") ~help:"I/O requests submitted to the SSD"
    (fun () -> t.io_issued);
  register_int reg (name "live_tasks") ~kind:Gauge ~help:"spawned tasks not yet done"
    (fun () -> t.live_tasks);
  register_int reg (name "client_io") ~kind:Gauge
    ~help:"foreground reads outstanding on the SSD (q_cli)" (fun () -> t.client_io);
  register_int reg (name "q_flush") ~kind:Gauge
    ~help:"flush-coroutine admission headroom (q_max - q_comp - q_cli)" (fun () ->
      q_flush t);
  register_int reg (name "pending_flush") ~kind:Gauge
    ~help:"offloaded S3 writes queued or in flight" (fun () -> total_pending_flush t);
  register_float reg (name "wait_ns") ~kind:Counter
    ~help:"cumulative simulated ns continuations waited in ready queues" (fun () ->
      t.wait_ns);
  match t.san with
  | Some s -> Sanitize.Schedsan.register_metrics s reg
  | None -> ()

type report = {
  makespan : float;
  cpu_utilization : float;  (* mean across workers *)
  cpu_idleness : float;
  io_utilization : float;
  io_idleness : float;
  io_mean_latency : float;
  io_requests : int;
  switches : int;
}

let report t ~makespan =
  let cpu_util =
    let sum =
      Array.fold_left (fun acc w -> acc +. Sim.Resource.busy_time w.cpu) 0.0 t.workers
    in
    if makespan <= 0.0 then 0.0
    else sum /. (makespan *. float_of_int (Array.length t.workers))
  in
  let io_busy = Sim.Resource.busy_time (Ssd.busy_tracker t.ssd) in
  let io_util = if makespan <= 0.0 then 0.0 else Float.min 1.0 (io_busy /. makespan) in
  let stats = Ssd.stats t.ssd in
  {
    makespan;
    cpu_utilization = cpu_util;
    cpu_idleness = 1.0 -. cpu_util;
    io_utilization = io_util;
    io_idleness = 1.0 -. io_util;
    io_mean_latency = Util.Histogram.mean stats.request_latency;
    io_requests = Util.Histogram.count stats.request_latency;
    switches = t.switches;
  }
