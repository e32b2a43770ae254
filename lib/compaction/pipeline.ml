(* Pipelined compaction (see pipeline.mli for the two-plane design).

   The data plane stays serial and byte-exact in the engine; this module
   owns the stage vocabulary, the cost-token recording, the bounded SPSC
   queues, and the staged replay that turns a recording into a measured
   makespan on a shadow coroutine scheduler. *)

module Co = Coroutine.Co
module Scheduler = Coroutine.Scheduler

type stage = Read | Merge | Build | Write

let all_stages = [ Read; Merge; Build; Write ]
let stage_count = 4
let stage_index = function Read -> 0 | Merge -> 1 | Build -> 2 | Write -> 3

let stage_name = function
  | Read -> "read"
  | Merge -> "merge"
  | Build -> "build"
  | Write -> "write"

let attr_phase = function
  | Read -> Obs.Attr.Pipe_read
  | Merge -> Obs.Attr.Pipe_merge
  | Build -> Obs.Attr.Pipe_build
  | Write -> Obs.Attr.Pipe_write

(* The stage the engine's serial data plane is executing right now.
   Device fault hooks read it so a crash site counts against the stage it
   interrupted (the crash sweep's per-stage coverage). Global like
   Obs.Attr's state: the engine timeline is single-threaded. *)
let cur : stage option ref = ref None

let current_stage () = !cur

let with_stage stage f =
  let saved = !cur in
  cur := Some stage;
  Fun.protect
    ~finally:(fun () -> cur := saved)
    (fun () -> Obs.Attr.with_phase (attr_phase stage) f)

(* --- Cost-token recording (data plane) ---------------------------------- *)

type medium = Pm | Ssd

(* An I/O token: what one read or write section moved, and what it took. *)
type io = { t_medium : medium; t_bytes : int; t_cost_ns : float }

type token = Read_io of io | Merge_cpu of float | Build_cpu of float | Write_io of io

type recording = { mutable tokens : token list (* newest first *) }

let create_recording () = { tokens = [] }
let push r tok = r.tokens <- tok :: r.tokens

let io medium ~bytes ~cost_ns =
  { t_medium = medium; t_bytes = max 0 bytes; t_cost_ns = Float.max 0.0 cost_ns }

let record_read r medium ~bytes ~cost_ns = push r (Read_io (io medium ~bytes ~cost_ns))
let record_merge r ~cost_ns = push r (Merge_cpu (Float.max 0.0 cost_ns))
let record_build r ~cost_ns = push r (Build_cpu (Float.max 0.0 cost_ns))
let record_write r medium ~bytes ~cost_ns = push r (Write_io (io medium ~bytes ~cost_ns))

type by_stage = {
  mutable reads : io list;  (* newest first *)
  mutable merge_ns : float;
  mutable builds_ns : float;
  mutable writes : io list;  (* newest first *)
}

(* The recording by stage, CPU costs summed in record order. *)
let by_stage r =
  let rec go = function
    | [] -> { reads = []; merge_ns = 0.0; builds_ns = 0.0; writes = [] }
    | tok :: older ->
        let s = go older in
        (match tok with
        | Read_io t -> s.reads <- t :: s.reads
        | Merge_cpu ns -> s.merge_ns <- s.merge_ns +. ns
        | Build_cpu ns -> s.builds_ns <- s.builds_ns +. ns
        | Write_io t -> s.writes <- t :: s.writes);
        s
  in
  go r.tokens

let sum_costs = List.fold_left (fun acc t -> acc +. t.t_cost_ns) 0.0

let stage_serial_ns s = sum_costs s.reads +. s.merge_ns +. s.builds_ns +. sum_costs s.writes
let serial_ns r = stage_serial_ns (by_stage r)

let has_overlap_work r =
  List.exists (function Read_io _ -> true | _ -> false) r.tokens
  && List.exists (function Write_io _ -> true | _ -> false) r.tokens

(* --- Bounded SPSC queues ------------------------------------------------ *)

(* Every enqueued item carries a fresh handoff latch: push signals it,
   pop awaits it (sticky, so the await resumes immediately) — that
   signal→await pair is the release→acquire happens-before edge schedsan
   draws for the handoff. Each item is additionally annotated as its own
   schedsan variable ("<queue>#<seq>"), so dropping the edge is a
   reportable race, not silence. Parking latches (not_empty / not_full)
   are recreated per wait; latches are one-shot. *)

type 'a queue = {
  q_name : string;
  capacity : int;
  items : ('a * Co.latch * int) Stdlib.Queue.t;
  mutable closed : bool;
  mutable not_empty : Co.latch option;  (* consumer parked here *)
  mutable not_full : Co.latch option;  (* producer parked here *)
  mutable seq : int;  (* items ever enqueued *)
  mutable q_max_depth : int;
  mutable producer_wait : float;
  mutable consumer_wait : float;
  san : Sanitize.Schedsan.t option;
  drop_hb : bool;  (* planted bug: skip the handoff acquire, poll instead *)
}

let queue_create ?(drop_hb = false) ~san ~name ~capacity () =
  if capacity < 1 then invalid_arg "Pipeline.queue_create: capacity < 1";
  {
    q_name = name;
    capacity;
    items = Stdlib.Queue.create ();
    closed = false;
    not_empty = None;
    not_full = None;
    seq = 0;
    q_max_depth = 0;
    producer_wait = 0.0;
    consumer_wait = 0.0;
    san;
    drop_hb;
  }

let queue_depth q = Stdlib.Queue.length q.items
let queue_max_depth q = q.q_max_depth
let queue_wait_ns q = q.producer_wait +. q.consumer_wait

let item_var q seq = Printf.sprintf "%s#%d" q.q_name seq

let wake_slot get set =
  match get () with
  | None -> ()
  | Some l ->
      set None;
      Co.signal l

let queue_push q x =
  let t0 = Co.now () in
  while Stdlib.Queue.length q.items >= q.capacity do
    let l = Co.latch ~name:(q.q_name ^ ".not_full") () in
    q.not_full <- Some l;
    Co.await l
  done;
  let waited = Co.now () -. t0 in
  if waited > 0.0 then begin
    q.producer_wait <- q.producer_wait +. waited;
    Obs.Attr.charge Obs.Attr.Pipe_queue_wait waited
  end;
  (match q.san with Some s -> Sanitize.Schedsan.write s (item_var q q.seq) | None -> ());
  let handoff = Co.latch ~name:(item_var q q.seq) () in
  Stdlib.Queue.push (x, handoff, q.seq) q.items;
  q.seq <- q.seq + 1;
  q.q_max_depth <- max q.q_max_depth (Stdlib.Queue.length q.items);
  (* the enqueue→dequeue release edge *)
  Co.signal handoff;
  wake_slot (fun () -> q.not_empty) (fun v -> q.not_empty <- v)

let queue_pop q =
  let t0 = Co.now () in
  let rec wait_nonempty () =
    if Stdlib.Queue.is_empty q.items && not q.closed then
      if q.drop_hb then begin
        (* planted bug: poll — no happens-before from the producer *)
        Co.yield ();
        wait_nonempty ()
      end
      else begin
        let l = Co.latch ~name:(q.q_name ^ ".not_empty") () in
        q.not_empty <- Some l;
        Co.await l;
        wait_nonempty ()
      end
  in
  wait_nonempty ();
  let waited = Co.now () -. t0 in
  if waited > 0.0 then begin
    q.consumer_wait <- q.consumer_wait +. waited;
    Obs.Attr.charge Obs.Attr.Pipe_queue_wait waited
  end;
  if Stdlib.Queue.is_empty q.items then None
  else begin
    let x, handoff, seq = Stdlib.Queue.pop q.items in
    (* the dequeue acquire edge: the latch is already signaled, so this
       resumes immediately but still orders us after the push *)
    if not q.drop_hb then Co.await handoff;
    (match q.san with Some s -> Sanitize.Schedsan.read s (item_var q seq) | None -> ());
    wake_slot (fun () -> q.not_full) (fun v -> q.not_full <- v);
    Some x
  end

let queue_close q =
  q.closed <- true;
  wake_slot (fun () -> q.not_empty) (fun v -> q.not_empty <- v)

(* --- The staged replay (time plane) ------------------------------------- *)

type sim_config = {
  cores : int;
  queue_capacity : int;
  block_bytes : int;
  q_max : int;
  flush_reserve : int;
  ssd_params : Ssd.params;
}

let default_sim_config =
  {
    cores = 4;
    queue_capacity = 4;
    block_bytes = 256 * 1024;
    q_max = 8;
    flush_reserve = 2;
    ssd_params = Ssd.default_params;
  }

type plant = No_plant | Drop_hb | Serial_stages

type stage_stat = { s_stage : stage; busy_ns : float; wait_ns : float; items : int }

type result = {
  makespan : float;
  sim_serial_ns : float;
  stages : stage_stat list;
  queue_max_depths : (string * int) list;
  queue_wait_total_ns : float;
  sched : Scheduler.report;
  races : int;
  lost_wakeups : int;
}

(* Split a token into ~block_bytes chunks, cost prorated by bytes. *)
let chunk_token ~block_bytes tok =
  if tok.t_bytes <= block_bytes then [ tok ]
  else begin
    let n = (tok.t_bytes + block_bytes - 1) / block_bytes in
    let base = tok.t_bytes / n and rem = tok.t_bytes mod n in
    List.init n (fun i ->
        let b = base + if i < rem then 1 else 0 in
        {
          tok with
          t_bytes = b;
          t_cost_ns = tok.t_cost_ns *. float_of_int b /. float_of_int tok.t_bytes;
        })
  end

let sim_switch_cost = 500.0 (* ns; coroutine-scale, matches Scheduler defaults *)

let simulate ?(plant = No_plant) cfg recording =
  (* Detach the caller's attribution context: replay bookkeeping books to
     the background domain, and the caller's op/frame stack survives the
     scheduler's per-task context switching untouched. *)
  let caller_ctx = Obs.Attr.capture_task () in
  Fun.protect ~finally:(fun () -> Obs.Attr.restore_task caller_ctx) @@ fun () ->
  let clock = Sim.Clock.create () in
  let des = Sim.Des.create clock in
  let ssd = Ssd.create ~params:cfg.ssd_params clock in
  let policy =
    Scheduler.Flush_coroutine { switch_cost = sim_switch_cost; q_max = cfg.q_max }
  in
  let sched = Scheduler.create ~cores:(max 1 cfg.cores) ~policy des ssd in
  let san = Scheduler.sanitizer sched in
  let block_bytes = max 1 cfg.block_bytes in
  let r = by_stage recording in

  (* Work decomposition: read tokens chunked into blocks; the merge cost
     rides the read stream (prorated by bytes); write tokens chunked, the
     build cost prorated over them the same way. *)
  let rblocks = List.concat_map (chunk_token ~block_bytes) (List.rev r.reads) in
  let wblocks = List.concat_map (chunk_token ~block_bytes) (List.rev r.writes) in
  let total_rbytes = List.fold_left (fun a t -> a + t.t_bytes) 0 rblocks in
  let total_wbytes = List.fold_left (fun a t -> a + t.t_bytes) 0 wblocks in
  let merge_share blk =
    if total_rbytes <= 0 then r.merge_ns /. float_of_int (max 1 (List.length rblocks))
    else r.merge_ns *. float_of_int blk.t_bytes /. float_of_int total_rbytes
  in
  let build_share blk =
    if total_wbytes <= 0 then 0.0
    else r.builds_ns *. float_of_int blk.t_bytes /. float_of_int total_wbytes
  in
  let survive_ratio =
    if total_rbytes <= 0 then 0.0 else float_of_int total_wbytes /. float_of_int total_rbytes
  in

  let capacity =
    (* the Serial plant drains each stage fully before the next starts, so
       its queues must hold a whole stage's output *)
    match plant with Serial_stages -> max_int / 2 | _ -> max 1 cfg.queue_capacity
  in
  let drop_hb = plant = Drop_hb in
  let q_read_merge = queue_create ~drop_hb ~san ~name:"pipe.q.read_merge" ~capacity () in
  let q_merge_build = queue_create ~drop_hb ~san ~name:"pipe.q.merge_build" ~capacity () in
  let q_build_write = queue_create ~drop_hb ~san ~name:"pipe.q.build_write" ~capacity () in

  let busy = Array.make stage_count 0.0 in
  let admission_wait = Array.make stage_count 0.0 in
  let items = Array.make stage_count 0 in
  let timed i f =
    let t0 = Co.now () in
    f ();
    busy.(i) <- busy.(i) +. (Co.now () -. t0);
    items.(i) <- items.(i) + 1
  in
  (* Per-stage I/O admission, the q_flush extension: the read stage's
     prefetch may never take the last [flush_reserve] device slots, so the
     write stage (the flush side) always finds headroom. *)
  let admit i limit =
    let limit = max 1 limit in
    let t0 = Co.now () in
    while Ssd.in_flight ssd >= limit do
      Co.yield ()
    done;
    let w = Co.now () -. t0 in
    if w > 0.0 then begin
      admission_wait.(i) <- admission_wait.(i) +. w;
      Obs.Attr.charge Obs.Attr.Pipe_queue_wait w
    end
  in

  (* Serial plant gates: stage i starts only once stage i-1 signals done. *)
  let done_gates = Array.init stage_count (fun i ->
      Co.latch ~name:(Printf.sprintf "pipe.serial.done%d" i) ())
  in
  let serial_gate i = if plant = Serial_stages && i > 0 then Co.await done_gates.(i - 1) in
  let serial_done i = if plant = Serial_stages then Co.signal done_gates.(i) in

  let read_stage () =
    serial_gate 0;
    List.iter
      (fun blk ->
        (match blk.t_medium with
        | Ssd -> admit 0 (cfg.q_max - cfg.flush_reserve)
        | Pm -> ());
        timed 0 (fun () ->
            match blk.t_medium with
            | Pm -> Co.work blk.t_cost_ns
            | Ssd ->
                let latency = Co.read blk.t_bytes in
                let residual = blk.t_cost_ns -. latency in
                if residual > 0.0 then Co.work residual);
        queue_push q_read_merge blk)
      rblocks;
    queue_close q_read_merge;
    serial_done 0
  in
  let merge_stage () =
    serial_gate 1;
    let rec loop () =
      match queue_pop q_read_merge with
      | None -> ()
      | Some blk ->
          timed 1 (fun () ->
              let share = merge_share blk in
              if share > 0.0 then Co.work share);
          queue_push q_merge_build blk.t_bytes;
          loop ()
    in
    loop ();
    queue_close q_merge_build;
    serial_done 1
  in
  let build_stage () =
    serial_gate 2;
    let wchunks = Array.of_list wblocks in
    let cum = Array.make (Array.length wchunks) 0.0 in
    let acc = ref 0.0 in
    Array.iteri
      (fun i w ->
        acc := !acc +. float_of_int w.t_bytes;
        cum.(i) <- !acc)
      wchunks;
    let next = ref 0 in
    let survivors = ref 0.0 in
    let emit_due () =
      while !next < Array.length wchunks && cum.(!next) <= !survivors +. 0.5 do
        let w = wchunks.(!next) in
        timed 2 (fun () ->
            let share = build_share w in
            if share > 0.0 then Co.work share);
        queue_push q_build_write w;
        incr next
      done
    in
    let rec loop () =
      match queue_pop q_merge_build with
      | None -> ()
      | Some merged_bytes ->
          survivors := !survivors +. (float_of_int merged_bytes *. survive_ratio);
          emit_due ();
          loop ()
    in
    loop ();
    (* input drained: whatever is still pending is due now *)
    survivors := infinity;
    emit_due ();
    queue_close q_build_write;
    serial_done 2
  in
  let write_stage () =
    serial_gate 3;
    let rec loop () =
      match queue_pop q_build_write with
      | None -> ()
      | Some w ->
          (match w.t_medium with Ssd -> admit 3 cfg.q_max | Pm -> ());
          timed 3 (fun () ->
              match w.t_medium with
              | Pm -> Co.work w.t_cost_ns
              | Ssd ->
                  let latency = Co.write w.t_bytes in
                  let residual = w.t_cost_ns -. latency in
                  if residual > 0.0 then Co.work residual);
          loop ()
    in
    loop ();
    serial_done 3
  in

  Scheduler.spawn ~name:"pipe.read" sched 0 read_stage;
  Scheduler.spawn ~name:"pipe.merge" sched 1 merge_stage;
  Scheduler.spawn ~name:"pipe.build" sched 2 build_stage;
  Scheduler.spawn ~name:"pipe.write" sched 3 write_stage;
  let makespan = Scheduler.run_to_completion sched in
  let sched_report = Scheduler.report sched ~makespan in
  let stage_waits =
    [|
      admission_wait.(0) +. q_read_merge.producer_wait;
      q_read_merge.consumer_wait +. q_merge_build.producer_wait;
      q_merge_build.consumer_wait +. q_build_write.producer_wait;
      admission_wait.(3) +. q_build_write.consumer_wait;
    |]
  in
  let stages =
    List.map
      (fun s ->
        let i = stage_index s in
        { s_stage = s; busy_ns = busy.(i); wait_ns = stage_waits.(i); items = items.(i) })
      all_stages
  in
  {
    makespan;
    sim_serial_ns = stage_serial_ns r;
    stages;
    queue_max_depths =
      [
        ("read_merge", queue_max_depth q_read_merge);
        ("merge_build", queue_max_depth q_merge_build);
        ("build_write", queue_max_depth q_build_write);
      ];
    queue_wait_total_ns =
      queue_wait_ns q_read_merge +. queue_wait_ns q_merge_build
      +. queue_wait_ns q_build_write
      +. admission_wait.(0) +. admission_wait.(3);
    sched = sched_report;
    races = (match san with Some s -> Sanitize.Schedsan.races s | None -> 0);
    lost_wakeups = (match san with Some s -> Sanitize.Schedsan.lost_wakeups s | None -> 0);
  }

(* --- The synthetic §V compaction and its serial replay ------------------ *)

(* The compaction process of the paper's Fig. 4/5 as a token stream. S1
   reads a block (from PM — memory time — for the level-0 share of the
   input, else from the SSD), S2 merges it (a per-entry merge token and a
   per-byte build token: compares and heap ops, then copies and
   checksums) while dropping duplicates, and S3 writes whenever the
   survivors fill the write buffer. Per-block dedup is drawn around
   [dedup_ratio] with spread, so S3's trigger timing is erratic — the
   behaviour the flush coroutine removes — rather than scripted. *)

type synthetic = {
  input_bytes : int;
  value_bytes : int;
  entry_overhead : int;
  read_block : int;
  write_buffer : int;
  pm_input_fraction : float;
  dedup_ratio : float;
  dedup_spread : float;
  cpu_per_entry_ns : float;
  cpu_per_byte_ns : float;
  pm_read_ns_per_byte : float;
  seed : int;
}

let default_synthetic =
  {
    input_bytes = 2 * 1024 * 1024;
    value_bytes = 1024;
    entry_overhead = 24;
    read_block = 256 * 1024;
    write_buffer = 1024 * 1024;
    pm_input_fraction = 0.5;
    dedup_ratio = 0.2;
    dedup_spread = 0.15;
    cpu_per_entry_ns = 250.0;
    cpu_per_byte_ns = 1.6;
    pm_read_ns_per_byte = 0.35;
    seed = 7;
  }

let synthesize p =
  let r = create_recording () in
  let dev = Ssd.default_params in
  let rng = Util.Xoshiro.create p.seed in
  let entry_size = p.value_bytes + p.entry_overhead in
  let remaining = ref p.input_bytes in
  let write_fill = ref 0 in
  let write bytes =
    record_write r Ssd ~bytes
      ~cost_ns:(dev.Ssd.write_latency_ns +. (float_of_int bytes *. dev.Ssd.write_byte_ns))
  in
  while !remaining > 0 do
    let block = min p.read_block !remaining in
    remaining := !remaining - block;
    if Util.Xoshiro.float rng 1.0 < p.pm_input_fraction then
      record_read r Pm ~bytes:block ~cost_ns:(float_of_int block *. p.pm_read_ns_per_byte)
    else
      record_read r Ssd ~bytes:block
        ~cost_ns:(dev.Ssd.read_latency_ns +. (float_of_int block *. dev.Ssd.read_byte_ns));
    let entries = max 1 (block / entry_size) in
    record_merge r ~cost_ns:(float_of_int entries *. p.cpu_per_entry_ns);
    record_build r ~cost_ns:(float_of_int block *. p.cpu_per_byte_ns);
    let dedup =
      let d = p.dedup_ratio +. ((Util.Xoshiro.float rng 2.0 -. 1.0) *. p.dedup_spread) in
      Float.max 0.0 (Float.min 0.95 d)
    in
    let survivors = int_of_float (float_of_int entries *. (1.0 -. dedup)) in
    write_fill := !write_fill + (survivors * entry_size);
    while !write_fill >= p.write_buffer do
      write p.write_buffer;
      write_fill := !write_fill - p.write_buffer
    done
  done;
  if !write_fill > 0 then write !write_fill;
  r

(* One compaction task, its tokens in record order. A block's merge and
   build run as one CPU burst; every write is offloaded, which the
   scheduler degrades to a blocking write where no flush coroutine runs. *)
let replay ?on_stage r () =
  let step stage f =
    match on_stage with
    | None -> f ()
    | Some trace ->
        let t0 = Co.now () in
        f ();
        trace stage t0 (Co.now ())
  in
  let io t ssd = match t.t_medium with Pm -> Co.work t.t_cost_ns | Ssd -> ssd t.t_bytes in
  let rec walk = function
    | [] -> ()
    | Merge_cpu merge :: Build_cpu build :: rest ->
        step Merge (fun () -> Co.work (merge +. build));
        walk rest
    | tok :: rest ->
        (match tok with
        | Read_io t -> step Read (fun () -> io t (fun bytes -> ignore (Co.read bytes)))
        | Merge_cpu ns -> step Merge (fun () -> Co.work ns)
        | Build_cpu ns -> step Build (fun () -> Co.work ns)
        | Write_io t -> step Write (fun () -> io t Co.offload_write));
        walk rest
  in
  walk (List.rev r.tokens)

(* §V-C's task manager: under coroutine policies each logical task is
   split into k = max(q/c, 1) subtasks per core; under threads, one unit
   per task. Unit i draws seed + 31·i. *)
let subtasks ~policy ~cores ~q_max ~tasks p =
  let units =
    match policy with
    | Scheduler.Thread_like _ -> tasks
    | Cooperative _ | Flush_coroutine _ -> max tasks (max (q_max / cores) 1 * cores)
  in
  let per_unit = p.input_bytes * tasks / units in
  List.init units (fun i -> synthesize { p with input_bytes = per_unit; seed = p.seed + (31 * i) })

let replay_all ?(inspect = fun (_ : Scheduler.t) -> ()) ?ssd_params ?on_stage ~policy ~cores
    recordings =
  let clock = Sim.Clock.create () in
  let des = Sim.Des.create clock in
  let ssd = Ssd.create ?params:ssd_params clock in
  let sched = Scheduler.create ~cores ~policy des ssd in
  List.iteri
    (fun i r ->
      Scheduler.spawn ~name:(Printf.sprintf "compaction-%d" i) sched i
        (replay ?on_stage:(Option.map (fun f -> f i) on_stage) r))
    recordings;
  let makespan = Scheduler.run_to_completion sched in
  inspect sched;
  Scheduler.report sched ~makespan

(* --- Cumulative accounting and metrics ---------------------------------- *)

type totals = {
  mutable runs : int;
  mutable serial_total_ns : float;
  mutable pipelined_total_ns : float;
  mutable rebate_total_ns : float;
  mutable blocks_total : int;
  mutable queue_wait_total : float;
  mutable races_total : int;
  mutable lost_wakeups_total : int;
  stage_busy_total : float array;
  mutable last : result option;
}

let create_totals () =
  {
    runs = 0;
    serial_total_ns = 0.0;
    pipelined_total_ns = 0.0;
    rebate_total_ns = 0.0;
    blocks_total = 0;
    queue_wait_total = 0.0;
    races_total = 0;
    lost_wakeups_total = 0;
    stage_busy_total = Array.make stage_count 0.0;
    last = None;
  }

let note_result tot res ~rebate_ns =
  tot.runs <- tot.runs + 1;
  tot.serial_total_ns <- tot.serial_total_ns +. res.sim_serial_ns;
  tot.pipelined_total_ns <- tot.pipelined_total_ns +. res.makespan;
  tot.rebate_total_ns <- tot.rebate_total_ns +. Float.max 0.0 rebate_ns;
  tot.queue_wait_total <- tot.queue_wait_total +. res.queue_wait_total_ns;
  tot.races_total <- tot.races_total + res.races;
  tot.lost_wakeups_total <- tot.lost_wakeups_total + res.lost_wakeups;
  List.iter
    (fun st ->
      let i = stage_index st.s_stage in
      tot.stage_busy_total.(i) <- tot.stage_busy_total.(i) +. st.busy_ns;
      if st.s_stage = Read then tot.blocks_total <- tot.blocks_total + st.items)
    res.stages;
  tot.last <- Some res

(* Several totals as one; [last] is the last non-empty one's. *)
let sum_totals tots =
  let r = create_totals () in
  List.iter
    (fun t ->
      r.runs <- r.runs + t.runs;
      r.serial_total_ns <- r.serial_total_ns +. t.serial_total_ns;
      r.pipelined_total_ns <- r.pipelined_total_ns +. t.pipelined_total_ns;
      r.rebate_total_ns <- r.rebate_total_ns +. t.rebate_total_ns;
      r.blocks_total <- r.blocks_total + t.blocks_total;
      r.queue_wait_total <- r.queue_wait_total +. t.queue_wait_total;
      r.races_total <- r.races_total + t.races_total;
      r.lost_wakeups_total <- r.lost_wakeups_total + t.lost_wakeups_total;
      Array.iteri
        (fun i ns -> r.stage_busy_total.(i) <- r.stage_busy_total.(i) +. ns)
        t.stage_busy_total;
      if t.last <> None then r.last <- t.last)
    tots;
  r

let queue_names = [ "read_merge"; "merge_build"; "build_write" ]

let register_metrics reg tot =
  let p name = "pipeline." ^ name in
  let open Obs.Registry in
  register_int reg ~help:"staged compaction replays" (p "runs") (fun () -> (tot ()).runs);
  register_float reg ~kind:Counter ~help:"serial cost of staged sections"
    (p "serial_ns") (fun () -> (tot ()).serial_total_ns);
  register_float reg ~kind:Counter ~help:"replayed pipeline makespans"
    (p "makespan_ns") (fun () -> (tot ()).pipelined_total_ns);
  register_float reg ~kind:Counter ~help:"clock rebate from stage overlap"
    (p "rebate_ns") (fun () -> (tot ()).rebate_total_ns);
  register_int reg ~help:"blocks streamed through the read stage" (p "blocks")
    (fun () -> (tot ()).blocks_total);
  register_float reg ~kind:Counter ~help:"backpressure + admission waits"
    (p "queue_wait_ns") (fun () -> (tot ()).queue_wait_total);
  register_int reg ~help:"schedsan races inside replays" (p "races") (fun () ->
      (tot ()).races_total);
  register_int reg ~help:"schedsan lost wakeups inside replays" (p "lost_wakeups")
    (fun () -> (tot ()).lost_wakeups_total);
  List.iter
    (fun s ->
      register_float reg ~kind:Counter
        ~help:(Printf.sprintf "busy time of the %s stage" (stage_name s))
        (p (Printf.sprintf "stage_busy_ns.%s" (stage_name s)))
        (fun () -> (tot ()).stage_busy_total.(stage_index s)))
    all_stages;
  List.iter
    (fun qn ->
      register_int reg ~kind:Gauge
        ~help:(Printf.sprintf "high-water depth of the %s queue (last replay)" qn)
        (p (Printf.sprintf "queue_depth.%s" qn))
        (fun () ->
          match (tot ()).last with
          | None -> 0
          | Some res -> ( try List.assoc qn res.queue_max_depths with Not_found -> 0)))
    queue_names
