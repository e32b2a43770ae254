(* Per-operation latency attribution over the simulated clock.

   The engine wraps each user-facing operation in [with_op]; device and
   subsystem layers report time with point charges ([charge]) or frames
   ([with_phase]). At op end the accounted phase times are compared
   against the op's clock delta and the shortfall is booked as [Other],
   so the per-phase breakdown always sums to the measured latency.

   Two accounting domains keep the books exact despite clock rewinds:

   - Op domain: charges and frames between [with_op] enter/exit land in
     the current op's per-phase accumulators. Non-absorbing frames
     (memtable probe, WAL stage/sync) subtract time already claimed by
     nested charges, so a device read inside a WAL sync is counted once.

   - Background domain: work under an absorbing frame (write stall,
     flush, compaction) or outside any op. An absorbing frame inside an
     op charges its full clock delta to the op (that is what the caller
     waited for) and diverts everything underneath — device reads done
     by an inline flush, nested flush/compaction frames — to the global
     background totals. This is what makes attribution robust to the
     scheduler's rewind-based overlap rebates: the op only ever sees the
     post-rebate delta of the frame it actually blocked on.

   Like {!Trace}, the module is process-global and disabled by default;
   the disabled path is one bool check and no allocation. *)

type phase =
  | Memtable_probe
  | Pm_bloom
  | Cache_hit
  | Cache_miss
  | Pm_read
  | Ssd_read
  | Wal_stage
  | Wal_sync
  | Flush
  | Compaction
  | Stall_wait
  | Sched_wait
  | Router_dispatch
  | Group_commit_wait
  | Admission_stall
  | Pipe_read
  | Pipe_merge
  | Pipe_build
  | Pipe_write
  | Pipe_queue_wait
  | Other

type op_kind = Read | Write | Scan

let phase_index = function
  | Memtable_probe -> 0
  | Pm_bloom -> 1
  | Cache_hit -> 2
  | Cache_miss -> 3
  | Pm_read -> 4
  | Ssd_read -> 5
  | Wal_stage -> 6
  | Wal_sync -> 7
  | Flush -> 8
  | Compaction -> 9
  | Stall_wait -> 10
  | Sched_wait -> 11
  | Router_dispatch -> 12
  | Group_commit_wait -> 13
  | Admission_stall -> 14
  | Pipe_read -> 15
  | Pipe_merge -> 16
  | Pipe_build -> 17
  | Pipe_write -> 18
  | Pipe_queue_wait -> 19
  | Other -> 20

let phase_count = 21

let all_phases =
  [ Memtable_probe; Pm_bloom; Cache_hit; Cache_miss; Pm_read; Ssd_read; Wal_stage;
    Wal_sync; Flush; Compaction; Stall_wait; Sched_wait; Router_dispatch;
    Group_commit_wait; Admission_stall; Pipe_read; Pipe_merge; Pipe_build;
    Pipe_write; Pipe_queue_wait; Other ]

let phase_name = function
  | Memtable_probe -> "memtable_probe"
  | Pm_bloom -> "pm_bloom"
  | Cache_hit -> "cache_hit"
  | Cache_miss -> "cache_miss"
  | Pm_read -> "pm_read"
  | Ssd_read -> "ssd_read"
  | Wal_stage -> "wal_stage"
  | Wal_sync -> "wal_sync"
  | Flush -> "flush"
  | Compaction -> "compaction"
  | Stall_wait -> "stall_wait"
  | Sched_wait -> "sched_wait"
  | Router_dispatch -> "router_dispatch"
  | Group_commit_wait -> "group_commit_wait"
  | Admission_stall -> "admission_stall"
  | Pipe_read -> "pipe_read"
  | Pipe_merge -> "pipe_merge"
  | Pipe_build -> "pipe_build"
  | Pipe_write -> "pipe_write"
  | Pipe_queue_wait -> "pipe_queue_wait"
  | Other -> "other"

(* Absorbing frames mark work the op waits for as a whole; their inner
   detail belongs to the background books. The Pipe_* stage phases are
   deliberately non-absorbing: they run inside a [Compaction] frame, so
   their time lands in the background books as compaction detail while
   the op that triggered the compaction still sees one absorbing delta —
   the ±5% doctor coverage gate is unaffected by the pipeline. *)
let absorbing = function
  | Flush | Compaction | Stall_wait | Group_commit_wait | Admission_stall -> true
  | _ -> false

let kind_index = function Read -> 0 | Write -> 1 | Scan -> 2
let kind_name = function Read -> "read" | Write -> "write" | Scan -> "scan"
let op_kinds = [ Read; Write; Scan ]

(* --- Global state ------------------------------------------------------ *)

type frame = {
  start : float;
  mutable child_ns : float;  (* time nested charges/frames already claimed *)
}

type op_ctx = { op_start : float; acc : float array }

type state = {
  clock : Sim.Clock.t;
  mutable op : op_ctx option;
  mutable frames : frame list;
  mutable absorb_depth : int;
  (* cumulative books *)
  op_phase_ns : float array;
  bg_phase_ns : float array;
  counts : int array;
  ops : int array;          (* per op_kind *)
  op_total_ns : float array; (* per op_kind *)
  histograms : Util.Histogram.t array;  (* per-phase, per-op contribution *)
}

let enabled = ref false
let state : state option ref = ref None

let is_enabled () = !enabled

let enable ~clock =
  state :=
    Some
      {
        clock;
        op = None;
        frames = [];
        absorb_depth = 0;
        op_phase_ns = Array.make phase_count 0.0;
        bg_phase_ns = Array.make phase_count 0.0;
        counts = Array.make phase_count 0;
        ops = Array.make 3 0;
        op_total_ns = Array.make 3 0.0;
        histograms = Array.init phase_count (fun _ -> Util.Histogram.create ());
      };
  enabled := true

let disable () =
  state := None;
  enabled := false

let reset () = match !state with Some st -> enable ~clock:st.clock | None -> ()

(* --- Charges and frames ------------------------------------------------ *)

(* An op is being attributed iff an op context is live and no absorbing
   frame has taken over; otherwise the charge is background work. *)
let charge phase dt =
  if !enabled then
    match !state with
    | None -> ()
    | Some st ->
        let i = phase_index phase in
        st.counts.(i) <- st.counts.(i) + 1;
        let dt = if dt > 0.0 then dt else 0.0 in
        (match st.op with
        | Some op when st.absorb_depth = 0 -> op.acc.(i) <- op.acc.(i) +. dt
        | _ -> st.bg_phase_ns.(i) <- st.bg_phase_ns.(i) +. dt);
        (match st.frames with
        | top :: _ -> top.child_ns <- top.child_ns +. dt
        | [] -> ())

let with_phase phase f =
  if not !enabled then f ()
  else
    match !state with
    | None -> f ()
    | Some st ->
        (* self time belongs to the current op, not background *)
        let to_op = st.op <> None && st.absorb_depth = 0 in
        let frame = { start = Sim.Clock.now st.clock; child_ns = 0.0 } in
        st.frames <- frame :: st.frames;
        if absorbing phase then st.absorb_depth <- st.absorb_depth + 1;
        let finish () =
          (match st.frames with
          | top :: rest when top == frame -> st.frames <- rest
          | _ -> ());
          if absorbing phase then st.absorb_depth <- st.absorb_depth - 1;
          let delta = Float.max 0.0 (Sim.Clock.now st.clock -. frame.start) in
          (* An absorbing frame billed to an op keeps its full delta (the
             op blocked on all of it; inner charges were diverted to the
             background books). Everything else bills only its self time. *)
          let self =
            if to_op && absorbing phase then delta
            else Float.max 0.0 (delta -. frame.child_ns)
          in
          let i = phase_index phase in
          st.counts.(i) <- st.counts.(i) + 1;
          (match st.op with
          | Some op when to_op -> op.acc.(i) <- op.acc.(i) +. self
          | _ -> st.bg_phase_ns.(i) <- st.bg_phase_ns.(i) +. self);
          match st.frames with
          | parent :: _ -> parent.child_ns <- parent.child_ns +. delta
          | [] -> ()
        in
        (match f () with
        | v ->
            finish ();
            v
        | exception e ->
            finish ();
            raise e)

let with_op kind f =
  if not !enabled then f ()
  else
    match !state with
    | None -> f ()
    | Some st when st.op <> None -> f () (* no nested ops: inner calls inherit *)
    | Some st ->
        let op =
          { op_start = Sim.Clock.now st.clock; acc = Array.make phase_count 0.0 }
        in
        st.op <- Some op;
        let finish () =
          st.op <- None;
          let total = Float.max 0.0 (Sim.Clock.now st.clock -. op.op_start) in
          let accounted = Array.fold_left ( +. ) 0.0 op.acc in
          let other = Float.max 0.0 (total -. accounted) in
          op.acc.(phase_index Other) <- op.acc.(phase_index Other) +. other;
          let k = kind_index kind in
          st.ops.(k) <- st.ops.(k) + 1;
          st.op_total_ns.(k) <- st.op_total_ns.(k) +. total;
          Array.iteri
            (fun i v ->
              if v > 0.0 then begin
                st.op_phase_ns.(i) <- st.op_phase_ns.(i) +. v;
                Util.Histogram.record st.histograms.(i) v
              end)
            op.acc;
          if Trace.is_enabled () then
            Trace.complete ("op." ^ kind_name kind) ~ts:op.op_start ~dur:total
              ~attrs:(fun () ->
                List.filter_map
                  (fun p ->
                    let v = op.acc.(phase_index p) in
                    if v > 0.0 then Some (phase_name p, Trace.Float v) else None)
                  all_phases)
        in
        (match f () with
        | v ->
            finish ();
            v
        | exception e ->
            finish ();
            raise e)

(* --- Coroutine context switching ---------------------------------------- *)

(* The books above assume one op at a time; coroutine clients break that
   by suspending mid-op. The scheduler brackets every slice with
   [restore_task]/[capture_task], so each task's live op and open frames
   follow it across suspensions instead of leaking into whichever task
   runs next. Between slices (DES callbacks, the scheduler itself) the
   detached state has no op — charges land in the background books. *)

type task_ctx = {
  t_op : op_ctx option;
  t_frames : frame list;
  t_absorb : int;
}

let empty_task_ctx = { t_op = None; t_frames = []; t_absorb = 0 }

let capture_task () =
  match !state with
  | None -> empty_task_ctx
  | Some st ->
      let c = { t_op = st.op; t_frames = st.frames; t_absorb = st.absorb_depth } in
      st.op <- None;
      st.frames <- [];
      st.absorb_depth <- 0;
      c

let restore_task c =
  match !state with
  | None -> ()
  | Some st ->
      st.op <- c.t_op;
      st.frames <- c.t_frames;
      st.absorb_depth <- c.t_absorb

(* --- Snapshots and exposition ------------------------------------------ *)

type snapshot = {
  reads : int;
  writes : int;
  scans : int;
  read_ns : float;
  write_ns : float;
  scan_ns : float;
  op_phases : (phase * float) list;  (* cumulative op-attributed ns, all phases *)
  bg_phases : (phase * float) list;  (* cumulative background ns, all phases *)
  phase_counts : (phase * int) list;
}

let empty_snapshot =
  {
    reads = 0;
    writes = 0;
    scans = 0;
    read_ns = 0.0;
    write_ns = 0.0;
    scan_ns = 0.0;
    op_phases = List.map (fun p -> (p, 0.0)) all_phases;
    bg_phases = List.map (fun p -> (p, 0.0)) all_phases;
    phase_counts = List.map (fun p -> (p, 0)) all_phases;
  }

let snapshot () =
  match !state with
  | None -> empty_snapshot
  | Some st ->
      {
        reads = st.ops.(0);
        writes = st.ops.(1);
        scans = st.ops.(2);
        read_ns = st.op_total_ns.(0);
        write_ns = st.op_total_ns.(1);
        scan_ns = st.op_total_ns.(2);
        op_phases = List.map (fun p -> (p, st.op_phase_ns.(phase_index p))) all_phases;
        bg_phases = List.map (fun p -> (p, st.bg_phase_ns.(phase_index p))) all_phases;
        phase_counts = List.map (fun p -> (p, st.counts.(phase_index p))) all_phases;
      }

let op_ns () = match !state with None -> 0.0 | Some st -> Array.fold_left ( +. ) 0.0 st.op_total_ns
let accounted_ns () =
  match !state with None -> 0.0 | Some st -> Array.fold_left ( +. ) 0.0 st.op_phase_ns

let register_metrics registry =
  List.iter
    (fun kind ->
      Registry.register_int registry ~kind:Registry.Counter
        ~help:(Printf.sprintf "Operations attributed by kind (%s)" (kind_name kind))
        (Printf.sprintf "attr.ops.%s" (kind_name kind))
        (fun () -> match !state with None -> 0 | Some st -> st.ops.(kind_index kind));
      Registry.register_float registry ~kind:Registry.Counter
        ~help:
          (Printf.sprintf "Total simulated ns spent in attributed %s operations"
             (kind_name kind))
        (Printf.sprintf "attr.op_ns.%s" (kind_name kind))
        (fun () ->
          match !state with None -> 0.0 | Some st -> st.op_total_ns.(kind_index kind)))
    op_kinds;
  List.iter
    (fun p ->
      let i = phase_index p in
      Registry.register_float registry ~kind:Registry.Counter
        ~help:
          (Printf.sprintf "Simulated ns attributed to the %s phase of user operations"
             (phase_name p))
        (Printf.sprintf "attr.phase_ns.%s" (phase_name p))
        (fun () -> match !state with None -> 0.0 | Some st -> st.op_phase_ns.(i));
      Registry.register_float registry ~kind:Registry.Counter
        ~help:
          (Printf.sprintf "Simulated ns of background work booked to the %s phase"
             (phase_name p))
        (Printf.sprintf "attr.bg_ns.%s" (phase_name p))
        (fun () -> match !state with None -> 0.0 | Some st -> st.bg_phase_ns.(i));
      Registry.register_histogram registry
        ~help:
          (Printf.sprintf "Per-operation ns contributed by the %s phase (nonzero only)"
             (phase_name p))
        (Printf.sprintf "attr.phase.%s" (phase_name p))
        (fun () ->
          match !state with
          | None -> Util.Histogram.create ()
          | Some st -> st.histograms.(i)))
    all_phases
