(* The range-sharded front door: N engines partitioned by key range behind
   one router, sharing the PM and SSD devices, the block cache, and the
   clock, while each shard owns its WAL, memtable, and manifest chain
   (the superblock root "shard<i>", at every shard count). It is the only
   way to build a durable engine ([Core.Engine.create_shard], and
   [Core.Engine.recover] after a crash) and, through [run_clients], to
   drive concurrent clients.

   Point operations have one path, the health-gated one: put_checked,
   delete_checked and get_checked return typed results, and [sink] wraps
   them for the workload generators. With breakers off (the default) and
   no deadline budget the gates cost nothing on the virtual clock.

   Writes route by binary search over the shard boundaries; cross-shard
   scans concatenate per-shard results in shard order — shards hold
   disjoint ranges, so the concatenation is globally ordered and
   duplicate-free by construction. Each shard also carries:

   - a {!Group_commit} batcher owning the WAL-sync durability point (an
     engine only stages its records; the committer's [Engine.sync_wal] is
     the one sync);
   - admission limits on the shard's compaction debt: [admit] turns the
     soft zone into relief steps on the idle worker (one partition each,
     priced by Eq. 2) and the hard limit into a stall;
   - one background worker, modelled as a [busy_until] horizon: a flush,
     relief step or forced compaction runs on the foreground clock, is
     rewound, and booked to the horizon — the *next* writer needing
     background work on that shard waits for the horizon first. One shard
     serialises all background work behind one horizon; N shards run N
     workers, which is exactly the concurrency a sharded store buys.

   Every level-0 choice is the engine's [Core.Policy]: the relief step,
   the out-of-PM rule inside [Core.Engine.flush], and each shard's slice
   of the level-0 budget. The router only decides who waits. *)

type shard = {
  s_idx : int;
  s_lo : string;
  s_hi : string;  (* exclusive upper bound; sentinel on the last shard *)
  engine : Core.Engine.t;
  gc : Group_commit.t;
  mutable busy_until : float;  (* background worker horizon *)
  (* admission: the clamped limits on the policy's pressure, and what
     the zones did *)
  soft_limit : int;
  hard_limit : int;
  mutable soft_admits : int;
  mutable relief_steps : int;
  mutable internal_steps : int;  (* relief steps priced internal by Eq. 2 *)
  mutable stalls : int;
  mutable stall_ns : float;  (* simulated ns writers spent hard-stalled *)
  (* gray-failure tolerance (lib/health): the breaker guards this shard's
     device neighbourhood, the trackers hold its healthy-latency
     baselines, and the ledger books every health-API op outcome *)
  breaker : Health.Breaker.t;
  read_tracker : Health.Tracker.t;
  write_tracker : Health.Tracker.t;
  ledger : Health.Ledger.t;
}

type t = {
  config : Core.Config.t;
  clock : Sim.Clock.t;
  pm : Pmem.t;
  ssd : Ssd.t;
  cache : Cache.Block_cache.t option;
  shards : shard array;
  (* Router-level op latencies: include dispatch, admission and
     group-commit waits the per-engine histograms cannot see. *)
  read_lat : Util.Histogram.t;
  write_lat : Util.Histogram.t;
  scan_lat : Util.Histogram.t;
  mutable puts : int;
  mutable gets : int;
  mutable deletes : int;
  mutable scans : int;
}

let max_key_sentinel = "\xff\xff\xff\xff\xff\xff\xff\xff"

(* Per-shard engine configuration: own name and seed, and the policy's
   slice of the shared level-0 budget. *)
let shard_config cfg n i =
  {
    (Core.Policy.shard_budget cfg ~shards:n) with
    Core.Config.name = Printf.sprintf "%s/shard%d" cfg.Core.Config.name i;
    shard_count = n;
    seed = cfg.Core.Config.seed + (131 * i);
  }

(* Fallback split: byte-uniform over the first key byte. Workload-aware
   callers pass real boundaries (see {!ycsb_boundaries}). *)
let default_boundaries n =
  List.init (n - 1) (fun i -> String.make 1 (Char.chr ((i + 1) * 256 / n)))

(* Shard ranges for [cfg.shard_count] shards; [] boundaries on several
   shards means the byte-uniform fallback split. *)
let ranges cfg boundaries =
  let n = max 1 cfg.Core.Config.shard_count in
  let boundaries = if boundaries = [] && n > 1 then default_boundaries n else boundaries in
  let boundaries = List.sort_uniq String.compare boundaries in
  if List.length boundaries <> n - 1 then
    invalid_arg
      (Printf.sprintf "Router: %d shards need %d boundaries, got %d" n (n - 1)
         (List.length boundaries));
  List.iter
    (fun b -> if b = "" then invalid_arg "Router: empty boundary key")
    boundaries;
  List.combine ("" :: boundaries) (boundaries @ [ max_key_sentinel ])

let ycsb_boundaries ~records ~shards =
  List.init (shards - 1) (fun i -> Util.Keys.ycsb_key (records * (i + 1) / shards))

let retail_boundaries ~tables ~shards =
  List.init (shards - 1) (fun i -> Util.Keys.table_prefix (tables * (i + 1) / shards))

let make_shards cfg mk_engine rs =
  let n = List.length rs in
  Array.of_list
    (List.mapi
       (fun i (lo, hi) ->
         (* its own manifest root on the shared SSD *)
         let engine =
           mk_engine ~manifest_root:(Printf.sprintf "shard%d" i) (shard_config cfg n i)
         in
         let soft = cfg.Core.Config.admission_soft_tables in
         {
           s_idx = i;
           s_lo = lo;
           s_hi = hi;
           engine;
           breaker = Health.Breaker.create (Core.Engine.clock engine);
           read_tracker = Health.Tracker.create ();
           write_tracker = Health.Tracker.create ();
           ledger = Health.Ledger.create ();
           gc =
             Group_commit.create
               ~name:(Printf.sprintf "shard%d" i)
               ~window_ns:cfg.Core.Config.group_commit_window_ns
               ~max_batch:cfg.Core.Config.group_commit_max;
           busy_until = 0.0;
           soft_limit = max 1 soft;
           hard_limit = max 2 (max soft cfg.Core.Config.admission_hard_tables);
           soft_admits = 0;
           relief_steps = 0;
           internal_steps = 0;
           stalls = 0;
           stall_ns = 0.0;
         })
       rs)

let make config clock pm ssd cache shards =
  {
    config;
    clock;
    pm;
    ssd;
    cache;
    shards;
    read_lat = Util.Histogram.create ();
    write_lat = Util.Histogram.create ();
    scan_lat = Util.Histogram.create ();
    puts = 0;
    gets = 0;
    deletes = 0;
    scans = 0;
  }

let create ?(boundaries = []) ?(clock = Sim.Clock.create ()) cfg =
  let rs = ranges cfg boundaries in
  let pm = Pmem.create ~params:cfg.Core.Config.pm_params clock in
  let ssd = Ssd.create ~params:cfg.Core.Config.ssd_params clock in
  let cache = Core.Engine.new_block_cache clock cfg in
  let shards = make_shards cfg (Core.Engine.create_shard ~pm ~ssd ~cache) rs in
  make cfg clock pm ssd cache shards

(* Rebuild every shard from the shared devices. Each shard recovers its
   own manifest chain, which collects nothing — one shard's view is too
   narrow to reclaim on a shared device — and the router then runs the
   one orphan GC over the union of the shards' in-memory manifest states
   as recovery left them (each names its shard's live ring). *)
let recover ?(boundaries = []) cfg ~pm ~ssd =
  let rs = ranges cfg boundaries in
  let clock = Pmem.clock pm in
  let cache = Core.Engine.new_block_cache clock cfg in
  let shards = make_shards cfg (Core.Engine.recover ~pm ~ssd ~cache) rs in
  let engines = Array.to_list (Array.map (fun s -> s.engine) shards) in
  Core.Engine.gc_orphans ~pm ~ssd ~states:(List.map Core.Engine.manifest_state engines);
  make cfg clock pm ssd cache shards

let config t = t.config
let clock t = t.clock
let pm t = t.pm
let ssd t = t.ssd
let block_cache t = t.cache
let shard_count t = Array.length t.shards
let engines t = Array.map (fun s -> s.engine) t.shards

(* Last shard whose lower bound is <= key (boundaries are sorted). *)
let shard_of t key =
  let n = Array.length t.shards in
  let rec bs lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if String.compare t.shards.(mid).s_lo key <= 0 then bs mid hi else bs lo (mid - 1)
  in
  bs 0 (n - 1)

(* --- Background worker model ------------------------------------------- *)

(* Wait for the shard's in-flight background job; false = nothing to wait
   for. The wait is the sharding bottleneck made visible: on one shard all
   flush/compaction jobs queue behind one horizon. *)
let wait_background t s =
  let now = Sim.Clock.now t.clock in
  if s.busy_until > now then begin
    Sim.Clock.advance_to t.clock s.busy_until;
    true
  end
  else false

(* Run [f] as the shard's background job: measured on the foreground
   clock, rewound (rebated), and booked to the worker horizon. The
   absorbing frame keeps attribution exact: the rewind happens inside
   it, so the op is charged only the post-rebate delta (the wait, if
   any) while [f]'s own flush/compaction detail lands in the background
   books. *)
let background_run t s f =
  Obs.Attr.with_phase Obs.Attr.Stall_wait @@ fun () ->
  ignore (wait_background t s);
  let t0 = Sim.Clock.now t.clock in
  let result = f () in
  let dt = Float.max 0.0 (Sim.Clock.now t.clock -. t0) in
  Sim.Clock.rewind t.clock dt;
  s.busy_until <- t0 +. dt;
  result

(* Conservative per-entry overhead (seq/CRC framing + skiplist node); only
   used to pre-trigger the background flush slightly before the engine's
   own inline threshold. *)
let entry_overhead = 64

(* Would a write of [bytes] fill the shard's memtable? Such a write hands
   the memtable to the background worker before the engine's inline
   (fully foreground) flush path would fire. *)
let will_flush s ~bytes =
  Core.Engine.memtable_bytes s.engine + bytes + entry_overhead
  >= (Core.Engine.config s.engine).Core.Config.memtable_bytes

(* --- Admission ---------------------------------------------------------- *)

(* Would [admit] stall a write to this shard now? *)
let shard_at_hard_limit s = Core.Engine.pressure s.engine >= s.hard_limit

(* Who waits. The signal is the policy's pressure, the shard's debt in
   level-0 runs: what a point read may probe, so a resident sorted run on
   PM is one run however many tables it holds. Below the soft limit a
   write passes untouched. In the soft zone it never waits: when the
   worker is idle and the write hands off no memtable (no write waits on
   a step it started itself), the worker takes one relief step
   ([Core.Engine.relieve]: one partition's compaction, priced by Eq. 2),
   so the debt falls while writers keep running. At the hard limit the
   writer stalls, riding the worker and forcing major compaction until
   the debt drops below the limit. *)
let admit t s ~hands_off =
  let d = Core.Engine.pressure s.engine in
  if d >= s.hard_limit then begin
    s.stalls <- s.stalls + 1;
    let t0 = Sim.Clock.now t.clock in
    Obs.Attr.with_phase Obs.Attr.Admission_stall (fun () ->
        (* Bounded: each round either rides a finishing background job or
           forces relief, and relief strictly shrinks level-0 — 64 rounds
           outlasts any realistic backlog, and the bound keeps a pathological
           configuration from wedging the writer forever. *)
        let rounds = ref 0 in
        while shard_at_hard_limit s && !rounds < 64 do
          incr rounds;
          if not (wait_background t s) then
            background_run t s (fun () -> Core.Engine.force_major_compaction s.engine)
        done);
    s.stall_ns <- s.stall_ns +. Float.max 0.0 (Sim.Clock.now t.clock -. t0)
  end
  else if d >= s.soft_limit then begin
    s.soft_admits <- s.soft_admits + 1;
    if not (hands_off || s.busy_until > Sim.Clock.now t.clock) then begin
      s.relief_steps <- s.relief_steps + 1;
      if background_run t s (fun () -> Core.Engine.relieve s.engine) = Some Core.Engine.Internal
      then s.internal_steps <- s.internal_steps + 1
    end
  end

(* --- Operations --------------------------------------------------------- *)

(* The gray-failure front door: dispatch, admission, background hand-off
   and group commit, plus per-shard circuit breaking, latency-vs-baseline
   fail-slow diagnosis, deadline budgets, and typed degraded answers.
   Breakers are consulted *before* any engine mutation, so a shed write
   provably never reached the store; a healthy shard never consults a
   sibling's breaker, so one sick device range cannot stall the rest. *)

let dispatch t key =
  Obs.Attr.with_phase Obs.Attr.Router_dispatch (fun () -> t.shards.(shard_of t key))

let durable t = t.config.Core.Config.durable

type write_result =
  | Acked
  | Write_shed of string
  | Write_failed of string

type read_result =
  | Served of string option
  | Served_degraded of { value : string option; reason : string }
  | Read_unavailable of string

let breaker_decision t s =
  if t.config.Core.Config.breaker_enabled then Health.Breaker.decide s.breaker
  else Health.Breaker.Allow

(* One operation latency against the shard's frozen baseline: a sample
   past [slow_factor] x baseline is diagnosed fail-slow and counts as a
   breaker failure even though it returned the right answer. The
   instantaneous comparison (not the EWMA) is deliberate — probes after
   the fault clears must read as healthy immediately, or a half-open
   breaker could never close. *)
let slow_factor = 8.0

let note_latency t s tracker lat =
  Health.Tracker.observe tracker lat;
  if t.config.Core.Config.breaker_enabled then
    if Health.Tracker.warmed_up tracker && lat >= slow_factor *. Health.Tracker.baseline tracker
    then Health.Breaker.record_failure s.breaker
    else Health.Breaker.record_success s.breaker

let note_error t s =
  if t.config.Core.Config.breaker_enabled then
    Health.Breaker.record_failure s.breaker

(* Absolute deadline for this op from the config's budget for its kind. *)
let deadline_of t kind =
  let budget =
    match kind with
    | `Read -> t.config.Core.Config.deadline_read_ns
    | `Write -> t.config.Core.Config.deadline_write_ns
  in
  if budget > 0.0 then Some (Sim.Clock.now t.clock +. budget) else None

(* Would queueing this write behind the shard's backlog blow its budget?
   Shedding at admission is the deadline-aware choice: the caller gets a
   typed refusal now instead of an ack that arrives too late to matter.
   The worker horizon only matters when *this* write would hand a full
   memtable to the background worker (that path waits for the horizon);
   a non-flushing write sails past a busy worker untouched. A shard at
   the hard limit would stall the write behind compaction relief. *)
let would_blow_deadline t s ~bytes deadline =
  let now = Sim.Clock.now t.clock in
  deadline -. now <= 0.0
  || (will_flush s ~bytes && s.busy_until -. now > deadline -. now)
  || shard_at_hard_limit s

let missed_deadline t deadline =
  match deadline with Some d -> Sim.Clock.now t.clock > d | None -> false

let apply_write t ~key ~bytes f =
  Obs.Attr.with_op Obs.Attr.Write @@ fun () ->
  let t0 = Sim.Clock.now t.clock in
  let s = dispatch t key in
  let deadline = deadline_of t `Write in
  let finish result =
    Util.Histogram.record t.write_lat (Float.max 0.0 (Sim.Clock.now t.clock -. t0));
    (match (result, missed_deadline t deadline) with
    | _, true -> Health.Ledger.record s.ledger Health.Ledger.Deadline_miss
    | Acked, false -> Health.Ledger.record s.ledger Health.Ledger.Ok_op
    | Write_shed _, false -> Health.Ledger.record s.ledger Health.Ledger.Shed
    | Write_failed _, false -> Health.Ledger.record s.ledger Health.Ledger.Failed);
    result
  in
  match breaker_decision t s with
  | Health.Breaker.Reject -> finish (Write_shed "breaker_open")
  | Health.Breaker.Allow | Health.Breaker.Probe -> (
      match deadline with
      | Some d when would_blow_deadline t s ~bytes d -> finish (Write_shed "deadline")
      | _ -> (
          match
            let hands_off = will_flush s ~bytes in
            admit t s ~hands_off;
            if hands_off then background_run t s (fun () -> Core.Engine.flush s.engine);
            (* Device time only: measured after admission and background
               hand-off, so stalls on a *healthy* shard do not read as
               fail-slow. *)
            let t1 = Sim.Clock.now t.clock in
            f s.engine;
            if durable t then Group_commit.commit s.gc s.engine;
            Sim.Clock.now t.clock -. t1
          with
          | device_ns ->
              note_latency t s s.write_tracker device_ns;
              finish Acked
          | exception Ssd.Io_error _ ->
              note_error t s;
              (* The write may or may not have reached the memtable/WAL
                 before the error surfaced — the caller must treat it as
                 ambiguous, exactly like a crash mid-op. *)
              finish (Write_failed "io_error")))

let put_checked ?(update = false) t ~key value =
  t.puts <- t.puts + 1;
  apply_write t ~key
    ~bytes:(String.length key + String.length value)
    (fun engine -> Core.Engine.put ~update engine ~key value)

let delete_checked t key =
  t.deletes <- t.deletes + 1;
  apply_write t ~key ~bytes:(String.length key) (fun engine ->
      Core.Engine.delete engine key)

let get_checked t key =
  t.gets <- t.gets + 1;
  Obs.Attr.with_op Obs.Attr.Read @@ fun () ->
  let t0 = Sim.Clock.now t.clock in
  let s = dispatch t key in
  let deadline = deadline_of t `Read in
  let finish result =
    Util.Histogram.record t.read_lat (Float.max 0.0 (Sim.Clock.now t.clock -. t0));
    (match (result, missed_deadline t deadline) with
    | _, true -> Health.Ledger.record s.ledger Health.Ledger.Deadline_miss
    | Served _, false -> Health.Ledger.record s.ledger Health.Ledger.Ok_op
    | Served_degraded _, false -> Health.Ledger.record s.ledger Health.Ledger.Degraded
    | Read_unavailable _, false ->
        Health.Ledger.record s.ledger Health.Ledger.Unavailable);
    result
  in
  (* Degraded fallback: the memtable + PM level-0 never touch the sick
     SSD, and a hit there is exact (strictly newer than anything below). *)
  let pm_only reason_hit reason_miss =
    match Core.Engine.get_pm_only s.engine key with
    | `Hit v -> finish (Served_degraded { value = v; reason = reason_hit })
    | `Miss -> finish (Read_unavailable reason_miss)
  in
  match breaker_decision t s with
  | Health.Breaker.Reject -> pm_only "breaker_open_pm" "breaker_open"
  | Health.Breaker.Allow | Health.Breaker.Probe -> (
      match Core.Engine.get s.engine key with
      | v ->
          note_latency t s s.read_tracker (Sim.Clock.now t.clock -. t0);
          finish (Served v)
      | exception Core.Engine.Degraded_read e ->
          (* Integrity degradation (quarantine crossing) is the medium's
             rot, not the device's sickness: the device answered fine. *)
          note_latency t s s.read_tracker (Sim.Clock.now t.clock -. t0);
          finish
            (Served_degraded
               { value = e.Core.Engine.fallback; reason = "quarantine" })
      | exception Ssd.Io_error _ ->
          note_error t s;
          pm_only "io_error_pm" "io_error")

(* Shards overlapping [start, stop), in range order. *)
let overlapping t ~start ~stop =
  let acc = ref [] in
  for i = Array.length t.shards - 1 downto 0 do
    let s = t.shards.(i) in
    if String.compare s.s_lo stop < 0 && String.compare start s.s_hi < 0 then
      acc := s :: !acc
  done;
  !acc

let max_str a b = if String.compare a b >= 0 then a else b

let scan_range t ~start ~stop =
  t.scans <- t.scans + 1;
  Obs.Attr.with_op Obs.Attr.Scan @@ fun () ->
  let t0 = Sim.Clock.now t.clock in
  let r =
    overlapping t ~start ~stop
    |> List.concat_map (fun s ->
           Core.Engine.scan_range s.engine ~start:(max_str start s.s_lo)
             ~stop:(if String.compare stop s.s_hi <= 0 then stop else s.s_hi))
  in
  Util.Histogram.record t.scan_lat (Float.max 0.0 (Sim.Clock.now t.clock -. t0));
  r

(* Bounded scan: the shard holding [start] first, then successive shards
   until [limit] pairs (each shard's answer is short only when its range
   is exhausted). *)
let scan t ~start ~limit =
  t.scans <- t.scans + 1;
  Obs.Attr.with_op Obs.Attr.Scan @@ fun () ->
  let t0 = Sim.Clock.now t.clock in
  let n = Array.length t.shards in
  let rec go i from remaining acc =
    if remaining <= 0 || i >= n then List.concat (List.rev acc)
    else
      let s = t.shards.(i) in
      let got = Core.Engine.scan s.engine ~start:(max_str from s.s_lo) ~limit:remaining in
      go (i + 1) s.s_hi (remaining - List.length got) (got :: acc)
  in
  let r = go (shard_of t start) start limit [] in
  Util.Histogram.record t.scan_lat (Float.max 0.0 (Sim.Clock.now t.clock -. t0));
  r

let flush t = Array.iter (fun s -> Core.Engine.flush s.engine) t.shards

let close t = flush t

(* --- Group-commit mode -------------------------------------------------- *)

let enable_group_commit t sched =
  let san = Coroutine.Scheduler.sanitizer sched in
  Array.iter (fun s -> Group_commit.set_mode s.gc Group_commit.Batch ~san) t.shards

let disable_group_commit t =
  Array.iter (fun s -> Group_commit.set_mode s.gc Group_commit.Sync ~san:None) t.shards

(* --- Closed-loop clients ------------------------------------------------ *)

(* The one client harness: a yield after every step, group commit while
   the router is durable. *)
let run_clients t ~clients ~per_client step =
  let des = Sim.Des.create t.clock in
  let sched =
    Coroutine.Scheduler.create ~cores:1
      ~policy:(Coroutine.Scheduler.Cooperative { switch_cost = 0.0 })
      des t.ssd
  in
  if durable t then enable_group_commit t sched;
  for c = 0 to clients - 1 do
    Coroutine.Scheduler.spawn ~name:(Printf.sprintf "client-%d" c) sched 0 (fun () ->
        for i = 0 to per_client - 1 do
          step c i;
          Coroutine.Co.yield ()
        done)
  done;
  ignore (Coroutine.Scheduler.run_to_completion sched);
  disable_group_commit t;
  sched

(* --- Aggregates --------------------------------------------------------- *)

let sum f t = Array.fold_left (fun acc s -> acc + f s) 0 t.shards
let sumf f t = Array.fold_left (fun acc s -> acc +. f s) 0.0 t.shards

let stall_count t = sum (fun s -> s.stalls) t
let shard_stall_count t i = t.shards.(i).stalls
let at_hard_limit t = Array.exists shard_at_hard_limit t.shards
let stall_ns t = sumf (fun s -> s.stall_ns) t
let soft_delays t = sum (fun s -> s.soft_admits) t
let relief_steps t = sum (fun s -> s.relief_steps) t
let relief_steps_internal t = sum (fun s -> s.internal_steps) t
let gc_batches t = sum (fun s -> Group_commit.batches s.gc) t
let gc_synced_entries t = sum (fun s -> Group_commit.synced_entries s.gc) t

let gc_mean_batch t =
  let b = gc_batches t in
  if b = 0 then 0.0 else float_of_int (gc_synced_entries t) /. float_of_int b

let gc_size_hist t =
  let h = Util.Histogram.create () in
  Array.iter (fun s -> Util.Histogram.merge h (Group_commit.size_hist s.gc)) t.shards;
  h

(* Store-wide engine figures: engine counters summed over the shards,
   device counters read once from the shared devices. With one shard
   each equals the engine's own figure. *)
let metrics t =
  Core.Metrics.sum (Array.to_list (Array.map (fun s -> Core.Engine.metrics s.engine) t.shards))

let pipeline_stats t =
  Compaction.Pipeline.sum_totals
    (Array.to_list (Array.map (fun s -> Core.Engine.pipeline_stats s.engine) t.shards))

let l0_bytes t = sum (fun s -> Core.Engine.l0_bytes s.engine) t
let space_bytes t = sum (fun s -> Core.Engine.space_bytes s.engine) t
let logical_bytes t = sum (fun s -> Core.Engine.logical_bytes s.engine) t
let compaction_debt_bytes t = sum (fun s -> Core.Engine.compaction_debt_bytes s.engine) t
let debt_runs t = sum (fun s -> Core.Engine.pressure s.engine) t
let sum_metric f t = sum (fun s -> f (Core.Engine.metrics s.engine)) t

let write_amplification t =
  float_of_int ((Pmem.stats t.pm).Pmem.bytes_written + (Ssd.stats t.ssd).Ssd.bytes_written)
  /. float_of_int (max 1 (sum_metric (fun m -> m.Core.Metrics.user_bytes_written) t))

let read_amplification t =
  float_of_int ((Pmem.stats t.pm).Pmem.bytes_read + (Ssd.stats t.ssd).Ssd.bytes_read)
  /. float_of_int (max 1 (sum_metric (fun m -> m.Core.Metrics.user_bytes_read) t))

let read_latency t = t.read_lat
let write_latency t = t.write_lat
let scan_latency t = t.scan_lat
let dispatched t = t.puts + t.gets + t.deletes + t.scans

(* --- Health introspection ----------------------------------------------- *)

type shard_health = {
  h_idx : int;
  h_lo : string;
  h_state : Health.Breaker.state;
  h_error_rate : float;
  h_trips : int;
  h_rejections : int;
  h_read_slow : float;  (* read EWMA / baseline *)
  h_write_slow : float;
  h_ledger : Health.Ledger.t;
}

let shard_breaker t i = t.shards.(i).breaker
let shard_ledger t i = t.shards.(i).ledger

let reset_health_baselines t =
  Array.iter
    (fun s ->
      Health.Tracker.reset_ewma s.read_tracker;
      Health.Tracker.reset_ewma s.write_tracker)
    t.shards

let health t =
  Array.map
    (fun s ->
      {
        h_idx = s.s_idx;
        h_lo = s.s_lo;
        h_state = Health.Breaker.state s.breaker;
        h_error_rate = Health.Breaker.error_rate s.breaker;
        h_trips = Health.Breaker.trips s.breaker;
        h_rejections = Health.Breaker.rejections s.breaker;
        h_read_slow = Health.Tracker.slow_factor s.read_tracker;
        h_write_slow = Health.Tracker.slow_factor s.write_tracker;
        h_ledger = s.ledger;
      })
    t.shards

let ledger_totals t =
  let total = Health.Ledger.create () in
  Array.iter (fun s -> Health.Ledger.merge ~into:total s.ledger) t.shards;
  total

let breaker_trips t = sum (fun s -> Health.Breaker.trips s.breaker) t
let breaker_rejections t = sum (fun s -> Health.Breaker.rejections s.breaker) t

let pp_health ppf t =
  Fmt.pf ppf "@[<v>health: breakers %s, %d trips, %d rejections@,"
    (if t.config.Core.Config.breaker_enabled then "on" else "off")
    (breaker_trips t) (breaker_rejections t);
  Fmt.pf ppf "  totals: %a@," Health.Ledger.pp (ledger_totals t);
  Array.iter
    (fun h ->
      Fmt.pf ppf "  shard %d: %a err_rate=%.2f slow r/w %.1fx/%.1fx %a@," h.h_idx
        Health.Breaker.pp_state h.h_state h.h_error_rate h.h_read_slow
        h.h_write_slow Health.Ledger.pp h.h_ledger)
    (health t);
  Fmt.pf ppf "@]"

(* The workload generators want plain answers: anything but [Acked] or
   [Served] raises [Failure] naming the outcome. *)
let sink t =
  let acked = function
    | Acked -> ()
    | Write_shed why -> failwith ("Router: write shed: " ^ why)
    | Write_failed why -> failwith ("Router: write failed: " ^ why)
  in
  {
    Workload.Sink.put = (fun ~update ~key value -> acked (put_checked ~update t ~key value));
    delete = (fun key -> acked (delete_checked t key));
    get =
      (fun key ->
        match get_checked t key with
        | Served v -> v
        | Served_degraded { reason; _ } -> failwith ("Router: read degraded: " ^ reason)
        | Read_unavailable why -> failwith ("Router: read unavailable: " ^ why));
    scan = (fun ~start ~limit -> scan t ~start ~limit);
    scan_range = (fun ~start ~stop -> scan_range t ~start ~stop);
  }

(* Checker reads bypass the breakers: they ask the owning engine, and the
   iterator walks the shards in order. *)
let view t =
  let owner key = t.shards.(shard_of t key).engine in
  {
    Fault.Checker.v_scan_all = (fun () -> scan_range t ~start:"" ~stop:max_key_sentinel);
    v_get = (fun key -> Core.Engine.get (owner key) key);
    v_iter_all =
      (fun () ->
        Array.to_list t.shards
        |> List.concat_map (fun s -> (Fault.Checker.view_of_engine s.engine).v_iter_all ()));
    v_damaged = (fun key -> Core.Engine.damaged_key (owner key) key);
  }

(* --- Observability ------------------------------------------------------ *)

let pp_stats ppf t =
  Fmt.pf ppf "@[<v>%s router: %d shards@," t.config.Core.Config.name
    (Array.length t.shards);
  Fmt.pf ppf "  dispatched: %d puts, %d gets, %d deletes, %d scans@," t.puts t.gets
    t.deletes t.scans;
  Fmt.pf ppf "  admission: %d stalls (%a), %d soft-zone writes, %d relief steps (%d internal)@,"
    (stall_count t) Sim.Clock.pp_duration (stall_ns t) (soft_delays t) (relief_steps t)
    (relief_steps_internal t);
  (let b = gc_batches t in
   if b > 0 then
     Fmt.pf ppf "  group commit: %d batches, %d entries, mean batch %.2f@," b
       (gc_synced_entries t) (gc_mean_batch t));
  Core.Metrics.pp_latencies ppf ~read:t.read_lat ~write:t.write_lat ~scan:t.scan_lat;
  Array.iter
    (fun s ->
      Fmt.pf ppf
        "  shard %d [%S, %s): stalls %d, steps %d (%d internal), batches %d, debt %d runs@,"
        s.s_idx s.s_lo
        (if s.s_hi = max_key_sentinel then "<max>" else Printf.sprintf "%S" s.s_hi)
        s.stalls s.relief_steps s.internal_steps
        (Group_commit.batches s.gc)
        (Core.Engine.pressure s.engine))
    t.shards;
  Array.iter (fun s -> Fmt.pf ppf "@,%a" Core.Engine.pp_stats s.engine) t.shards;
  Fmt.pf ppf "@]"

(* The engine families, each once for the whole store: counters summed
   over the shards, histograms merged, device ratios from the shared
   devices. Every readout pulls at exposition time. *)
let register_engine_metrics reg t =
  let open Obs.Registry in
  let m f () = f (metrics t) in
  let int name ~help f = register_int reg name ~help (m f) in
  int "engine.reads" ~help:"point lookups" (fun m -> m.Core.Metrics.reads);
  int "engine.writes" ~help:"puts and deletes" (fun m -> m.Core.Metrics.writes);
  int "engine.scans" ~help:"range scans and iterator windows" (fun m -> m.Core.Metrics.scans);
  int "engine.reads_from_memtable" ~help:"reads served by the memtable" (fun m ->
      m.Core.Metrics.reads_from_memtable);
  int "engine.reads_from_pm" ~help:"reads served by PM level-0" (fun m ->
      m.Core.Metrics.reads_from_pm);
  int "engine.reads_from_ssd" ~help:"reads served by the SSD levels" (fun m ->
      m.Core.Metrics.reads_from_ssd);
  int "engine.reads_not_found" ~help:"point lookups that found no value" (fun m ->
      m.Core.Metrics.reads_not_found);
  register_float reg "engine.pm_hit_ratio" ~help:"reads served without touching the SSD"
    (m Core.Metrics.pm_hit_ratio);
  int "engine.user_bytes_written" ~help:"encoded key+value bytes accepted from the user"
    (fun m -> m.Core.Metrics.user_bytes_written);
  int "engine.user_bytes_read" ~help:"key+value bytes returned to the user by gets and scans"
    (fun m -> m.Core.Metrics.user_bytes_read);
  int "engine.minor_compactions" ~help:"memtable flushes into level-0" (fun m ->
      m.Core.Metrics.minor_compactions);
  int "engine.internal_compactions" ~help:"level-0 unsorted-to-sorted merges inside PM"
    (fun m -> m.Core.Metrics.internal_compactions);
  int "engine.major_compactions" ~help:"level-0 pushes into the SSD levels" (fun m ->
      m.Core.Metrics.major_compactions);
  register_float reg "engine.internal_compaction_time_ns" ~kind:Counter
    ~help:"simulated ns spent in internal compaction"
    (m (fun m -> m.Core.Metrics.internal_compaction_time));
  register_float reg "engine.major_compaction_time_ns" ~kind:Counter
    ~help:"simulated ns spent in major compaction"
    (m (fun m -> m.Core.Metrics.major_compaction_time));
  int "engine.ssd_retries" ~help:"transient SSD errors retried with backoff" (fun m ->
      m.Core.Metrics.ssd_retries);
  int "engine.quarantined" ~help:"structures pulled from the read path on corruption"
    (fun m -> m.Core.Metrics.quarantined);
  int "engine.degraded_reads" ~help:"reads/scans that crossed a quarantine" (fun m ->
      m.Core.Metrics.degraded_reads);
  int "engine.salvaged" ~help:"corrupt tables rebuilt by the scrubber" (fun m ->
      m.Core.Metrics.salvaged);
  int "engine.wal_corrupt_records" ~help:"rotten WAL records skipped at replay" (fun m ->
      m.Core.Metrics.wal_corrupt_records);
  int "engine.fence_rebuilds" ~help:"fence-pointer sets rebuilt after structural changes"
    (fun m -> m.Core.Metrics.fence_rebuilds);
  let wal_stat f =
    sum (fun s -> match Core.Engine.wal s.engine with Some w -> f w | None -> 0) t
  in
  let wal name ?(kind = Counter) ~help f =
    register_int reg name ~kind ~help (fun () -> wal_stat f)
  in
  wal "wal.syncs" ~help:"WAL group syncs (one ring write + one fence each)" (fun w ->
      (Core.Wal.stats w).Core.Wal.syncs);
  wal "wal.bytes" ~help:"framed WAL bytes made durable on the PM ring" (fun w ->
      (Core.Wal.stats w).Core.Wal.bytes);
  wal "wal.lines_flushed" ~help:"cache lines the WAL wrote back (clwb)" (fun w ->
      (Core.Wal.stats w).Core.Wal.lines);
  wal "wal.fences" ~help:"persistence fences issued by WAL syncs" (fun w ->
      (Core.Wal.stats w).Core.Wal.fences);
  wal "wal.ring_capacity_bytes" ~kind:Gauge ~help:"size of the WAL's PM ring region"
    Core.Wal.capacity;
  wal "wal.ring_high_water_bytes" ~kind:Gauge
    ~help:"deepest WAL ring fill reached, across rotations" (fun w ->
      (Core.Wal.stats w).Core.Wal.high_water);
  int "wal.ring_full_flushes"
    ~help:"memtable flushes forced because a WAL sync would overflow the ring" (fun m ->
      m.Core.Metrics.wal_ring_full_flushes);
  register_int reg "pmtable.bloom_probes" ~help:"gets that consulted a PM-table bloom"
    (fun () -> !Pmtable.Pm_table.bloom_probes);
  register_int reg "pmtable.bloom_negatives"
    ~help:"gets answered absent by a PM-table bloom without touching PM" (fun () ->
      !Pmtable.Pm_table.bloom_negatives);
  register_float reg "pmtable.bloom_filter_rate"
    ~help:"fraction of bloom probes answered absent without touching PM" (fun () ->
      let probes = !Pmtable.Pm_table.bloom_probes in
      if probes = 0 then 0.0
      else float_of_int !Pmtable.Pm_table.bloom_negatives /. float_of_int probes);
  register_int reg "manifest.fallback" ~help:"dual-slot manifest fallbacks at load"
    (fun () -> Core.Manifest.fallback_count ());
  let gauge name ~help f = register_int reg name ~kind:Gauge ~help (fun () -> f t) in
  gauge "engine.partitions" ~help:"live range partitions"
    (sum (fun s -> Array.length (Core.Engine.partitions s.engine)));
  gauge "engine.l0_bytes" ~help:"PM level-0 resident bytes" l0_bytes;
  gauge "engine.memtable_bytes" ~help:"bytes buffered in the active memtable"
    (sum (fun s -> Core.Engine.memtable_bytes s.engine));
  gauge "engine.memtable_entries" ~help:"entries buffered in the active memtable"
    (sum (fun s -> Core.Engine.memtable_entries s.engine));
  register_float reg "engine.write_amplification"
    ~help:"device bytes written per user byte written (WAF)" (fun () ->
      write_amplification t);
  register_float reg "engine.read_amplification"
    ~help:"device bytes read per user byte returned (RAF)" (fun () ->
      read_amplification t);
  gauge "engine.space_bytes" ~help:"physical live bytes across PM and SSD structures"
    space_bytes;
  gauge "engine.compaction_debt_bytes"
    ~help:"level-0 backlog bytes (both media) awaiting compaction" compaction_debt_bytes;
  gauge "engine.compaction_debt_runs"
    ~help:"level-0 runs a point read may probe (unsorted PM tables, the sorted run, SSD L0 tables)"
    debt_runs;
  register_histogram reg "engine.read_latency_ns" ~help:"point-lookup latency in ns"
    (m (fun m -> m.Core.Metrics.read_latency));
  register_histogram reg "engine.write_latency_ns" ~help:"write latency in ns"
    (m (fun m -> m.Core.Metrics.write_latency));
  register_histogram reg "engine.scan_latency_ns" ~help:"scan latency in ns"
    (m (fun m -> m.Core.Metrics.scan_latency))

let register_metrics reg t =
  let open Obs.Registry in
  register_int reg "shard.count" ~kind:Gauge ~help:"live range shards behind the router"
    (fun () -> Array.length t.shards);
  register_int reg "shard.dispatch.puts" ~help:"puts routed to a shard" (fun () -> t.puts);
  register_int reg "shard.dispatch.gets" ~help:"gets routed to a shard" (fun () -> t.gets);
  register_int reg "shard.dispatch.deletes" ~help:"deletes routed to a shard" (fun () ->
      t.deletes);
  register_int reg "shard.dispatch.scans" ~help:"scans fanned out across shards"
    (fun () -> t.scans);
  register_int reg "shard.stall_count" ~help:"writes hard-stalled by admission control"
    (fun () -> stall_count t);
  register_float reg "shard.stall_ns" ~kind:Counter
    ~help:"simulated ns writers spent hard-stalled at admission" (fun () -> stall_ns t);
  register_int reg "shard.soft_delays" ~help:"writes admitted in the admission soft zone"
    (fun () -> soft_delays t);
  register_int reg "shard.relief_steps"
    ~help:"soft-zone relief steps (one partition's compaction each) run on idle workers"
    (fun () -> relief_steps t);
  register_int reg "shard.relief_steps_internal"
    ~help:"relief steps that Eq. 2 priced as an internal compaction on PM"
    (fun () -> relief_steps_internal t);
  register_int reg "shard.gc.batches" ~help:"group-commit batches synced" (fun () ->
      gc_batches t);
  register_int reg "shard.gc.synced_entries"
    ~help:"WAL records made durable by group-commit syncs" (fun () ->
      gc_synced_entries t);
  register_float reg "shard.gc.mean_batch" ~help:"mean writers per group-commit batch"
    (fun () -> gc_mean_batch t);
  register_histogram reg "shard.gc.batch_size" ~help:"group-commit batch size distribution"
    (fun () -> gc_size_hist t);
  register_histogram reg "shard.read_latency_ns"
    ~help:"router-level point-lookup latency (dispatch + engine) in ns" (fun () ->
      t.read_lat);
  register_histogram reg "shard.write_latency_ns"
    ~help:"router-level write latency (admission + engine + group commit) in ns"
    (fun () -> t.write_lat);
  register_histogram reg "shard.scan_latency_ns"
    ~help:"router-level scan latency (cross-shard merge) in ns" (fun () -> t.scan_lat);
  register_int reg "shard.health.breaker_trips"
    ~help:"circuit-breaker open transitions across all shards" (fun () ->
      breaker_trips t);
  register_int reg "shard.health.breaker_rejections"
    ~help:"operations fast-rejected by an open shard breaker" (fun () ->
      breaker_rejections t);
  register_int reg "shard.health.ok" ~help:"health-API ops answered normally in budget"
    (fun () -> Health.Ledger.ok (ledger_totals t));
  register_int reg "shard.health.degraded"
    ~help:"health-API ops answered via a typed degraded path" (fun () ->
      Health.Ledger.degraded (ledger_totals t));
  register_int reg "shard.health.shed"
    ~help:"health-API writes refused at admission before any engine mutation"
    (fun () -> Health.Ledger.shed (ledger_totals t));
  register_int reg "shard.health.unavailable"
    ~help:"health-API reads refused with no degraded answer available" (fun () ->
      Health.Ledger.unavailable (ledger_totals t));
  register_int reg "shard.health.failed"
    ~help:"health-API ops that surfaced a typed ambiguous failure" (fun () ->
      Health.Ledger.failed (ledger_totals t));
  register_int reg "shard.health.deadline_miss"
    ~help:"health-API ops whose answer arrived past its deadline budget" (fun () ->
      Health.Ledger.deadline_miss (ledger_totals t));
  Array.iter
    (fun s ->
      let p fmt = Printf.sprintf fmt s.s_idx in
      register_int reg (p "shard%d.debt_runs") ~kind:Gauge
        ~help:"level-0 runs of this shard (the admission signal)" (fun () ->
          Core.Engine.pressure s.engine);
      register_int reg (p "shard%d.l0_bytes") ~kind:Gauge
        ~help:"PM level-0 resident bytes of this shard" (fun () ->
          Core.Engine.l0_bytes s.engine);
      register_int reg (p "shard%d.stalls") ~help:"admission hard stalls at this shard"
        (fun () -> s.stalls);
      register_int reg (p "shard%d.gc.batches")
        ~help:"group-commit batches synced by this shard" (fun () ->
          Group_commit.batches s.gc);
      register_int reg (p "shard%d.breaker_state") ~kind:Gauge
        ~help:"circuit-breaker state of this shard (0 closed, 1 half-open, 2 open)"
        (fun () ->
          match Health.Breaker.state s.breaker with
          | Health.Breaker.Closed -> 0
          | Health.Breaker.Half_open -> 1
          | Health.Breaker.Open -> 2))
    t.shards;
  register_engine_metrics reg t;
  Obs.Attr.register_metrics reg;
  Compaction.Pipeline.register_metrics reg (fun () -> pipeline_stats t);
  (match t.cache with Some c -> Cache.Block_cache.register_metrics reg c | None -> ());
  (match Pmem.sanitizer t.pm with
  | Some san -> Sanitize.Pmsan.register_metrics san reg
  | None -> ());
  Pmem.register_metrics reg t.pm;
  Ssd.register_metrics reg t.ssd
