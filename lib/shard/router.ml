(* The range-sharded front door: N engines partitioned by key range behind
   one router, sharing the PM and SSD devices, the block cache, and the
   clock, while each shard owns its WAL, memtable, and manifest chain (a
   named superblock root slot per shard).

   Point operations have one path, the health-gated one: put_checked,
   delete_checked and get_checked return typed results, and [sink] wraps
   them for the workload generators. With breakers off (the default) and
   no deadline budget the gates cost nothing on the virtual clock.

   Writes route by binary search over the shard boundaries; cross-shard
   scans concatenate per-shard results in shard order — shards hold
   disjoint ranges, so the concatenation is globally ordered and
   duplicate-free by construction. Each shard also carries:

   - a {!Group_commit} batcher owning the WAL-sync durability point
     (shard engines run [wal_external_sync]);
   - an {!Admission} gate turning the shard's compaction debt into relief
     steps on the idle worker (soft zone; deeper near the hard limit once
     the shard has stalled despite them) or a hard stall;
   - one background worker, modelled as a [busy_until] horizon: a flush,
     relief step or forced compaction runs on the foreground clock, is
     rewound (the repo's overlap-rebate idiom, cf.
     [Engine.with_major_timing]), and booked to the horizon — the *next* writer needing background work on
     that shard waits for the horizon first. One shard serialises all
     background work behind one horizon; N shards run N workers, which is
     exactly the concurrency a sharded store buys. *)

type shard = {
  s_idx : int;
  s_lo : string;
  s_hi : string;  (* exclusive upper bound; sentinel on the last shard *)
  engine : Core.Engine.t;
  gc : Group_commit.t;
  adm : Admission.t;
  mutable busy_until : float;  (* background worker horizon *)
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

(* Per-shard engine configuration: own namespace (manifest root, name,
   seed), shared-budget slices (level-0 capacity and the cost-model
   thresholds split N ways so the shards together spend the configured
   budget), and the WAL durability point handed to the group committer. *)
let shard_config cfg n i =
  let scale x = max 1 (x / n) in
  let l0_strategy =
    match cfg.Core.Config.l0_strategy with
    | Core.Config.Cost_based p ->
        Core.Config.Cost_based
          {
            p with
            Compaction.Cost_model.tau_m = scale p.Compaction.Cost_model.tau_m;
            tau_t = scale p.Compaction.Cost_model.tau_t;
          }
    | Core.Config.Conventional { max_tables; max_bytes } ->
        Core.Config.Conventional { max_tables; max_bytes = Option.map scale max_bytes }
    | Core.Config.Matrix { columns; trigger_bytes } ->
        Core.Config.Matrix { columns; trigger_bytes = scale trigger_bytes }
  in
  {
    cfg with
    Core.Config.name = Printf.sprintf "%s/shard%d" cfg.Core.Config.name i;
    l0_capacity = scale cfg.Core.Config.l0_capacity;
    l0_strategy;
    manifest_root = (if n = 1 then "" else Printf.sprintf "shard%d" i);
    wal_external_sync = cfg.Core.Config.durable;
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

let shared_cache clock cfg =
  if cfg.Core.Config.block_cache_mb > 0 then
    Some
      (Cache.Block_cache.create ~clock
         ~capacity_bytes:(cfg.Core.Config.block_cache_mb * 1024 * 1024) ())
  else None

let make_shards cfg mk_engine rs =
  let n = List.length rs in
  Array.of_list
    (List.mapi
       (fun i (lo, hi) ->
         let scfg = shard_config cfg n i in
         let engine = mk_engine scfg in
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
           adm =
             Admission.create
               ~clock:(Core.Engine.clock engine)
               ~soft_tables:cfg.Core.Config.admission_soft_tables
               ~hard_tables:cfg.Core.Config.admission_hard_tables;
           busy_until = 0.0;
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
  if not cfg.Core.Config.sanitize then Pmem.set_sanitizer pm None;
  let ssd = Ssd.create ~params:cfg.Core.Config.ssd_params clock in
  let cache = shared_cache clock cfg in
  let shards = make_shards cfg (fun scfg -> Core.Engine.create ~pm ~ssd ?cache scfg) rs in
  make cfg clock pm ssd cache shards

(* Rebuild every shard from the shared devices. Each shard recovers its
   own manifest chain with [~orphan_gc:false] — one shard's view is too
   narrow to reclaim on a shared device — and the router then runs the
   orphan GC once over the union of the shards' in-memory manifest states
   as recovery left them (each names its shard's live ring). *)
let recover ?(boundaries = []) cfg ~pm ~ssd =
  let rs = ranges cfg boundaries in
  let clock = Pmem.clock pm in
  let cache = shared_cache clock cfg in
  let shards =
    make_shards cfg (fun scfg -> Core.Engine.recover ~orphan_gc:false ?cache scfg ~pm ~ssd) rs
  in
  let engines = Array.to_list (Array.map (fun s -> s.engine) shards) in
  Core.Engine.gc_orphans ~pm ~ssd ~states:(List.map Core.Engine.manifest_state engines)
    ~rings:[];
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
  f ();
  let dt = Float.max 0.0 (Sim.Clock.now t.clock -. t0) in
  Sim.Clock.rewind t.clock dt;
  s.busy_until <- t0 +. dt

let flush_engine s =
  let attempts = ref 0 in
  let rec go () =
    try Core.Engine.flush s.engine
    with Pmem.Out_of_space _ when !attempts < 32 ->
      incr attempts;
      Core.Engine.force_major_compaction s.engine;
      go ()
  in
  go ()

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

(* Absolute deadline for this op; explicit argument wins over config. *)
let deadline_of t kind deadline_ns =
  let budget =
    match deadline_ns with
    | Some d -> d
    | None -> (
        match kind with
        | `Read -> t.config.Core.Config.deadline_read_ns
        | `Write -> t.config.Core.Config.deadline_write_ns)
  in
  if budget > 0.0 then Some (Sim.Clock.now t.clock +. budget) else None

(* Would queueing this write behind the shard's backlog blow its budget?
   Shedding at admission is the deadline-aware choice: the caller gets a
   typed refusal now instead of an ack that arrives too late to matter.
   The worker horizon only matters when *this* write would hand a full
   memtable to the background worker (that path waits for the horizon);
   a non-flushing write sails past a busy worker untouched. A shard at
   admission's hard limit would stall the write behind compaction relief. *)
let would_blow_deadline t s ~bytes deadline =
  let now = Sim.Clock.now t.clock in
  deadline -. now <= 0.0
  || (will_flush s ~bytes && s.busy_until -. now > deadline -. now)
  || Admission.at_hard_limit s.adm s.engine

let missed_deadline t deadline =
  match deadline with Some d -> Sim.Clock.now t.clock > d | None -> false

let apply_write ?deadline_ns t ~key ~bytes f =
  Obs.Attr.with_op Obs.Attr.Write @@ fun () ->
  let t0 = Sim.Clock.now t.clock in
  let s = dispatch t key in
  let deadline = deadline_of t `Write deadline_ns in
  Obs.Attr.set_deadline deadline;
  let finish result =
    Obs.Attr.set_deadline None;
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
            (* A soft-zone step goes only to an idle worker, and never from
               a write that hands off a memtable: no write waits on a step
               it started itself. *)
            let step =
              if hands_off || s.busy_until > Sim.Clock.now t.clock then None
              else
                Some
                  (fun ~below ->
                    background_run t s (fun () -> Core.Engine.relieve_step ~below s.engine))
            in
            Admission.admit s.adm s.engine
              ~wait_background:(fun () -> wait_background t s)
              ~relieve:(fun () ->
                background_run t s (fun () ->
                    Core.Engine.force_internal_compaction s.engine;
                    Core.Engine.force_major_compaction s.engine))
              ~step;
            if hands_off then background_run t s (fun () -> flush_engine s);
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

let put_checked ?(update = false) ?deadline_ns t ~key value =
  t.puts <- t.puts + 1;
  apply_write ?deadline_ns t ~key
    ~bytes:(String.length key + String.length value)
    (fun engine -> Core.Engine.put ~update engine ~key value)

let delete_checked ?deadline_ns t key =
  t.deletes <- t.deletes + 1;
  apply_write ?deadline_ns t ~key ~bytes:(String.length key) (fun engine ->
      Core.Engine.delete engine key)

let get_checked ?deadline_ns t key =
  t.gets <- t.gets + 1;
  Obs.Attr.with_op Obs.Attr.Read @@ fun () ->
  let t0 = Sim.Clock.now t.clock in
  let s = dispatch t key in
  let deadline = deadline_of t `Read deadline_ns in
  Obs.Attr.set_deadline deadline;
  let finish result =
    Obs.Attr.set_deadline None;
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

let flush t = Array.iter (fun s -> flush_engine s) t.shards

let close t = flush t

(* --- Group-commit mode -------------------------------------------------- *)

let enable_group_commit t sched =
  let san = Coroutine.Scheduler.sanitizer sched in
  Array.iter (fun s -> Group_commit.set_mode s.gc Group_commit.Batch ~san) t.shards

let disable_group_commit t =
  Array.iter (fun s -> Group_commit.set_mode s.gc Group_commit.Sync ~san:None) t.shards

(* --- Aggregates --------------------------------------------------------- *)

let sum f t = Array.fold_left (fun acc s -> acc + f s) 0 t.shards
let sumf f t = Array.fold_left (fun acc s -> acc +. f s) 0.0 t.shards

let stall_count t = sum (fun s -> Admission.stalls s.adm) t
let at_hard_limit t = Array.exists (fun s -> Admission.at_hard_limit s.adm s.engine) t.shards
let stall_ns t = sumf (fun s -> Admission.stall_ns s.adm) t
let soft_delays t = sum (fun s -> Admission.soft_admits s.adm) t
let relief_steps t = sum (fun s -> Admission.relief_steps s.adm) t
let gc_batches t = sum (fun s -> Group_commit.batches s.gc) t
let gc_synced_entries t = sum (fun s -> Group_commit.synced_entries s.gc) t

let gc_mean_batch t =
  let b = gc_batches t in
  if b = 0 then 0.0 else float_of_int (gc_synced_entries t) /. float_of_int b

let gc_size_hist t =
  let h = Util.Histogram.create () in
  Array.iter (fun s -> Util.Histogram.merge h (Group_commit.size_hist s.gc)) t.shards;
  h

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
  Fmt.pf ppf "  admission: %d stalls (%a), %d soft-zone writes, %d relief steps@,"
    (stall_count t) Sim.Clock.pp_duration (stall_ns t) (soft_delays t) (relief_steps t);
  (let b = gc_batches t in
   if b > 0 then
     Fmt.pf ppf "  group commit: %d batches, %d entries, mean batch %.2f@," b
       (gc_synced_entries t) (gc_mean_batch t));
  let lat label h =
    if Util.Histogram.count h > 0 then
      Fmt.pf ppf "  %s latency p50/p99/p99.9: %a / %a / %a@," label Sim.Clock.pp_duration
        (Util.Histogram.percentile h 50.0)
        Sim.Clock.pp_duration
        (Util.Histogram.percentile h 99.0)
        Sim.Clock.pp_duration
        (Util.Histogram.percentile h 99.9)
  in
  lat "read" t.read_lat;
  lat "write" t.write_lat;
  lat "scan" t.scan_lat;
  Array.iter
    (fun s ->
      Fmt.pf ppf "  shard %d [%S, %s): stalls %d, steps %d%s, batches %d, debt %d runs@,"
        s.s_idx s.s_lo
        (if s.s_hi = max_key_sentinel then "<max>" else Printf.sprintf "%S" s.s_hi)
        (Admission.stalls s.adm) (Admission.relief_steps s.adm)
        (if Admission.escalated s.adm then " (escalated)" else "")
        (Group_commit.batches s.gc)
        (Core.Engine.compaction_debt_runs s.engine))
    t.shards;
  Array.iter (fun s -> Fmt.pf ppf "@,%a" Core.Engine.pp_stats s.engine) t.shards;
  Fmt.pf ppf "@]"

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
    ~help:"soft-zone relief steps (one partition's major compaction; more near the hard limit once escalated) run on idle workers"
    (fun () -> relief_steps t);
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
          Core.Engine.compaction_debt_runs s.engine);
      register_int reg (p "shard%d.l0_bytes") ~kind:Gauge
        ~help:"PM level-0 resident bytes of this shard" (fun () ->
          Core.Engine.l0_bytes s.engine);
      register_int reg (p "shard%d.stalls") ~help:"admission hard stalls at this shard"
        (fun () -> Admission.stalls s.adm);
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
  Obs.Attr.register_metrics reg;
  (match t.cache with Some c -> Cache.Block_cache.register_metrics reg c | None -> ());
  (match Pmem.sanitizer t.pm with
  | Some san -> Sanitize.Pmsan.register_metrics san reg
  | None -> ());
  Pmem.register_metrics reg t.pm;
  Ssd.register_metrics reg t.ssd
