(* One repetition of a workload: build the store, load it, warm it up, then
   measure a fixed number of closed-loop steps, timing every router call on
   the virtual clock and the host clock. The traced variant also books
   [Obs.Attr] phases, records spans, and ends with a crash and recovery.

   A repetition returns its metrics tagged by clock: virtual-clock values
   are exact functions of the seed, host-clock values are samples. *)

type clock = Virtual | Host

type metric = { name : string; value : float; unit_ : string; clock : clock }

type result = {
  metrics : metric list;
  attempted : int;  (** measured steps *)
  failed : int;  (** measured steps with at least one failed call *)
  puts : int;  (** puts the workload issued, set-up included *)
  violations : int * string list;
  spans : Spans.t option;
}

type kind = Get | Put | Scan

let kind_index = function Get -> 0 | Put -> 1 | Scan -> 2
let kind_name = function Get -> "get" | Put -> "put" | Scan -> "scan"
let kinds = [ Get; Put; Scan ]
let host_ns = Spans.host_ns

(* What the measured phase records. Calls outside it are checked but not
   timed. *)
type recorder = {
  clock_ : Sim.Clock.t;
  check : Check.t;
  spans : Spans.t option;
  mutable measuring : bool;
  lat : Samples.t array;  (* virtual ns per successful call, by kind *)
  op_lat : Samples.t;  (* virtual ns per successful step *)
  host_call : float array;  (* host ns inside router calls, by kind *)
  calls : int array;
  mutable next_step : int;  (* step ids, unique across clients *)
  mutable ok_steps : int;
  mutable failed_steps : int;
  mutable unmeasured_failed_calls : int;
  mutable returned_bytes : int;  (* measured: bytes gets and scans handed back *)
  mutable read_device_bytes : int;  (* measured: PM + SSD bytes read inside gets and scans *)
  device_bytes_read : unit -> int;
  mutable put_bytes : int;  (* whole run: user bytes written *)
  mutable put_bytes_measured : int;
  mutable puts_seen : int;
  drop_put : int option;  (* planted bug: ack this put without storing it *)
}

(* Per-client state of the step in flight. *)
type client = { mutable step_failed : bool; mutable op : Spans.span option; mutable op_id : int }

let time_call rc cl kind f =
  let span =
    match (rc.spans, cl.op) with
    | Some sp, Some parent when rc.measuring ->
        Some (Spans.open_ sp ~parent:parent.Spans.id ~op:cl.op_id ("call." ^ kind_name kind))
    | _ -> None
  in
  let reading = rc.measuring && kind <> Put in
  let d0 = if reading then rc.device_bytes_read () else 0 in
  let v0 = Sim.Clock.now rc.clock_ and h0 = host_ns () in
  let r = f () in
  let h1 = host_ns () and v1 = Sim.Clock.now rc.clock_ in
  if reading then rc.read_device_bytes <- rc.read_device_bytes + rc.device_bytes_read () - d0;
  (match (rc.spans, span) with Some sp, Some s -> Spans.close sp s | _ -> ());
  let i = kind_index kind in
  if rc.measuring then begin
    rc.calls.(i) <- rc.calls.(i) + 1;
    rc.host_call.(i) <- rc.host_call.(i) +. (h1 -. h0);
    match r with Ok _ -> Samples.add rc.lat.(i) (v1 -. v0) | Error _ -> cl.step_failed <- true
  end
  else if Result.is_error r then rc.unmeasured_failed_calls <- rc.unmeasured_failed_calls + 1;
  r

let pairs_bytes l = List.fold_left (fun a (k, v) -> a + String.length k + String.length v) 0 l

let sink rc store cl =
  let returned n = if rc.measuring then rc.returned_bytes <- rc.returned_bytes + n in
  let put ~update ~key value =
    rc.puts_seen <- rc.puts_seen + 1;
    let n = String.length key + String.length value in
    rc.put_bytes <- rc.put_bytes + n;
    if rc.measuring then rc.put_bytes_measured <- rc.put_bytes_measured + n;
    let token = Check.put_invoke rc.check ~key value in
    let r =
      if rc.drop_put = Some rc.puts_seen then Ok ()
      else time_call rc cl Put (fun () -> Store.put store ~update ~key value)
    in
    Check.put_done rc.check token ~key value r
  in
  let get key =
    let token = Check.get_invoke rc.check key in
    match time_call rc cl Get (fun () -> Store.get store key) with
    | Ok v ->
        Check.get_done rc.check token key v;
        returned (match v with Some v -> String.length key + String.length v | None -> 0);
        v
    | Error _ -> None
  in
  let delete _ = invalid_arg "benchmark workloads issue no deletes" in
  let scan ~start ~limit =
    match time_call rc cl Scan (fun () -> Store.scan store ~start ~limit) with
    | Ok l ->
        Check.scan_done rc.check ~start ~limit l;
        returned (pairs_bytes l);
        l
    | Error _ -> []
  in
  let scan_range ~start ~stop =
    match time_call rc cl Scan (fun () -> Store.scan_range store ~start ~stop) with
    | Ok l ->
        Check.scan_range_done rc.check ~start ~stop l;
        returned (pairs_bytes l);
        l
    | Error _ -> []
  in
  { Workload.Sink.put; delete; get; scan; scan_range }

let step rc (gen : Workloads.gen) snk cl =
  cl.step_failed <- false;
  cl.op_id <- rc.next_step;
  rc.next_step <- rc.next_step + 1;
  cl.op <-
    (match rc.spans with
    | Some sp when rc.measuring -> Some (Spans.open_ sp ~op:cl.op_id "op")
    | _ -> None);
  let v0 = Sim.Clock.now rc.clock_ in
  gen.step snk;
  (match (rc.spans, cl.op) with Some sp, Some s -> Spans.close sp s | _ -> ());
  cl.op <- None;
  if rc.measuring then
    if cl.step_failed then rc.failed_steps <- rc.failed_steps + 1
    else begin
      rc.ok_steps <- rc.ok_steps + 1;
      Samples.add rc.op_lat (Sim.Clock.now rc.clock_ -. v0)
    end

let new_client () = { step_failed = false; op = None; op_id = -1 }

(* [n] steps. One client runs them inline; several run as coroutines under
   one cooperative scheduler, with the router's group commit batching
   their WAL syncs, each yielding after every step. *)
let run_steps rc (w : Workloads.t) store gen n =
  if w.clients = 1 then begin
    let cl = new_client () in
    let snk = sink rc store cl in
    for _ = 1 to n do
      step rc gen snk cl
    done
  end
  else begin
    let des = Sim.Des.create rc.clock_ in
    let sched =
      Coroutine.Scheduler.create ~cores:1
        ~policy:(Coroutine.Scheduler.Cooperative { switch_cost = 0.0 })
        des (Shard.Router.ssd store)
    in
    Shard.Router.enable_group_commit store sched;
    for c = 0 to w.clients - 1 do
      let share = (n / w.clients) + if c < n mod w.clients then 1 else 0 in
      Coroutine.Scheduler.spawn ~name:(Printf.sprintf "client-%d" c) sched 0 (fun () ->
          let cl = new_client () in
          let snk = sink rc store cl in
          for _ = 1 to share do
            step rc gen snk cl;
            Coroutine.Co.yield ()
          done)
    done;
    ignore (Coroutine.Scheduler.run_to_completion sched);
    Shard.Router.disable_group_commit store
  end

(* --- Counters ---------------------------------------------------------------- *)

let mb x = float_of_int x /. 1048576.0

(* Cumulative public counters of every layer, read from outside, as
   (name, unit, value). Deltas over the measured phase are taken by
   subtraction. *)
let counters router =
  let module R = Shard.Router in
  let pm = Pmem.stats (R.pm router) and ssd = Ssd.stats (R.ssd router) in
  let ledger = R.ledger_totals router in
  let cache f = match R.block_cache router with Some c -> f c | None -> 0 in
  let n name v = (name, "count", float_of_int v) in
  [
    n "pmem.reads" pm.Pmem.reads;
    n "pmem.flushes" pm.Pmem.flushes;
    ("pmem.bytes_read_mb", "MB", mb pm.Pmem.bytes_read);
    ("pmem.bytes_written_mb", "MB", mb pm.Pmem.bytes_written);
    ("pmem.busy_ms", "ms", (pm.Pmem.read_time +. pm.Pmem.write_time +. pm.Pmem.flush_time) /. 1e6);
    n "ssd.reads" ssd.Ssd.reads;
    n "ssd.writes" ssd.Ssd.writes;
    ("ssd.bytes_read_mb", "MB", mb ssd.Ssd.bytes_read);
    ("ssd.bytes_written_mb", "MB", mb ssd.Ssd.bytes_written);
    ("ssd.busy_ms", "ms", (ssd.Ssd.read_time +. ssd.Ssd.write_time) /. 1e6);
    n "cache.hits" (cache Cache.Block_cache.hits);
    n "cache.misses" (cache Cache.Block_cache.misses);
    n "cache.evictions" (cache Cache.Block_cache.evictions);
    n "shard.admission.stalls" (R.stall_count router);
    ("shard.admission.stall_ms", "ms", R.stall_ns router /. 1e6);
    n "shard.admission.soft_delays" (R.soft_delays router);
    n "shard.gc.batches" (R.gc_batches router);
    n "shard.gc.synced" (R.gc_synced_entries router);
    n "health.breaker_trips" (R.breaker_trips router);
    n "health.shed" (Health.Ledger.shed ledger);
    n "health.unavailable" (Health.Ledger.unavailable ledger);
    n "health.degraded" (Health.Ledger.degraded ledger);
  ]

let delta before after = List.map2 (fun (n, u, a) (_, _, b) -> (n, u, b -. a)) before after

(* Engine reads answered from the PM tier, and from the PM or SSD tier. *)
let tier_reads router =
  Array.fold_left
    (fun (pm, both) e ->
      let m = Core.Engine.metrics e in
      (pm + m.Core.Metrics.reads_from_pm, both + m.reads_from_pm + m.reads_from_ssd))
    (0, 0) (Shard.Router.engines router)

let ssd_live_bytes router =
  let ssd = Shard.Router.ssd router in
  List.fold_left
    (fun acc id -> match Ssd.find_file ssd id with Some f -> acc + Ssd.file_size f | None -> acc)
    0 (Ssd.live_file_ids ssd)

let attr_op_phases =
  Obs.Attr.
    [
      Wal_stage; Wal_sync; Stall_wait; Admission_stall; Group_commit_wait; Router_dispatch;
      Sched_wait; Memtable_probe; Pm_bloom; Pm_read; Ssd_read; Cache_hit; Cache_miss; Other;
    ]

let attr_bg_phases =
  Obs.Attr.[ Flush; Compaction; Pipe_read; Pipe_merge; Pipe_build; Pipe_write; Pipe_queue_wait ]

(* --- One repetition ------------------------------------------------------------ *)

let run ?(trace = false) ?drop_put (w : Workloads.t) ~seed =
  Gc.compact ();
  let h_start = host_ns () in
  let store = Store.create ~boundaries:w.boundaries w.config in
  let gen = w.gen ~seed ~load:w.load in
  let rc =
    {
      clock_ = Shard.Router.clock store;
      check = (if w.clients = 1 then Check.shadow () else Check.register ());
      spans = (if trace then Some (Spans.create (Shard.Router.clock store)) else None);
      measuring = false;
      lat = Array.init 3 (fun _ -> Samples.create ());
      op_lat = Samples.create ();
      host_call = Array.make 3 0.0;
      calls = Array.make 3 0;
      next_step = 0;
      ok_steps = 0;
      failed_steps = 0;
      unmeasured_failed_calls = 0;
      returned_bytes = 0;
      read_device_bytes = 0;
      device_bytes_read =
        (let pm = Pmem.stats (Shard.Router.pm store) and ssd = Ssd.stats (Shard.Router.ssd store) in
         fun () -> pm.Pmem.bytes_read + ssd.Ssd.bytes_read);
      put_bytes = 0;
      put_bytes_measured = 0;
      puts_seen = 0;
      drop_put;
    }
  in
  let phase name f =
    match rc.spans with Some sp -> Spans.with_span sp ("setup." ^ name) f | None -> f ()
  in
  phase "load" (fun () -> gen.Workloads.load (sink rc store (new_client ())));
  phase "flush" (fun () -> Shard.Router.flush store);
  let h_loaded = host_ns () in
  phase "warmup" (fun () -> run_steps rc w store gen w.warmup);
  let h_setup = host_ns () in
  (* measured phase *)
  let c0 = counters store and tier0 = tier_reads store in
  let g0 = Gc.quick_stat () in
  let clock = Shard.Router.clock store in
  if trace then Obs.Attr.enable ~clock;
  rc.measuring <- true;
  let v0 = Sim.Clock.now clock and h0 = host_ns () in
  (match rc.spans with
  | Some sp -> Spans.with_span sp "measure" (fun () -> run_steps rc w store gen w.measure)
  | None -> run_steps rc w store gen w.measure);
  let h1 = host_ns () and v1 = Sim.Clock.now clock in
  rc.measuring <- false;
  let attr = Obs.Attr.snapshot () and attr_op_ns = Obs.Attr.op_ns () in
  Obs.Attr.disable ();
  let g1 = Gc.quick_stat () in
  let c1 = counters store and tier1 = tier_reads store in
  let used_pm = Pmem.used (Shard.Router.pm store) and used_ssd = ssd_live_bytes store in
  let contents = Store.contents store in
  Check.final rc.check ~label:"end of run" contents;
  let logical = pairs_bytes contents in
  let metrics = ref [] in
  let add ?(clock = Virtual) name unit_ value =
    metrics := { name; value; unit_; clock } :: !metrics
  in
  let host = add ~clock:Host in
  (* end to end *)
  let sim_s = (v1 -. v0) /. 1e9 and host_s = (h1 -. h0) /. 1e9 in
  let ok = float_of_int rc.ok_steps in
  let attempted = rc.ok_steps + rc.failed_steps in
  add "sim_ops_per_s" "1/s" (ok /. sim_s);
  let pct label samples ps =
    let s = Samples.sorted samples and n = Samples.count samples in
    add (Printf.sprintf "sim_%s_samples" label) "count" (float_of_int n);
    if n > 0 then
      add (Printf.sprintf "sim_%s_mean_us" label) "us"
        (Samples.sum samples /. float_of_int n /. 1e3);
    List.iter
      (fun (p, tag) ->
        match Samples.percentile s p with
        | Some v -> add (Printf.sprintf "sim_%s_%s_us" label tag) "us" (v /. 1e3)
        | None -> ())
      ps
  in
  pct "op" rc.op_lat [ (50.0, "p50"); (99.0, "p99"); (99.9, "p999") ];
  pct "get" rc.lat.(kind_index Get) [ (50.0, "p50"); (99.9, "p999") ];
  pct "put" rc.lat.(kind_index Put) [ (50.0, "p50"); (99.9, "p999") ];
  pct "scan" rc.lat.(kind_index Scan) [ (50.0, "p50"); (99.0, "p99") ];
  let value n l =
    match List.find_opt (fun (m, _, _) -> m = n) l with Some (_, _, v) -> v | None -> nan
  in
  let device_written = value "pmem.bytes_written_mb" c1 +. value "ssd.bytes_written_mb" c1 in
  add "waf" "ratio" (device_written /. mb rc.put_bytes);
  let d = delta c0 c1 in
  let get n = value n d in
  let setup_put_bytes = rc.put_bytes - rc.put_bytes_measured in
  add "waf_setup" "ratio"
    ((value "pmem.bytes_written_mb" c0 +. value "ssd.bytes_written_mb" c0) /. mb setup_put_bytes);
  if rc.put_bytes_measured > 0 then
    add "waf_measured" "ratio"
      ((get "pmem.bytes_written_mb" +. get "ssd.bytes_written_mb") /. mb rc.put_bytes_measured);
  if rc.returned_bytes > 0 then
    add "raf" "ratio" (float_of_int rc.read_device_bytes /. float_of_int rc.returned_bytes);
  add "space_amp" "ratio" (float_of_int (used_pm + used_ssd) /. float_of_int logical);
  add "failed_op_ratio" "fraction" (float_of_int rc.failed_steps /. float_of_int attempted);
  host "host_ops_per_s" "1/s" (ok /. host_s);
  host "setup_s" "s" ((h_setup -. h_start) /. 1e9);
  host "host_peak_heap_mb" "MB"
    (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
  (* per layer *)
  List.iter (fun (n, u, v) -> add n u v) d;
  add "shard.gc.mean_batch" "count"
    (if get "shard.gc.batches" > 0.0 then get "shard.gc.synced" /. get "shard.gc.batches" else 0.0);
  add "pmem.used_mb" "MB" (mb used_pm);
  add "ssd.used_mb" "MB" (mb used_ssd);
  let hits = get "cache.hits" and misses = get "cache.misses" in
  if hits +. misses > 0.0 then add "cache.hit_ratio" "ratio" (hits /. (hits +. misses));
  let tier_pm = fst tier1 - fst tier0 and tier_any = snd tier1 - snd tier0 in
  if tier_any > 0 then
    add "tier.pm_read_share" "ratio" (float_of_int tier_pm /. float_of_int tier_any);
  add "unmeasured.failed_calls" "count" (float_of_int rc.unmeasured_failed_calls);
  host "host.setup.load_s" "s" ((h_loaded -. h_start) /. 1e9);
  host "host.setup.warmup_s" "s" ((h_setup -. h_loaded) /. 1e9);
  host "host.measure_s" "s" host_s;
  host "host.gc.minor_words_per_op" "words"
    ((g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int attempted);
  host "host.gc.promoted_words_per_op" "words"
    ((g1.Gc.promoted_words -. g0.Gc.promoted_words) /. float_of_int attempted);
  host "host.gc.major_collections" "count"
    (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
  (* traced only *)
  if trace then begin
    List.iter
      (fun k ->
        let i = kind_index k in
        if rc.calls.(i) > 0 then
          host (Printf.sprintf "host.call.%s_us" (kind_name k)) "us"
            (rc.host_call.(i) /. float_of_int rc.calls.(i) /. 1e3))
      kinds;
    List.iter
      (fun p ->
        add
          (Printf.sprintf "attr.op.%s_share" (Obs.Attr.phase_name p))
          "ratio"
          (List.assoc p attr.Obs.Attr.op_phases /. attr_op_ns))
      attr_op_phases;
    List.iter
      (fun p ->
        add (Printf.sprintf "attr.bg.%s_share" (Obs.Attr.phase_name p)) "ratio"
          (List.assoc p attr.Obs.Attr.bg_phases /. (v1 -. v0)))
      attr_bg_phases;
    (match rc.spans with
    | Some sp ->
        let selfs = Spans.self_times sp in
        List.iter
          (fun (name, (h, v)) ->
            host (Printf.sprintf "self.%s.host_ms" name) "ms" (h /. 1e6);
            add (Printf.sprintf "self.%s.sim_ms" name) "ms" (v /. 1e6))
          selfs;
        (* A step is suspended only inside router calls, so a step's self
           time is its client's own host time outside the router, even
           with interleaved clients. *)
        let gen_ns = match List.assoc_opt "op" selfs with Some (h, _) -> h | None -> 0.0 in
        host "host.gen_share" "ratio" (gen_ns /. (h1 -. h0))
    | None -> ());
    let call_ns = Array.fold_left (fun a s -> a +. Samples.sum s) 0.0 rc.lat in
    add "attr.coverage" "ratio" (attr_op_ns /. call_ns);
    (* Crash mode keeps every region and file freed after it starts, so it
       covers an unmeasured tail of steps rather than the whole run, which
       would hold hundreds of MB of compaction garbage. It starts between
       steps, where every acked write is durable. Then crash, recover, and
       read every acked write back. *)
    Pmem.enable_crash_mode (Shard.Router.pm store);
    Ssd.enable_crash_mode (Shard.Router.ssd store);
    run_steps rc w store gen (max w.clients (w.measure / 8));
    let hr0 = host_ns () and vr0 = Sim.Clock.now clock in
    let recovered = Store.crash_and_recover ~boundaries:w.boundaries store in
    let hr1 = host_ns () in
    add "recover.sim_ms" "ms" ((Sim.Clock.now (Shard.Router.clock recovered) -. vr0) /. 1e6);
    host "recover.host_s" "s" ((hr1 -. hr0) /. 1e9);
    Check.final rc.check ~label:"after recovery" (Store.contents recovered)
  end;
  {
    metrics = List.rev !metrics;
    attempted;
    failed = rc.failed_steps;
    puts = rc.puts_seen;
    violations = Check.violations rc.check;
    spans = rc.spans;
  }
