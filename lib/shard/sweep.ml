(* The fault sweeps on the router: crash points, double-crash recovery and
   seeded bit rot, all over one seeded workload.

   The crash sweep: one clean counting run measures how many times the
   workload reaches an injection site; the sweep then replays the
   identical workload once per chosen crash point, cutting execution at
   exactly that site, crashing both devices (with a seeded torn SSD tail),
   recovering the whole router, and running the invariant checker against
   the golden model. Devices are shared, so one fault plan sees every
   shard's writes and each shard's WAL arms the [wal.sync] site. The
   failure surface includes what the router adds: cross-shard recovery
   (one shard's crash must not corrupt or reclaim a sibling's structures)
   and the group-commit durability point.

   The corruption sweep runs the same workload into a fresh router,
   stages every shard so the target structure exists, injects one seeded
   corruption and demands the stack answers for it: the damage must show
   up in some shard's scrub report, and afterwards every read must be
   exact, typed-degraded, or covered by a recorded loss — never silently
   wrong, never a crash.

   Determinism end to end: same seed, same config -> same site sequence
   and the same victim bytes, so a failing point replays exactly. *)

type config = {
  seed : int;
  ops : int;
  keyspace : int;
  rules : (string * Fault.Plan.trigger * Fault.Plan.action) list;
      (* injected on every crash-sweep run (not the counting run) — this is
         how a test plants a durability bug and proves the sweep catches it *)
  boundaries : string list;
  router_config : Core.Config.t;
}

(* Workload keys are [user%06d] over [keyspace]; the default boundaries
   split that population evenly so every shard sees traffic. *)
let workload_boundaries ~keyspace ~shards =
  List.init (shards - 1) (fun i ->
      Printf.sprintf "user%06d" (keyspace * (i + 1) / shards))

let config ?(seed = 42) ?(ops = 300) ?(keyspace = 64) ?(rules = []) ?boundaries router_config =
  if not router_config.Core.Config.durable then
    invalid_arg "Shard.Sweep.config: router config must be durable";
  let boundaries =
    Option.value boundaries
      ~default:
        (workload_boundaries ~keyspace ~shards:(max 1 router_config.Core.Config.shard_count))
  in
  { seed; ops; keyspace; rules; boundaries; router_config }

(* --- Shared pieces: store, workload, crash, recovery, sanitizer ----------- *)

(* A fresh simulated machine: devices in crash mode from the first write on
   (every shard's initial manifest is sealed, hence durable, before any
   workload op). *)
let fresh cfg =
  let router = Router.create ~boundaries:cfg.boundaries cfg.router_config in
  Pmem.enable_crash_mode (Router.pm router);
  Ssd.enable_crash_mode (Router.ssd router);
  router

let engines router = Array.to_list (Router.engines router)
let wals router = List.filter_map Core.Engine.wal (engines router)

(* The seeded workload, mirrored into the golden model op by op. Writes go
   through the sink: the committers run in [Sync] mode, so a returned put
   is durable, and the sink raises on any outcome but an ack. *)
let run_ops cfg golden router =
  let sink = Router.sink router in
  let rng = Util.Xoshiro.create (cfg.seed lxor 0x9E3779B9) in
  for i = 0 to cfg.ops - 1 do
    let key = Printf.sprintf "user%06d" (Util.Xoshiro.int rng cfg.keyspace) in
    if Util.Xoshiro.int rng 10 < 8 then begin
      let value = Printf.sprintf "%d:%s" i (Util.Xoshiro.string rng 24) in
      Fault.Golden.begin_put golden ~key value;
      sink.Workload.Sink.put ~update:true ~key value;
      Fault.Golden.ack golden
    end
    else begin
      Fault.Golden.begin_delete golden key;
      sink.Workload.Sink.delete key;
      Fault.Golden.ack golden
    end
  done

(* Pull the plug on both devices. With [torn_seed] every unsynced SSD file
   keeps a seeded torn tail of up to one 4 KiB page; without it, none. *)
let crash ?torn_seed ~pm ~ssd () =
  Pmem.crash pm;
  let keep =
    Option.map
      (fun seed ->
        let rng = Util.Xoshiro.create seed in
        fun ~file_id:_ ~durable:_ ~size:_ -> Util.Xoshiro.int rng 4096)
      torn_seed
  in
  Ssd.crash ?keep ssd

(* Run [f], the recovery; with [double], a second seeded schedule is armed
   over it. A leg whose recovery trips it is cut mid-recovery, both devices
   crash again (resurrecting whatever the half-finished recovery freed),
   and recovery reruns from the doubly-crashed image — so every orphan-GC,
   WAL-replay, and manifest-repair step must be idempotent. *)
let recover ?stats ~double ~salt ~seed n ~pm ~ssd f =
  if not double then f ()
  else begin
    let rng = Util.Xoshiro.create (seed lxor (salt + (31 * n))) in
    let plan = Fault.Plan.create ?stats ~crash_at:(1 + Util.Xoshiro.int rng 12) (seed + n) in
    Fault.Plan.arm plan ~pm ~ssd;
    match f () with
    | t ->
        Fault.Plan.disarm ~pm ~ssd;
        t
    | exception Fault.Plan.Crashed _ ->
        Fault.Plan.disarm ~pm ~ssd;
        crash ~torn_seed:(seed + (104729 * n)) ~pm ~ssd ();
        f ()
    | exception e ->
        Fault.Plan.disarm ~pm ~ssd;
        raise e
  end

let recover_router cfg ~pm ~ssd =
  Router.recover ~boundaries:cfg.boundaries cfg.router_config ~pm ~ssd

(* Each leg runs sanitized (the PM device carries a pmsan shadow checker
   unless the config opted out): persistence-ordering findings from the
   pre-crash workload or the recovery path count as violations, so a
   sweep fails on ordering bugs even when the crash point happened to
   leave the data intact. *)
let sanitizer_violations pm =
  match Pmem.sanitizer pm with
  | None -> []
  | Some san ->
      List.map
        (fun f ->
          { Fault.Checker.invariant = "sanitizer";
            detail = Sanitize.Pmsan.finding_to_string f })
        (Sanitize.Pmsan.findings san)

(* One durable trace prefix per completed leg: an aborted sweep still
   yields a loadable trace of every leg it finished. *)
let trace_point name attrs =
  if Obs.Trace.is_enabled () then begin
    Obs.Trace.instant name ~attrs;
    Obs.Trace.flush ()
  end

(* --- The crash sweep ------------------------------------------------------ *)

type point = {
  crash_at : int;
  crash_site : string option;
      (* None: the workload completed before reaching the point *)
  recovered : bool;
  violations : Fault.Checker.violation list;
}

type report = { total_sites : int; points : point list; stats : Fault.Plan.stats }

let violation_count r =
  List.fold_left (fun n p -> n + List.length p.violations) 0 r.points

let clean r = violation_count r = 0 && List.for_all (fun p -> p.recovered) r.points

(* Device sites are armed once (the shards share their devices); WAL sync
   sites once per log. The logs are asked again at disarm time. *)
let arm plan router =
  Fault.Plan.arm plan ~pm:(Router.pm router) ~ssd:(Router.ssd router);
  List.iter (Fault.Plan.arm_wal plan) (wals router)

let disarm router =
  Fault.Plan.disarm ~pm:(Router.pm router) ~ssd:(Router.ssd router);
  List.iter Fault.Plan.disarm_wal (wals router)

(* The workload plus the tail settle — every shard flushed and
   internally compacted — which pulls the PM sites (table builds, run
   merges) into every run's site schedule. *)
let run_workload cfg golden router =
  try
    run_ops cfg golden router;
    Router.flush router;
    List.iter Core.Engine.force_internal_compaction (engines router);
    `Completed
  with Fault.Plan.Crashed { site; hit } -> `Crashed (site, hit)

let count_sites cfg =
  let router = fresh cfg in
  let plan = Fault.Plan.create ~counting:true cfg.seed in
  arm plan router;
  (match run_workload cfg (Fault.Golden.create ()) router with
  | `Completed -> ()
  | `Crashed _ -> assert false (* counting plans never act *));
  disarm router;
  Fault.Plan.global_hits plan

(* The post-recovery invariants: the merged read paths against the golden
   model, plus every shard's manifest against the devices. *)
let check golden router =
  Fault.Checker.check_view golden (Router.view router)
  @ List.concat_map Fault.Checker.check_manifest (engines router)

let run_crash_at ?stats cfg n =
  let router = fresh cfg in
  let pm = Router.pm router and ssd = Router.ssd router in
  let plan = Fault.Plan.create ?stats ~crash_at:n cfg.seed in
  List.iter
    (fun (site, trigger, action) -> Fault.Plan.add_rule plan ~site ~trigger action)
    cfg.rules;
  arm plan router;
  let golden = Fault.Golden.create () in
  let result = run_workload cfg golden router in
  disarm router;
  let stats = Fault.Plan.stats plan in
  let crash_site =
    match result with
    | `Crashed (site, _) -> Some site
    | `Completed ->
        (* the point lies beyond the run: pull the plug at the end *)
        stats.Fault.Plan.crashes <- stats.Fault.Plan.crashes + 1;
        None
  in
  crash ~torn_seed:(cfg.seed + (7919 * n)) ~pm ~ssd ();
  match
    recover ~stats ~double:true ~salt:0x2CC ~seed:cfg.seed n ~pm ~ssd
      (fun () -> recover_router cfg ~pm ~ssd)
  with
  | recovered ->
      stats.Fault.Plan.recoveries <- stats.Fault.Plan.recoveries + 1;
      let violations = check golden recovered @ sanitizer_violations pm in
      { crash_at = n; crash_site; recovered = true; violations }
  | exception Failure msg ->
      {
        crash_at = n;
        crash_site;
        recovered = false;
        violations =
          { Fault.Checker.invariant = "recovery"; detail = msg }
          :: sanitizer_violations pm;
      }

type selection = All | Sample of int

let select cfg selection total =
  match selection with
  | All -> List.init total (fun i -> i + 1)
  | Sample k when k >= total -> List.init total (fun i -> i + 1)
  | Sample k ->
      let arr = Array.init total (fun i -> i + 1) in
      Util.Xoshiro.shuffle (Util.Xoshiro.create ((cfg.seed * 31) + 17)) arr;
      Array.to_list (Array.sub arr 0 k) |> List.sort compare

let sweep ?(selection = All) ?stats ?(progress = ignore) cfg =
  let stats = match stats with Some s -> s | None -> Fault.Plan.make_stats () in
  let total = count_sites cfg in
  let points =
    List.map
      (fun n ->
        let p = run_crash_at ~stats cfg n in
        progress p;
        trace_point "sweep.point" (fun () ->
            [
              ("crash_at", Obs.Trace.Int n);
              ("violations", Obs.Trace.Int (List.length p.violations));
            ]);
        p)
      (select cfg selection total)
  in
  { total_sites = total; points; stats }

let pp_report ppf r =
  let bad = List.filter (fun p -> p.violations <> []) r.points in
  Fmt.pf ppf "@[<v>crash sweep: %d sites, %d crash points tested@," r.total_sites
    (List.length r.points);
  Fmt.pf ppf "recoveries: %d/%d  injected faults: %d@,"
    (List.length (List.filter (fun p -> p.recovered) r.points))
    (List.length r.points) r.stats.Fault.Plan.injected;
  if bad = [] then Fmt.pf ppf "invariant violations: none@]"
  else begin
    Fmt.pf ppf "invariant violations: %d point(s)@," (List.length bad);
    List.iter
      (fun p ->
        Fmt.pf ppf "  crash at site %d (%a):@," p.crash_at
          Fmt.(Dump.option string)
          p.crash_site;
        List.iter (fun v -> Fmt.pf ppf "    %a@," Fault.Checker.pp_violation v) p.violations)
      bad;
    Fmt.pf ppf "@]"
  end

(* --- The corruption sweep ------------------------------------------------- *)

type corruption_point = {
  index : int;
  target : Fault.Plan.corruption_target;
  mode : Fault.Plan.corruption_mode;
  victim : string option;
      (* None: no eligible victim existed and the point was skipped *)
  detected : bool;
  recovered : bool;
  violations : Fault.Checker.violation list;
}

type corruption_report = {
  points : corruption_point list;
  skipped : int;
  stats : Fault.Plan.stats;
}

let corruption_clean (r : corruption_report) =
  List.for_all (fun p -> p.recovered && p.violations = []) r.points

let target_name = function
  | Fault.Plan.Pm_table_bytes -> "pm-table"
  | Fault.Plan.Sstable_bytes -> "sstable"
  | Fault.Plan.Wal_bytes -> "wal"
  | Fault.Plan.Manifest_bytes -> "manifest"

let mode_name = function
  | Fault.Plan.Bit_flip -> "bit-flip"
  | Fault.Plan.Zero_range n -> Printf.sprintf "zero-%dB" n

(* Stage every shard so the target structure holds the workload's data. *)
let stage router target =
  match target with
  | Fault.Plan.Pm_table_bytes ->
      Router.flush router;
      List.iter Core.Engine.force_internal_compaction (engines router)
  | Fault.Plan.Sstable_bytes ->
      Router.flush router;
      List.iter Core.Engine.force_major_compaction (engines router)
  | Fault.Plan.Wal_bytes -> () (* the durable logs hold every acked op *)
  | Fault.Plan.Manifest_bytes ->
      (* the flush persists a manifest, so both superblock slots exist *)
      Router.flush router

let detected_in target (scrub : Core.Scrubber.report) =
  match target with
  | Fault.Plan.Pm_table_bytes -> scrub.engine.Core.Engine.corrupt_pm_tables > 0
  | Fault.Plan.Sstable_bytes -> scrub.engine.Core.Engine.corrupt_sstables > 0
  | Fault.Plan.Wal_bytes -> (
      match scrub.wal with
      | Some s -> s.Core.Wal.corrupt_records > 0 || s.Core.Wal.torn_tail
      | None -> false)
  | Fault.Plan.Manifest_bytes -> scrub.manifest_rotted

let run_corruption ?stats cfg index =
  let target =
    [| Fault.Plan.Pm_table_bytes; Sstable_bytes; Wal_bytes; Manifest_bytes |].(index mod 4)
  in
  let mode = if index / 4 mod 2 = 0 then Fault.Plan.Bit_flip else Fault.Plan.Zero_range 16 in
  let router = fresh cfg in
  let pm = Router.pm router and ssd = Router.ssd router in
  let golden = Fault.Golden.create () in
  (* the crash sweep's workload, without its tail settle: each point stages
     the store for its own target instead *)
  run_ops cfg golden router;
  stage router target;
  let plan = Fault.Plan.create ?stats (cfg.seed + (7919 * index)) in
  match Fault.Plan.inject_corruption plan ~pm ~ssd ~wals:(wals router) ~target ~mode () with
  | None ->
      { index; target; mode; victim = None; detected = false; recovered = true; violations = [] }
  | Some c ->
      (* Live pass first: every shard is scrubbed (and salvaged), and some
         shard's report must show the damage. *)
      let scrubs = List.map (fun e -> Core.Scrubber.run e) (engines router) in
      let detected = List.exists (detected_in target) scrubs in
      let undetected =
        if detected then []
        else
          [
            {
              Fault.Checker.invariant = "undetected-corruption";
              detail =
                Printf.sprintf "%s %s at %s passed the scrub unnoticed" (mode_name mode)
                  (target_name target) c.Fault.Plan.victim;
            };
          ]
      in
      let recovered, violations =
        match target with
        | Fault.Plan.Pm_table_bytes | Fault.Plan.Sstable_bytes ->
            (* the scrub already salvaged; the live router must now serve
               only exact, degraded, or recorded-lost answers *)
            (true, Fault.Checker.check_corruption golden (Router.view router))
        | Fault.Plan.Wal_bytes | Fault.Plan.Manifest_bytes -> (
            crash ~pm ~ssd ();
            match recover_router cfg ~pm ~ssd with
            | fresh ->
                Option.iter
                  (fun (s : Fault.Plan.stats) -> s.recoveries <- s.recoveries + 1)
                  stats;
                (* stale answers are excused: the WAL corruption count /
                   manifest fallback already reported the loss *)
                ( true,
                  Fault.Checker.check_corruption ~excuse_lost:true golden (Router.view fresh) )
            | exception Failure msg ->
                ( false,
                  [
                    {
                      Fault.Checker.invariant = "recovery";
                      detail =
                        Printf.sprintf "recovery died on corrupted %s: %s"
                          (target_name target) msg;
                    };
                  ] ))
      in
      {
        index;
        target;
        mode;
        victim = Some c.Fault.Plan.victim;
        detected;
        recovered;
        violations = undetected @ violations @ sanitizer_violations pm;
      }

let corruption_sweep ?stats ?(progress = ignore) ~points cfg =
  let stats = match stats with Some s -> s | None -> Fault.Plan.make_stats () in
  let points =
    List.init points (fun i ->
        let p = run_corruption ~stats cfg i in
        progress p;
        trace_point "corruption_sweep.point" (fun () ->
            [
              ("index", Obs.Trace.Int p.index);
              ("target", Obs.Trace.Str (target_name p.target));
              ("detected", Obs.Trace.Bool p.detected);
              ("violations", Obs.Trace.Int (List.length p.violations));
            ]);
        p)
  in
  let skipped = List.length (List.filter (fun p -> p.victim = None) points) in
  { points; skipped; stats }

let pp_corruption_point ppf p =
  Fmt.pf ppf "point %d: %s %s -> %a" p.index (mode_name p.mode) (target_name p.target)
    Fmt.(Dump.option string)
    p.victim

let pp_corruption_report ppf (r : corruption_report) =
  let bad = List.filter (fun p -> p.violations <> []) r.points in
  let injected = List.filter (fun p -> p.victim <> None) r.points in
  Fmt.pf ppf "@[<v>corruption sweep: %d point(s), %d skipped (no victim)@,"
    (List.length r.points) r.skipped;
  Fmt.pf ppf "detected: %d/%d  injected: %d@,"
    (List.length (List.filter (fun p -> p.detected) injected))
    (List.length injected) r.stats.Fault.Plan.injected;
  if bad = [] then Fmt.pf ppf "invariant violations: none@]"
  else begin
    Fmt.pf ppf "invariant violations: %d point(s)@," (List.length bad);
    List.iter
      (fun p ->
        Fmt.pf ppf "  %a:@," pp_corruption_point p;
        List.iter (fun v -> Fmt.pf ppf "    %a@," Fault.Checker.pp_violation v) p.violations)
      bad;
    Fmt.pf ppf "@]"
  end
