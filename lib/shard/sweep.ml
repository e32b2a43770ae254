(* Sharded crash sweep: the crash-consistency exploration of
   [Fault.Crash_sweep], run against the router instead of a single engine.

   Same discipline: one counting run measures how many times the seeded
   workload reaches an injection site across *all* shards (devices are
   shared, so one plan sees every shard's writes), then one run per chosen
   site crashes both devices there, recovers the whole router — every
   shard from its named manifest root, plus the union orphan GC — and
   checks the router's merged read paths against the golden model. The
   interesting new failure surface is exactly what the router added:
   cross-shard recovery (one shard's crash must not corrupt or reclaim a
   sibling's structures) and the group-commit durability point. *)

type config = {
  seed : int;
  ops : int;
  keyspace : int;
  value_len : int;
  rules : (string * Fault.Plan.trigger * Fault.Plan.action) list;
  double_crash : bool;
      (* crash again during recovery on legs whose recovery trips a second
         seeded schedule, then recover from the doubly-crashed image *)
  router_config : Core.Config.t;
  boundaries : string list;
}

(* Workload keys are [user%06d] over [keyspace]; the default boundaries
   split that population evenly so every shard sees traffic. *)
let workload_boundaries ~keyspace ~shards =
  List.init (shards - 1) (fun i ->
      Printf.sprintf "user%06d" (keyspace * (i + 1) / shards))

let config ?(seed = 42) ?(ops = 300) ?(keyspace = 64) ?(value_len = 24) ?(rules = [])
    ?(double_crash = true) ?boundaries router_config =
  if not router_config.Core.Config.durable then
    invalid_arg "Shard.Sweep.config: router config must be durable";
  let shards = max 1 router_config.Core.Config.shard_count in
  let boundaries =
    match boundaries with
    | Some b -> b
    | None -> if shards > 1 then workload_boundaries ~keyspace ~shards else []
  in
  { seed; ops; keyspace; value_len; rules; double_crash; router_config; boundaries }

type point = {
  crash_at : int;
  crash_site : string option;
  recovered : bool;
  violations : Fault.Checker.violation list;
}

type report = {
  total_sites : int;
  points : point list;
  stats : Fault.Plan.stats;
}

let violation_count r =
  List.fold_left (fun n p -> n + List.length p.violations) 0 r.points

let clean r = violation_count r = 0 && List.for_all (fun p -> p.recovered) r.points

(* Identical op stream to [Fault.Crash_sweep.run_workload], but driven
   through the router: the golden mirror still holds because the sweep
   runs the committers in [Sync] mode, where a returned put is durable.
   The sink raises on any outcome but an ack, so a refused write can
   never be mirrored as acked. *)
let run_workload cfg golden router =
  let rng = Util.Xoshiro.create (cfg.seed lxor 0x9E3779B9) in
  let sink = Router.sink router in
  try
    for i = 0 to cfg.ops - 1 do
      let key = Printf.sprintf "user%06d" (Util.Xoshiro.int rng cfg.keyspace) in
      if Util.Xoshiro.int rng 10 < 8 then begin
        let value = Printf.sprintf "%d:%s" i (Util.Xoshiro.string rng cfg.value_len) in
        Fault.Golden.begin_put golden ~key value;
        sink.Workload.Sink.put ~update:true ~key value;
        Fault.Golden.ack golden
      end
      else begin
        Fault.Golden.begin_delete golden key;
        sink.Workload.Sink.delete key;
        Fault.Golden.ack golden
      end
    done;
    Router.flush router;
    Array.iter Core.Engine.force_internal_compaction (Router.engines router);
    `Completed
  with Fault.Plan.Crashed { site; hit } -> `Crashed (site, hit)

let fresh_router cfg =
  let router = Router.create ~boundaries:cfg.boundaries cfg.router_config in
  Pmem.enable_crash_mode (Router.pm router);
  Ssd.enable_crash_mode (Router.ssd router);
  router

(* Device sites are armed once (the devices are shared); WAL sync sites
   once per shard's log. *)
let arm plan router =
  Fault.Plan.arm plan ~pm:(Router.pm router) ~ssd:(Router.ssd router) ();
  Array.iter
    (fun e ->
      match Core.Engine.wal e with Some w -> Fault.Plan.arm_wal plan w | None -> ())
    (Router.engines router)

let disarm router =
  Fault.Plan.disarm ~pm:(Router.pm router) ~ssd:(Router.ssd router) ();
  Array.iter
    (fun e ->
      match Core.Engine.wal e with Some w -> Fault.Plan.disarm_wal w | None -> ())
    (Router.engines router)

let count_sites cfg =
  let router = fresh_router cfg in
  let plan = Fault.Plan.create ~counting:true cfg.seed in
  arm plan router;
  let golden = Fault.Golden.create () in
  (match run_workload cfg golden router with
  | `Completed -> ()
  | `Crashed _ -> assert false (* counting plans never act *));
  disarm router;
  Fault.Plan.global_hits plan

let sanitizer_violations pm =
  match Pmem.sanitizer pm with
  | None -> []
  | Some san ->
      List.map
        (fun f ->
          {
            Fault.Checker.invariant = "sanitizer";
            detail = Sanitize.Pmsan.finding_to_string f;
          })
        (Sanitize.Pmsan.findings san)

(* Router recovery with an optional crash-during-recovery leg, mirroring
   [Fault.Crash_sweep.recover_double]: the second schedule covers every
   shard's manifest load, reopen, WAL replay, and the union orphan GC. *)
let recover_double ?stats cfg ~pm ~ssd n =
  let recover () = Router.recover ~boundaries:cfg.boundaries cfg.router_config ~pm ~ssd in
  if not cfg.double_crash then recover ()
  else begin
    let rng = Util.Xoshiro.create (cfg.seed lxor (0x2CC + (31 * n))) in
    let plan2 =
      Fault.Plan.create ?stats ~crash_at:(1 + Util.Xoshiro.int rng 12) (cfg.seed + n)
    in
    Fault.Plan.arm plan2 ~pm ~ssd ();
    match recover () with
    | t ->
        Fault.Plan.disarm ~pm ~ssd ();
        t
    | exception Fault.Plan.Crashed _ ->
        Fault.Plan.disarm ~pm ~ssd ();
        Pmem.crash pm;
        let keep_rng = Util.Xoshiro.create (cfg.seed + (104729 * n)) in
        Ssd.crash
          ~keep:(fun ~file_id:_ ~durable:_ ~size:_ -> Util.Xoshiro.int keep_rng 4096)
          ssd;
        recover ()
    | exception e ->
        Fault.Plan.disarm ~pm ~ssd ();
        raise e
  end

let run_crash_at ?stats cfg n =
  let router = fresh_router cfg in
  let pm = Router.pm router and ssd = Router.ssd router in
  let plan = Fault.Plan.create ?stats ~crash_at:n cfg.seed in
  List.iter
    (fun (site, trigger, action) -> Fault.Plan.add_rule plan ~site ~trigger action)
    cfg.rules;
  arm plan router;
  let golden = Fault.Golden.create () in
  let result = run_workload cfg golden router in
  disarm router;
  let crash_site =
    match result with
    | `Crashed (site, _) -> Some site
    | `Completed ->
        (Fault.Plan.stats plan).Fault.Plan.crashes <-
          (Fault.Plan.stats plan).Fault.Plan.crashes + 1;
        None
  in
  Pmem.crash pm;
  let keep_rng = Util.Xoshiro.create (cfg.seed + (7919 * n)) in
  Ssd.crash
    ~keep:(fun ~file_id:_ ~durable:_ ~size:_ -> Util.Xoshiro.int keep_rng 4096)
    ssd;
  match recover_double ?stats cfg ~pm ~ssd n with
  | recovered ->
      (Fault.Plan.stats plan).Fault.Plan.recoveries <-
        (Fault.Plan.stats plan).Fault.Plan.recoveries + 1;
      let violations =
        Fault.Checker.check_view golden (Router.view recovered)
        @ (Array.to_list (Router.engines recovered)
          |> List.concat_map Fault.Checker.check_manifest)
        @ sanitizer_violations pm
      in
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

let sweep ?(selection = All) ?stats ?progress cfg =
  let stats = match stats with Some s -> s | None -> Fault.Plan.make_stats () in
  let total = count_sites cfg in
  let points_to_test = select cfg selection total in
  let points =
    List.map
      (fun n ->
        let p = run_crash_at ~stats cfg n in
        (match progress with Some f -> f p | None -> ());
        if Obs.Trace.is_enabled () then begin
          Obs.Trace.instant "shard_sweep.point" ~attrs:(fun () ->
              [
                ("crash_at", Obs.Trace.Int n);
                ("violations", Obs.Trace.Int (List.length p.violations));
              ]);
          Obs.Trace.flush ()
        end;
        p)
      points_to_test
  in
  { total_sites = total; points; stats }

let pp_report ppf r =
  let bad = List.filter (fun p -> p.violations <> []) r.points in
  Fmt.pf ppf "@[<v>sharded crash sweep: %d sites, %d crash points tested@," r.total_sites
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
        List.iter
          (fun v -> Fmt.pf ppf "    %a@," Fault.Checker.pp_violation v)
          p.violations)
      bad;
    Fmt.pf ppf "@]"
  end
