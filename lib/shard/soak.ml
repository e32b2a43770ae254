(* Chaos soak: a long seeded run that interleaves gray-fault episodes
   (fail-slow devices, error storms, stuck log barriers), crash-restart cycles
   (including a crash *during* recovery), and bit-rot injection over the
   sharded front door, continuously checked against the golden model.

   Unlike the crash sweeps — which replay one pristine workload per crash
   point — the soak is a single evolving history: faults arrive, breakers
   trip, writes are shed, the machine crashes and recovers, and the model
   tracks every typed outcome. The invariants are the availability story
   of the health layer:

   - no silent wrong answer, ever: a [Served] (or exact degraded) value
     must match the golden model unless the engine recorded the damage;
   - typed refusals are honest: a [Write_shed] provably never reached the
     store (the golden model drops it and the store must agree);
   - a [Write_failed] is ambiguous exactly like a crash mid-op — the
     harness re-reads at the next clean point and folds whichever outcome
     the store proves back into the model;
   - crash checkpoints run the full golden/manifest/sanitizer check (or
     the per-key damage-excusing check once corruption has been injected).

   Everything is seeded: episodes, victims, torn tails, storm phases. *)

type episode_kind =
  | Calm
  | Slow_pm
  | Slow_read
  | Error_storm
  | Stuck_fsync
  | Crash
  | Crash_in_recovery
  | Corrupt

let episode_name = function
  | Calm -> "calm"
  | Slow_pm -> "slow_pm"
  | Slow_read -> "slow_read"
  | Error_storm -> "error_storm"
  | Stuck_fsync -> "stuck_fsync"
  | Crash -> "crash"
  | Crash_in_recovery -> "crash_in_recovery"
  | Corrupt -> "corrupt"

type config = {
  seed : int;
  rounds : int;
  ops_per_round : int;
  keyspace : int;
  value_len : int;
  slow_factor : float;
  router_config : Core.Config.t;
  boundaries : string list;
}

let config ?(seed = 42) ?(rounds = 16) ?(ops_per_round = 600) ?(keyspace = 400)
    ?(value_len = 48) ?(slow_factor = 25.0) ?boundaries router_config =
  if not router_config.Core.Config.durable then
    invalid_arg "Shard.Soak.config: router config must be durable";
  let boundaries =
    Option.value boundaries
      ~default:
        (Sweep.workload_boundaries ~keyspace
           ~shards:(max 1 router_config.Core.Config.shard_count))
  in
  {
    seed;
    rounds;
    ops_per_round;
    keyspace;
    value_len;
    slow_factor;
    router_config;
    boundaries;
  }

type report = {
  soak_rounds : int;
  soak_ops : int;
  episode_counts : (string * int) list;
  ledger : Health.Ledger.t;
  healthy_total : int;
  healthy_served : int;
  sick_total : int;
  sick_within : int;
  trips : int;
  rejections : int;
  injected : int;
  crashes : int;
  double_crashes : int;
  recovery_ns : float list;
  violations : Fault.Checker.violation list;
}

let healthy_ratio (r : report) =
  if r.healthy_total = 0 then 1.0
  else float_of_int r.healthy_served /. float_of_int r.healthy_total

let sick_within_ratio (r : report) =
  if r.sick_total = 0 then 1.0
  else float_of_int r.sick_within /. float_of_int r.sick_total

let deadline_ok_ratio (r : report) = Health.Ledger.deadline_ok_ratio r.ledger
let clean (r : report) = r.violations = []

(* --- Internal state ----------------------------------------------------- *)

type state = {
  cfg : config;
  mutable router : Router.t;
  golden : Fault.Golden.t;
  (* key -> attempted value of a [Write_failed] (None = delete): the write
     may or may not have landed; resolved by read-back at clean points *)
  ambiguous : (string, string option) Hashtbl.t;
  mutable tolerant : bool;
      (* after injected corruption: full-view checks give way to the
         per-key damage-excusing check (mirrors the corruption sweep) *)
  stats : Fault.Plan.stats;
  rng : Util.Xoshiro.t;
  ledger : Health.Ledger.t;
  mutable ops : int;
  mutable healthy_total : int;
  mutable healthy_served : int;
  mutable sick_total : int;
  mutable sick_within : int;
  mutable trips : int;
  mutable rejections : int;
  mutable crashes : int;
  mutable double_crashes : int;
  mutable recovery_ns : float list;
  mutable violations : Fault.Checker.violation list;
  episode_counts : (string, int) Hashtbl.t;
}

exception Dead of string
(* recovery failed even after retries: the soak cannot continue *)

let fail st invariant detail =
  st.violations <- { Fault.Checker.invariant; detail } :: st.violations

let pp_v = Fmt.(Dump.option Dump.string)

let expected st key =
  match Fault.Golden.acked st.golden key with Some v -> v | None -> None

(* The engine owning [key]: checker reads go here directly, never through
   a breaker. *)
let owner st key = (Router.engines st.router).(Router.shard_of st.router key)

let damaged st key = Core.Engine.damaged_key (owner st key) key

let matches_ambiguous st key got =
  match Hashtbl.find_opt st.ambiguous key with
  | Some attempted -> got = attempted
  | None -> false

(* Exact-answer invariant: a served value must be the golden value, the
   still-ambiguous attempted value, or covered by a damage record. *)
let check_exact st ~ctx key got =
  let exp = expected st key in
  if got <> exp && (not (matches_ambiguous st key got)) && not (damaged st key)
  then
    fail st "silent-wrong-answer"
      (Fmt.str "%s: key %S expected %a, got %a" ctx key pp_v exp pp_v got)

let check_read st key = function
  | Router.Served v -> check_exact st ~ctx:"served" key v
  | Router.Served_degraded { value; reason } ->
      (* a quarantine fallback may legitimately be stale; every other
         degraded reason (PM-only behind a breaker) is an exact hit *)
      if reason <> "quarantine" then
        check_exact st ~ctx:("degraded:" ^ reason) key value
  | Router.Read_unavailable _ -> ()

(* --- Per-op accounting --------------------------------------------------- *)

let budget_of st = function
  | `Write -> st.cfg.router_config.Core.Config.deadline_write_ns
  | `Read -> st.cfg.router_config.Core.Config.deadline_read_ns

let account st ~is_sick kind outcome dt =
  let budget = budget_of st kind in
  let within = budget <= 0.0 || dt <= budget in
  let bucket =
    if not within then Health.Ledger.Deadline_miss
    else
      match outcome with
      | `Acked | `Served -> Health.Ledger.Ok_op
      | `Degraded -> Health.Ledger.Degraded
      | `Shed -> Health.Ledger.Shed
      | `Unavailable -> Health.Ledger.Unavailable
      | `Failed -> Health.Ledger.Failed
  in
  Health.Ledger.record st.ledger bucket;
  if is_sick then begin
    st.sick_total <- st.sick_total + 1;
    if within then st.sick_within <- st.sick_within + 1
  end
  else begin
    st.healthy_total <- st.healthy_total + 1;
    (* a healthy shard must *answer*, not refuse: only a definitive
       in-budget answer counts toward the healthy-shard ratio *)
    match bucket with
    | Health.Ledger.Ok_op | Health.Ledger.Degraded ->
        st.healthy_served <- st.healthy_served + 1
    | _ -> ()
  end

let one_op st ~sick i =
  st.ops <- st.ops + 1;
  let key =
    Printf.sprintf "user%06d" (Util.Xoshiro.int st.rng st.cfg.keyspace)
  in
  let is_sick = sick = Some (Router.shard_of st.router key) in
  let clock = Router.clock st.router in
  let t0 = Sim.Clock.now clock in
  let r = Util.Xoshiro.int st.rng 10 in
  if r < 6 then begin
    let v =
      Printf.sprintf "%d:%s" i (Util.Xoshiro.string st.rng st.cfg.value_len)
    in
    Fault.Golden.begin_put st.golden ~key v;
    let outcome =
      match Router.put_checked ~update:true st.router ~key v with
      | Router.Acked ->
          Fault.Golden.ack st.golden;
          Hashtbl.remove st.ambiguous key;
          `Acked
      | Router.Write_shed _ ->
          Fault.Golden.abort st.golden;
          `Shed
      | Router.Write_failed _ ->
          Fault.Golden.abort st.golden;
          Hashtbl.replace st.ambiguous key (Some v);
          `Failed
    in
    account st ~is_sick `Write outcome (Sim.Clock.now clock -. t0)
  end
  else if r < 7 then begin
    Fault.Golden.begin_delete st.golden key;
    let outcome =
      match Router.delete_checked st.router key with
      | Router.Acked ->
          Fault.Golden.ack st.golden;
          Hashtbl.remove st.ambiguous key;
          `Acked
      | Router.Write_shed _ ->
          Fault.Golden.abort st.golden;
          `Shed
      | Router.Write_failed _ ->
          Fault.Golden.abort st.golden;
          Hashtbl.replace st.ambiguous key None;
          `Failed
    in
    account st ~is_sick `Write outcome (Sim.Clock.now clock -. t0)
  end
  else begin
    let res = Router.get_checked st.router key in
    check_read st key res;
    let outcome =
      match res with
      | Router.Served _ -> `Served
      | Router.Served_degraded _ -> `Degraded
      | Router.Read_unavailable _ -> `Unavailable
    in
    account st ~is_sick `Read outcome (Sim.Clock.now clock -. t0)
  end

let run_ops st ~sick =
  for i = 0 to st.cfg.ops_per_round - 1 do
    one_op st ~sick i
  done

(* --- Clean points -------------------------------------------------------- *)

(* Resolve every ambiguous write by read-back: if the store holds the
   attempted value, the failed write did land — fold it into the model; if
   it holds the pre-op value, the model already agrees; anything else is a
   silent wrong answer. A quarantine crossing proves neither, so the key
   stays ambiguous (excused forever, like a crash-pending op). *)
let resolve_ambiguous st =
  let items = Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.ambiguous [] in
  (* Flush first: a half-landed write (memtable yes, WAL no) would
     otherwise read back as its attempted value while still being
     volatile — promoting it into the golden model would turn the next
     crash into a phantom silent-wrong-answer. After a clean flush the
     read-back evidence is durable state. A failing flush (deep
     quarantine) leaves every key ambiguous for another round. *)
  if items <> [] then
    match Router.flush st.router with
    | exception _ -> ()
    | () ->
        List.iter
    (fun (key, attempted) ->
      match Core.Engine.get (owner st key) key with
      | got ->
          Hashtbl.remove st.ambiguous key;
          if got = attempted then begin
            if Fault.Golden.acked st.golden key <> Some attempted then begin
              (match attempted with
              | Some v -> Fault.Golden.begin_put st.golden ~key v
              | None -> Fault.Golden.begin_delete st.golden key);
              Fault.Golden.ack st.golden
            end
          end
          else if got <> expected st key && not (damaged st key) then
            fail st "silent-wrong-answer"
              (Fmt.str
                 "ambiguous key %S resolved to %a (neither golden %a nor \
                  attempted %a)"
                 key pp_v got pp_v (expected st key) pp_v attempted)
          | exception Core.Engine.Degraded_read _ -> ())
          items

(* Re-admit traffic after an episode clears, the way an operator would:
   advance past the cooldown and feed each breaker its half-open probe
   quota. Latency EWMAs snap back to baseline so a recovered device is
   not punished for its past. *)
let close_breakers st =
  let clock = Router.clock st.router in
  let cooldown = Health.Breaker.default_config.Health.Breaker.cooldown_ns in
  for i = 0 to Router.shard_count st.router - 1 do
    let b = Router.shard_breaker st.router i in
    let tries = ref 0 in
    while Health.Breaker.state b <> Health.Breaker.Closed && !tries < 100 do
      incr tries;
      Sim.Clock.advance clock (cooldown +. 1.0);
      match Health.Breaker.decide b with
      | Health.Breaker.Allow | Health.Breaker.Probe ->
          Health.Breaker.record_success b
      | Health.Breaker.Reject -> ()
    done
  done;
  Router.reset_health_baselines st.router

let scan_stop = "v" (* workload keys are all [user%06d] *)

(* Clean-point scan check: with no ambiguity and no injected rot, the
   merged scan must reproduce the golden live set exactly. *)
let check_scan st =
  if (not st.tolerant) && Hashtbl.length st.ambiguous = 0 then
    match Router.scan_range st.router ~start:"" ~stop:scan_stop with
    | got ->
        let live =
          List.filter_map
            (fun (k, v) -> Option.map (fun v -> (k, v)) v)
            (Fault.Golden.entries st.golden)
        in
        if got <> live then
          fail st "scan"
            (Fmt.str "clean-point scan returned %d pairs, golden holds %d"
               (List.length got) (List.length live))
    | exception Core.Engine.Degraded_scan _ -> ()

let settle st =
  close_breakers st;
  resolve_ambiguous st;
  check_scan st

(* --- Full checkpoints ---------------------------------------------------- *)

(* After injected rot, or with writes still ambiguous, the full-view
   check gives way to the corruption checker: typed degradation and
   damage-recorded loss are excused, crashes and silent wrong answers are
   not, and ambiguous keys are skipped (either outcome is legal). *)
let check_full st =
  let view = Router.view st.router in
  st.violations <-
    List.rev_append
      (if st.tolerant || Hashtbl.length st.ambiguous > 0 then
         Fault.Checker.check_corruption ~skip:(Hashtbl.mem st.ambiguous) st.golden view
       else
         Fault.Checker.check_view st.golden view
         @ (Array.to_list (Router.engines st.router)
           |> List.concat_map Fault.Checker.check_manifest))
      st.violations;
  st.violations <-
    List.rev_append
      (Fault.Crash_sweep.sanitizer_violations (Router.pm st.router))
      st.violations

(* --- Episodes ------------------------------------------------------------ *)

(* A stuck log barrier: how long one WAL ring write-back line hangs. Long
   enough that an acked write blows a millisecond-scale write budget, so
   only an open breaker keeps the shard's writers from waiting on it. *)
let stuck_line_ns = 2_500_000.0

(* Scope closures re-query ownership per hit, so structures the sick shard
   creates mid-episode (its own flushes and compactions) stay in scope. *)
let arm_gray st ~round ~sick kind =
  let plan = Fault.Plan.create ~stats:st.stats (st.cfg.seed lxor (0x6AF + (37 * round))) in
  let engine = (Router.engines st.router).(sick) in
  let file_scope id = List.mem id (Core.Engine.owned_file_ids engine) in
  let region_scope id = List.mem id (Core.Engine.owned_region_ids engine) in
  let mult = st.cfg.slow_factor in
  (match kind with
  | Slow_pm ->
      Fault.Plan.add_rule plan ~site:"pm.flush" ~trigger:Fault.Plan.Every
        ~scope:region_scope (Fault.Plan.Slow mult)
  | Slow_read ->
      Fault.Plan.add_rule plan ~site:"ssd.read" ~trigger:Fault.Plan.Every
        ~scope:file_scope (Fault.Plan.Slow mult)
  | Error_storm ->
      Fault.Plan.add_rule plan ~site:"ssd.read"
        ~trigger:(Fault.Plan.Duty { period = 6; on = 4 })
        ~scope:file_scope Fault.Plan.Ssd_io_error;
      Fault.Plan.add_rule plan ~site:"ssd.write"
        ~trigger:(Fault.Plan.Duty { period = 6; on = 4 })
        ~scope:file_scope Fault.Plan.Ssd_io_error
  | Stuck_fsync ->
      (* the sick shard's durability barriers are stuck: each WAL ring
         write-back line hangs for [stuck_line_ns] (every write on the
         shard waits that long for its ack), and its SSD fsyncs crawl. The
         ring id is re-queried per hit, so the rule follows the log across
         rotations. *)
      let ring_scope id =
        match Core.Engine.wal engine with
        | Some w -> id = Core.Wal.region_id w
        | None -> false
      in
      Fault.Plan.add_rule plan ~site:"pm.flush" ~trigger:Fault.Plan.Every
        ~scope:ring_scope
        (Fault.Plan.Slow (stuck_line_ns /. Pmem.default_params.Pmem.flush_ns));
      Fault.Plan.add_rule plan ~site:"ssd.fsync" ~trigger:Fault.Plan.Every
        ~scope:file_scope
        (Fault.Plan.Slow (4.0 *. mult))
  | _ -> assert false);
  Fault.Plan.arm plan ~pm:(Router.pm st.router) ~ssd:(Router.ssd st.router) ()

let disarm st =
  Fault.Plan.disarm ~pm:(Router.pm st.router) ~ssd:(Router.ssd st.router) ()

let crash_and_recover st ~double ~round =
  (* the dying router's breaker counters fold into the soak totals *)
  st.trips <- st.trips + Router.breaker_trips st.router;
  st.rejections <- st.rejections + Router.breaker_rejections st.router;
  st.crashes <- st.crashes + 1;
  st.stats.Fault.Plan.crashes <- st.stats.Fault.Plan.crashes + 1;
  if double then st.double_crashes <- st.double_crashes + 1;
  let pm = Router.pm st.router and ssd = Router.ssd st.router in
  let clock = Router.clock st.router in
  Fault.Crash_sweep.crash ~torn_seed:(st.cfg.seed + (7919 * round)) ~pm ~ssd ();
  let t0 = Sim.Clock.now clock in
  (* with [double], the recovery itself is cut at a seeded early site, the
     half-recovered image crashes again, and a clean second recovery is
     demanded *)
  let recovered =
    Fault.Crash_sweep.recover ~stats:st.stats ~double ~salt:0x50AC ~seed:st.cfg.seed
      round ~pm ~ssd (fun () ->
        Router.recover ~boundaries:st.cfg.boundaries st.cfg.router_config ~pm ~ssd)
  in
  st.stats.Fault.Plan.recoveries <- st.stats.Fault.Plan.recoveries + 1;
  st.recovery_ns <- (Sim.Clock.now clock -. t0) :: st.recovery_ns;
  st.router <- recovered;
  (* a crash settles every in-flight ambiguity into whatever recovery
     rebuilt; the read-back at the next clean point decides each one *)
  check_full st

let inject_rot st ~round =
  let plan =
    Fault.Plan.create ~stats:st.stats (st.cfg.seed lxor (0xB17 + (41 * round)))
  in
  let target =
    if Util.Xoshiro.int st.rng 2 = 0 then Fault.Plan.Pm_table_bytes
    else Fault.Plan.Sstable_bytes
  in
  let mode =
    if Util.Xoshiro.int st.rng 2 = 0 then Fault.Plan.Bit_flip
    else Fault.Plan.Zero_range 64
  in
  let wals =
    Array.to_list (Router.engines st.router)
    |> List.filter_map Core.Engine.wal
  in
  match
    Fault.Plan.inject_corruption plan ~pm:(Router.pm st.router)
      ~ssd:(Router.ssd st.router) ~wals ~target ~mode ()
  with
  | Some _ ->
      st.tolerant <- true;
      (* Scrub-on-detect, as the corruption sweep does: salvage records
         per-key damage (persisted in the manifest), so reads — and every
         checkpoint after the next crash — can excuse exactly the lost
         ranges instead of serving resurrected older versions silently. *)
      Array.iter
        (fun e -> ignore (Core.Scrubber.run e))
        (Router.engines st.router)
  | None -> ()

(* The first rounds are a fixed curriculum: calm rounds warm every
   latency tracker past its baseline freeze, then one round per episode
   kind guarantees coverage even in short CI soaks. Beyond that the mix
   is seeded. *)
let pick_episode st round =
  let curriculum =
    [|
      Calm;
      Calm;
      Calm;
      Slow_read;
      Error_storm;
      Crash;
      Stuck_fsync;
      Crash_in_recovery;
      Slow_pm;
      Corrupt;
    |]
  in
  if round < Array.length curriculum then curriculum.(round)
  else
    let r = Util.Xoshiro.int st.rng 100 in
    if r < 22 then Calm
    else if r < 36 then Slow_pm
    else if r < 52 then Slow_read
    else if r < 66 then Error_storm
    else if r < 76 then Stuck_fsync
    else if r < 85 then Crash
    else if r < 93 then Crash_in_recovery
    else Corrupt

let run_round st ~round ep =
  Hashtbl.replace st.episode_counts (episode_name ep)
    (1 + Option.value ~default:0 (Hashtbl.find_opt st.episode_counts (episode_name ep)));
  (match ep with
  | Calm -> run_ops st ~sick:None
  | Crash | Crash_in_recovery ->
      (match crash_and_recover st ~double:(ep = Crash_in_recovery) ~round with
      | () -> ()
      | exception Failure msg -> raise (Dead msg));
      run_ops st ~sick:None
  | Corrupt ->
      inject_rot st ~round;
      run_ops st ~sick:None
  | Slow_pm | Slow_read | Error_storm | Stuck_fsync ->
      let sick = Util.Xoshiro.int st.rng (Router.shard_count st.router) in
      arm_gray st ~round ~sick ep;
      (match run_ops st ~sick:(Some sick) with
      | () -> disarm st
      | exception e ->
          disarm st;
          raise e));
  settle st

let run ?progress cfg =
  let router = Router.create ~boundaries:cfg.boundaries cfg.router_config in
  Pmem.enable_crash_mode (Router.pm router);
  Ssd.enable_crash_mode (Router.ssd router);
  let st =
    {
      cfg;
      router;
      golden = Fault.Golden.create ();
      ambiguous = Hashtbl.create 64;
      tolerant = false;
      stats = Fault.Plan.make_stats ();
      rng = Util.Xoshiro.create (cfg.seed lxor 0x50A4);
      ledger = Health.Ledger.create ();
      ops = 0;
      healthy_total = 0;
      healthy_served = 0;
      sick_total = 0;
      sick_within = 0;
      trips = 0;
      rejections = 0;
      crashes = 0;
      double_crashes = 0;
      recovery_ns = [];
      violations = [];
      episode_counts = Hashtbl.create 8;
    }
  in
  (try
     for round = 0 to cfg.rounds - 1 do
       let ep = pick_episode st round in
       (match progress with
       | Some f -> f ~round ~episode:(episode_name ep)
       | None -> ());
       run_round st ~round ep
     done;
     (* final checkpoint over the surviving state *)
     Router.flush st.router;
     check_full st
   with Dead msg -> fail st "recovery" msg);
  st.trips <- st.trips + Router.breaker_trips st.router;
  st.rejections <- st.rejections + Router.breaker_rejections st.router;
  {
    soak_rounds = cfg.rounds;
    soak_ops = st.ops;
    episode_counts =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.episode_counts []
      |> List.sort compare;
    ledger = st.ledger;
    healthy_total = st.healthy_total;
    healthy_served = st.healthy_served;
    sick_total = st.sick_total;
    sick_within = st.sick_within;
    trips = st.trips;
    rejections = st.rejections;
    injected = st.stats.Fault.Plan.injected;
    crashes = st.crashes;
    double_crashes = st.double_crashes;
    recovery_ns = List.rev st.recovery_ns;
    violations = List.rev st.violations;
  }

let mean_recovery_ns (r : report) =
  match r.recovery_ns with
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let pp_report ppf (r : report) =
  Fmt.pf ppf "@[<v>chaos soak: %d rounds, %d ops@," r.soak_rounds r.soak_ops;
  Fmt.pf ppf "episodes: %a@,"
    Fmt.(list ~sep:(any " ") (pair ~sep:(any ":") string int))
    r.episode_counts;
  Fmt.pf ppf "ledger: %a@," Health.Ledger.pp r.ledger;
  Fmt.pf ppf
    "healthy shards: %d/%d served in budget (%.4f)  sick: %d/%d within \
     deadline (%.4f)@,"
    r.healthy_served r.healthy_total (healthy_ratio r) r.sick_within
    r.sick_total (sick_within_ratio r);
  Fmt.pf ppf "breaker trips: %d  rejections: %d  injected faults: %d@," r.trips
    r.rejections r.injected;
  Fmt.pf ppf "crashes: %d (%d during recovery)  mean recovery: %.0f ns@,"
    r.crashes r.double_crashes (mean_recovery_ns r);
  if r.violations = [] then Fmt.pf ppf "invariant violations: none@]"
  else begin
    Fmt.pf ppf "invariant violations: %d@," (List.length r.violations);
    List.iter
      (fun v -> Fmt.pf ppf "  %a@," Fault.Checker.pp_violation v)
      r.violations;
    Fmt.pf ppf "@]"
  end
