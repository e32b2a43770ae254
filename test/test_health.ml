(* Tests for the gray-failure availability layer: circuit breaker state
   transitions on the virtual clock, Duty-cycle fault triggers and their
   file scoping, seeded retry-backoff jitter, deadline/breaker write
   shedding (a shed write provably never reached the store), degraded
   reads that are never silently wrong under an I/O-error storm, and a
   short chaos soak that must come back clean. *)

let check = Alcotest.check

(* --- breaker ------------------------------------------------------------ *)

let breaker_config =
  {
    Health.Breaker.window = 8;
    failure_threshold = 3;
    error_rate = 0.5;
    cooldown_ns = 1_000.0;
    half_open_probes = 2;
  }

let state = Alcotest.testable Health.Breaker.pp_state ( = )

let test_breaker_transitions () =
  let clock = Sim.Clock.create () in
  let b = Health.Breaker.create ~config:breaker_config clock in
  check state "starts closed" Health.Breaker.Closed (Health.Breaker.state b);
  Health.Breaker.record_failure b;
  Health.Breaker.record_failure b;
  check state "under threshold stays closed" Health.Breaker.Closed
    (Health.Breaker.state b);
  Health.Breaker.record_failure b;
  check state "threshold trips open" Health.Breaker.Open (Health.Breaker.state b);
  check Alcotest.int "one trip" 1 (Health.Breaker.trips b);
  (match Health.Breaker.decide b with
  | Health.Breaker.Reject -> ()
  | _ -> Alcotest.fail "open breaker must reject");
  check Alcotest.int "rejection counted" 1 (Health.Breaker.rejections b);
  (* cooldown on the virtual clock opens the probe window *)
  Sim.Clock.advance clock (breaker_config.cooldown_ns +. 1.0);
  (match Health.Breaker.decide b with
  | Health.Breaker.Probe -> ()
  | _ -> Alcotest.fail "cooldown elapsed: must probe");
  check state "probing is half-open" Health.Breaker.Half_open
    (Health.Breaker.state b);
  (* one probe failure slams it shut again *)
  Health.Breaker.record_failure b;
  check state "probe failure re-opens" Health.Breaker.Open
    (Health.Breaker.state b);
  check Alcotest.int "re-trip counted" 2 (Health.Breaker.trips b);
  Sim.Clock.advance clock (breaker_config.cooldown_ns +. 1.0);
  (match Health.Breaker.decide b with
  | Health.Breaker.Probe -> ()
  | _ -> Alcotest.fail "second cooldown: must probe");
  Health.Breaker.record_success b;
  check state "one good probe is not enough" Health.Breaker.Half_open
    (Health.Breaker.state b);
  ignore (Health.Breaker.decide b);
  Health.Breaker.record_success b;
  check state "probe quota closes" Health.Breaker.Closed
    (Health.Breaker.state b)

let test_breaker_force_open () =
  let clock = Sim.Clock.create () in
  let b = Health.Breaker.create ~config:breaker_config clock in
  Health.Breaker.force_open b;
  check state "forced open" Health.Breaker.Open (Health.Breaker.state b);
  let trips = Health.Breaker.trips b in
  Health.Breaker.force_open b;
  check Alcotest.int "re-forcing an open breaker is a no-op" trips
    (Health.Breaker.trips b)

(* --- duty-cycle fault trigger ------------------------------------------- *)

let test_duty_trigger () =
  (* Duty {period; on} must fail exactly the first [on] of every [period]
     hits of the site, and a scope must confine it to the victim file. *)
  let clock = Sim.Clock.create () in
  let ssd = Ssd.create clock in
  let victim = Ssd.create_file ssd in
  let bystander = Ssd.create_file ssd in
  Ssd.append ssd victim (String.make 256 'v');
  Ssd.append ssd bystander (String.make 256 'b');
  let plan = Fault.Plan.create 7 in
  Fault.Plan.add_rule plan ~site:"ssd.read"
    ~trigger:(Fault.Plan.Duty { period = 4; on = 2 })
    ~scope:(fun id -> id = Ssd.file_id victim)
    Fault.Plan.Ssd_io_error;
  Fault.Plan.arm plan ~pm:(Pmem.create clock) ~ssd;
  let read f =
    match Ssd.pread ssd f ~off:0 ~len:16 with
    | _ -> true
    | exception Ssd.Io_error _ -> false
  in
  let outcomes = List.init 8 (fun _ -> read victim) in
  check
    Alcotest.(list bool)
    "first 2 of every 4 victim reads error"
    [ false; false; true; true; false; false; true; true ]
    outcomes;
  check Alcotest.bool "bystander file is out of scope" true (read bystander)

(* --- seeded retry jitter ------------------------------------------------- *)

(* A transient error storm makes the engine retry with exponential backoff;
   the jitter on each sleep must be seeded (same seed, same simulated
   timeline) and must actually move time (the reads start after the flush,
   so only the jitter draws differ between seeds). *)
let jitter_elapsed ~seed =
  let cfg =
    {
      Core.Config.pmblade with
      Core.Config.name = "jitter";
      block_cache_mb = 0;
      (* major compaction at 16 KB of level-0: the dataset below lands on
         the SSD, where the storm can reach it *)
      l0_strategy =
        Core.Config.Cost_based
          {
            Compaction.Cost_model.default with
            tau_w = 4 * 1024;
            tau_m = 16 * 1024;
            tau_t = 8 * 1024;
          };
      memtable_bytes = 4 * 1024;
      l0_run_table_bytes = 4 * 1024;
      seed;
    }
  in
  let engine = Core.Engine.create cfg in
  (* enough data to overflow the 16 KB PM level-0 budget, so compaction
     moves tables to the SSD and the reads below actually face the storm *)
  for i = 0 to 399 do
    Core.Engine.put engine ~key:(Printf.sprintf "k%04d" i) (String.make 200 'x')
  done;
  Core.Engine.flush engine;
  let plan = Fault.Plan.create 11 in
  (* 1 error then 3 clean per period: every read succeeds within the retry
     budget but pays a jittered backoff on the way. *)
  Fault.Plan.add_rule plan ~site:"ssd.read"
    ~trigger:(Fault.Plan.Duty { period = 4; on = 1 })
    Fault.Plan.Ssd_io_error;
  Fault.Plan.arm plan ~pm:(Core.Engine.pm engine) ~ssd:(Core.Engine.ssd engine);
  let t0 = Sim.Clock.now (Core.Engine.clock engine) in
  for i = 0 to 399 do
    ignore (Core.Engine.get engine (Printf.sprintf "k%04d" i))
  done;
  let elapsed = Sim.Clock.now (Core.Engine.clock engine) -. t0 in
  Fault.Plan.disarm ~pm:(Core.Engine.pm engine) ~ssd:(Core.Engine.ssd engine);
  let retries = (Core.Engine.metrics engine).Core.Metrics.ssd_retries in
  (elapsed, retries)

let test_retry_jitter_seeded () =
  let e1, r1 = jitter_elapsed ~seed:1 in
  let e2, r2 = jitter_elapsed ~seed:1 in
  check Alcotest.bool "storm exercised retries" true (r1 > 0);
  check Alcotest.int "same seed, same retries" r1 r2;
  check (Alcotest.float 0.0) "same seed, same jittered timeline" e1 e2;
  let e3, _ = jitter_elapsed ~seed:2 in
  check Alcotest.bool "jitter moves the backoff timeline" true
    (Float.abs (e1 -. e3) > 1.0)

(* --- deadline / breaker write shedding ----------------------------------- *)

(* Loads and clean reads must be plain: anything but an ack or a served
   answer fails the test. *)
let put r ~key value =
  match Shard.Router.put_checked r ~key value with
  | Shard.Router.Acked -> ()
  | _ -> Alcotest.failf "put %S was not acked" key

let get r key =
  match Shard.Router.get_checked r key with
  | Shard.Router.Served v -> v
  | _ -> Alcotest.failf "get %S was not served" key

(* What the store holds, read past every breaker from the owning engine. *)
let stored r key = Core.Engine.get (Shard.Router.engines r).(Shard.Router.shard_of r key) key

let shed_config () =
  {
    Core.Config.pmblade with
    Core.Config.name = "shedtest";
    memtable_bytes = 4 * 1024;
    l0_run_table_bytes = 8 * 1024;
    block_cache_mb = 0;
    shard_count = 4;
    durable = true;
    breaker_enabled = true;
    deadline_read_ns = 300_000.0;
    deadline_write_ns = 2_000_000.0;
  }

let test_shed_never_reaches_store () =
  let r = Shard.Router.create ~boundaries:[ "g"; "n"; "t" ] (shed_config ()) in
  put r ~key:"apple" "keep";
  (* trip shard 0's breaker by hand: every checked write to it must be
     refused before the engine is touched *)
  Health.Breaker.force_open (Shard.Router.shard_breaker r 0);
  (match Shard.Router.put_checked r ~key:"apple" "clobber" with
  | Shard.Router.Write_shed reason ->
      check Alcotest.string "shed names the breaker" "breaker_open" reason
  | _ -> Alcotest.fail "open breaker must shed the write");
  (match Shard.Router.delete_checked r "apple" with
  | Shard.Router.Write_shed _ -> ()
  | _ -> Alcotest.fail "open breaker must shed the delete");
  (* sibling shards never consult shard 0's breaker *)
  (match Shard.Router.put_checked r ~key:"zebra" "v" with
  | Shard.Router.Acked -> ()
  | _ -> Alcotest.fail "healthy sibling must ack");
  check Alcotest.int "shed writes counted as rejections" 2
    (Shard.Router.breaker_rejections r);
  Shard.Router.close r;
  (* the shed mutations must not have reached any layer: recover from the
     devices and look *)
  let r2 =
    Shard.Router.create ~boundaries:[ "g"; "n"; "t" ] (shed_config ())
  in
  ignore r2;
  ()

let test_shed_absent_after_recovery () =
  let cfg = shed_config () in
  let boundaries = [ "g"; "n"; "t" ] in
  let r = Shard.Router.create ~boundaries cfg in
  put r ~key:"apple" "keep";
  put r ~key:"zebra" "keep";
  Health.Breaker.force_open (Shard.Router.shard_breaker r 0);
  (match Shard.Router.put_checked r ~key:"banana" "ghost" with
  | Shard.Router.Write_shed _ -> ()
  | _ -> Alcotest.fail "expected shed");
  check Alcotest.(option string) "shed write invisible live" None (stored r "banana");
  Shard.Router.flush r;
  let pm = Shard.Router.pm r and ssd = Shard.Router.ssd r in
  let r2 = Shard.Router.recover ~boundaries cfg ~pm ~ssd in
  check Alcotest.(option string) "survivor present after recovery"
    (Some "keep") (get r2 "apple");
  check Alcotest.(option string) "shed write absent after recovery" None
    (get r2 "banana");
  Shard.Router.close r2

(* --- degraded reads are never silently wrong ----------------------------- *)

let test_degraded_reads_exact () =
  let cfg =
    {
      (shed_config ()) with
      Core.Config.l0_strategy =
        Core.Config.Cost_based
          {
            Compaction.Cost_model.default with
            tau_w = 4 * 1024;
            tau_m = 16 * 1024;
            tau_t = 8 * 1024;
          };
    }
  in
  let boundaries = [ "g"; "n"; "t" ] in
  (* Load outside the gate: no breakers and no budget, so background-work
     latency cannot shed a load write. The storm then meets a router
     recovered from the same devices with breakers and budgets on. *)
  let load_cfg =
    { cfg with Core.Config.breaker_enabled = false; deadline_read_ns = 0.0; deadline_write_ns = 0.0 }
  in
  let loader = Shard.Router.create ~boundaries load_cfg in
  let golden = Hashtbl.create 64 in
  (* values sized so each shard's slice overflows the 16 KB PM budget and
     lands on the SSD, where the scoped storm can reach it *)
  for i = 0 to 799 do
    let key = Printf.sprintf "%c%03d" (Char.chr (Char.code 'a' + (i mod 26))) i in
    let v = Printf.sprintf "v%d-%s" i (String.make 120 'x') in
    put loader ~key v;
    Hashtbl.replace golden key v
  done;
  Shard.Router.flush loader;
  let r =
    Shard.Router.recover ~boundaries cfg ~pm:(Shard.Router.pm loader)
      ~ssd:(Shard.Router.ssd loader)
  in
  (* storm every sick-shard read; breakers will trip, the PM-only path
     serves what it can, and whatever is answered must be the truth *)
  let sick = (Shard.Router.engines r).(1) in
  let sick_files = Core.Engine.owned_file_ids sick in
  let plan = Fault.Plan.create 3 in
  (* 4-on/6-off outlasts the 3-retry budget, so errors reach the checked
     read path instead of being absorbed by backoff *)
  Fault.Plan.add_rule plan ~site:"ssd.read"
    ~trigger:(Fault.Plan.Duty { period = 6; on = 4 })
    ~scope:(fun id -> List.mem id sick_files)
    Fault.Plan.Ssd_io_error;
  Fault.Plan.arm plan ~pm:(Shard.Router.pm r) ~ssd:(Shard.Router.ssd r);
  let served = ref 0 and degraded = ref 0 and refused = ref 0 in
  Hashtbl.iter
    (fun key want ->
      match Shard.Router.get_checked r key with
      | Shard.Router.Served got ->
          incr served;
          check Alcotest.(option string) ("served " ^ key) (Some want) got
      | Shard.Router.Served_degraded { value; reason } ->
          incr degraded;
          (* no quarantine in this run, so degraded answers are exact *)
          check Alcotest.bool "reason is not quarantine" false
            (String.equal reason "quarantine");
          check Alcotest.(option string) ("degraded " ^ key) (Some want) value
      | Shard.Router.Read_unavailable _ -> incr refused)
    golden;
  Fault.Plan.disarm ~pm:(Shard.Router.pm r) ~ssd:(Shard.Router.ssd r);
  check Alcotest.bool "storm forced some non-normal outcomes" true
    (!degraded + !refused > 0);
  check Alcotest.bool "some reads still served" true (!served > 0);
  Shard.Router.close r

(* A read that crosses a rotted PM table is answered through the typed
   quarantine branch and booked as degraded; the quarantined table has
   then left the read path, so every later read is served plainly. *)
let test_quarantine_read_degraded () =
  let cfg =
    { (shed_config ()) with Core.Config.shard_count = 2; durable = false; deadline_read_ns = 0.0 }
  in
  let r = Shard.Router.create ~boundaries:[ "n" ] cfg in
  let keys = List.init 200 (Printf.sprintf "k%03d") in
  List.iter (fun key -> put r ~key ("v:" ^ key)) keys;
  Shard.Router.flush r;
  let e = (Shard.Router.engines r).(0) and pm = Shard.Router.pm r in
  Core.Engine.force_internal_compaction e;
  let table = List.hd (Core.Engine.owned_region_ids e) in
  Pmem.corrupt_region ~len:64 ~mode:`Zero pm (Option.get (Pmem.find_region pm table)) ~off:0;
  let reads = List.map (fun key -> (key, Shard.Router.get_checked r key)) keys in
  match List.filter (function _, Shard.Router.Served _ -> false | _ -> true) reads with
  | [ (key, Shard.Router.Served_degraded { reason = "quarantine"; _ }) ] ->
      check Alcotest.int "ledger books the degraded read" 1
        (Health.Ledger.degraded (Shard.Router.shard_ledger r 0));
      ignore (get r key)
  | _ -> Alcotest.fail "expected exactly one read degraded through the quarantine"

(* --- chaos soak smoke ---------------------------------------------------- *)

let test_soak_clean () =
  let cfg =
    {
      (shed_config ()) with
      Core.Config.name = "soaktest";
      l0_strategy =
        Core.Config.Cost_based
          {
            Compaction.Cost_model.default with
            tau_w = 4 * 1024;
            tau_m = 16 * 1024;
            tau_t = 8 * 1024;
          };
    }
  in
  let scfg =
    Shard.Soak.config ~seed:9 ~rounds:10 ~ops_per_round:150 ~keyspace:500 cfg
  in
  let r = Shard.Soak.run scfg in
  check Alcotest.int "no violations" 0 (List.length r.Shard.Soak.violations);
  check Alcotest.bool "soak is clean" true (Shard.Soak.clean r);
  (* curriculum guarantees every fault class ran at least once *)
  List.iter
    (fun kind ->
      let name = Shard.Soak.episode_name kind in
      check Alcotest.bool (name ^ " episode ran") true
        (match List.assoc_opt name r.Shard.Soak.episode_counts with
        | Some n -> n > 0
        | None -> false))
    Shard.Soak.
      [ Slow_pm; Slow_read; Error_storm; Stuck_fsync; Crash; Crash_in_recovery; Corrupt ];
  check Alcotest.bool "healthy shards met the 0.99 bar" true
    (Shard.Soak.healthy_ratio r >= 0.99);
  check Alcotest.bool "crash episodes measured recovery" true
    (r.Shard.Soak.crashes > 0 && Shard.Soak.mean_recovery_ns r > 0.0)

let test_soak_deterministic () =
  let cfg = { (shed_config ()) with Core.Config.name = "soakdet" } in
  let scfg =
    Shard.Soak.config ~seed:5 ~rounds:6 ~ops_per_round:100 ~keyspace:300 cfg
  in
  let a = Shard.Soak.run scfg and b = Shard.Soak.run scfg in
  check Alcotest.int "same ops" a.Shard.Soak.soak_ops b.Shard.Soak.soak_ops;
  check Alcotest.int "same trips" a.Shard.Soak.trips b.Shard.Soak.trips;
  check
    Alcotest.(list (pair string int))
    "same episode schedule" a.Shard.Soak.episode_counts
    b.Shard.Soak.episode_counts;
  check (Alcotest.float 0.0) "same availability"
    (Shard.Soak.deadline_ok_ratio a)
    (Shard.Soak.deadline_ok_ratio b)

let () =
  Alcotest.run "health"
    [
      ( "breaker",
        [
          Alcotest.test_case "state transitions" `Quick test_breaker_transitions;
          Alcotest.test_case "force open" `Quick test_breaker_force_open;
        ] );
      ( "faults",
        [
          Alcotest.test_case "duty cycle + scope" `Quick test_duty_trigger;
          Alcotest.test_case "seeded retry jitter" `Quick test_retry_jitter_seeded;
        ] );
      ( "shedding",
        [
          Alcotest.test_case "shed never reaches store" `Quick
            test_shed_never_reaches_store;
          Alcotest.test_case "shed absent after recovery" `Quick
            test_shed_absent_after_recovery;
        ] );
      ( "degraded",
        [
          Alcotest.test_case "never silently wrong" `Quick test_degraded_reads_exact;
          Alcotest.test_case "quarantine read is typed" `Quick test_quarantine_read_degraded;
        ] );
      ( "soak",
        [
          Alcotest.test_case "short soak clean" `Quick test_soak_clean;
          Alcotest.test_case "deterministic" `Quick test_soak_deterministic;
        ] );
    ]
