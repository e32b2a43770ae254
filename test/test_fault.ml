(* Tests for the fault-injection & crash-consistency subsystem: plan
   determinism, the crash sweep holding a healthy one-shard router to zero
   violations, and — the subsystem's own acceptance test — the sweep
   catching durability bugs deliberately planted through fault rules. *)

let check = Alcotest.check

let durable_config () =
  {
    Core.Config.pmblade with
    Core.Config.memtable_bytes = 4 * 1024;
    l0_run_table_bytes = 8 * 1024;
    level_base_bytes = 64 * 1024;
    sstable_target_bytes = 16 * 1024;
    durable = true;
  }

(* 300 ops over 64 keys: enough to flush the 4 KiB memtable mid-run, so PM
   table builds (pm.flush/pm.drain sites) land inside the sweep range, not
   only at the explicit tail flush. *)
let small_sweep_config ?rules () = Shard.Sweep.config ?rules ~seed:7 (durable_config ())

(* --- plan mechanics --- *)

let test_site_counting_deterministic () =
  let cfg = small_sweep_config () in
  let a = Shard.Sweep.count_sites cfg in
  let b = Shard.Sweep.count_sites cfg in
  check Alcotest.int "same seed, same site count" a b;
  check Alcotest.bool "workload reaches many sites" true (a > 100)

let test_nondurable_config_rejected () =
  check Alcotest.bool "raises" true
    (try
       ignore (Shard.Sweep.config Core.Config.pmblade);
       false
     with Invalid_argument _ -> true)

let test_crash_point_reproducible () =
  let cfg = small_sweep_config () in
  let p1 = Shard.Sweep.run_crash_at cfg 25 in
  let p2 = Shard.Sweep.run_crash_at cfg 25 in
  check
    (Alcotest.option Alcotest.string)
    "same crash site" p1.Shard.Sweep.crash_site p2.Shard.Sweep.crash_site;
  check Alcotest.bool "both recovered" true (p1.recovered && p2.recovered)

(* --- the sweep on a healthy store: zero violations everywhere --- *)

let test_sweep_all_sites_clean () =
  let cfg = small_sweep_config () in
  let stats = Fault.Plan.make_stats () in
  let report = Shard.Sweep.sweep ~stats cfg in
  if not (Shard.Sweep.clean report) then
    Alcotest.failf "sweep found violations:@.%a" Shard.Sweep.pp_report
      report;
  check Alcotest.int "every point recovered" report.Shard.Sweep.total_sites
    stats.Fault.Plan.recoveries;
  check Alcotest.bool "crashes counted" true
    (stats.Fault.Plan.crashes >= report.Shard.Sweep.total_sites)

(* A tiny PM device: 8 KiB for level-0 and the WAL ring, 256-byte
   memtables, no compaction trigger and admission limits out of reach, so
   every major compaction is the policy making room, never a relief step.
   The workload runs flushes and splits out of PM part-way, which must
   leave level-0 as it was. *)
let tiny_pm_config () =
  {
    (durable_config ()) with
    Core.Config.memtable_bytes = 256;
    l0_strategy = Core.Config.Conventional { max_tables = None; max_bytes = None };
    pm_params = { Core.Config.pmblade.Core.Config.pm_params with Pmem.capacity = 8 * 1024 };
    admission_soft_tables = max_int;
    admission_hard_tables = max_int;
  }

let test_sweep_tiny_pm () =
  let cfg = Shard.Sweep.config ~seed:7 (tiny_pm_config ()) in
  let router = Shard.Sweep.fresh cfg in
  Shard.Sweep.run_ops cfg (Fault.Golden.create ()) router;
  let engine = (Shard.Router.engines router).(0) in
  check Alcotest.int "no relief step ran" 0 (Shard.Router.relief_steps router);
  check Alcotest.int "no write stalled" 0 (Shard.Router.stall_count router);
  check Alcotest.bool "the workload makes room" true
    ((Core.Engine.metrics engine).Core.Metrics.major_compactions > 0);
  check Alcotest.bool "and splits" true (Array.length (Core.Engine.partitions engine) > 1);
  let report = Shard.Sweep.sweep ~selection:(Shard.Sweep.Sample 25) cfg in
  if not (Shard.Sweep.clean report) then
    Alcotest.failf "tiny-PM sweep found violations:@.%a" Shard.Sweep.pp_report report

(* --- planted bugs must be caught --- *)

(* Sweep every site: the planted bug corrupts only a few sites' futures
   (e.g. crash points after a dropped PM flush), and the detection claim
   must not depend on a sample getting lucky. *)
let sweep_with_bug rules =
  let cfg = small_sweep_config ~rules () in
  Shard.Sweep.sweep cfg

let violations (report : Shard.Sweep.report) =
  List.concat_map (fun (p : Shard.Sweep.point) -> p.violations) report.points

let is_sanitizer v = v.Fault.Checker.invariant = "sanitizer"

let test_wal_sync_loss_caught () =
  (* the medium drops every WAL ring write-back: acknowledged writes are
     lost at a crash — the sweep must see it. The log still issued its
     clwb, so pmsan (an ordering checker) has nothing to say. *)
  let report =
    sweep_with_bug [ ("wal.sync", Fault.Plan.Every, Fault.Plan.Wal_sync_loss) ]
  in
  check Alcotest.bool "durability bug detected" true
    (Shard.Sweep.violation_count report > 0);
  check Alcotest.bool "pmsan silent on the injected fault" true
    (not (List.exists is_sanitizer (violations report)))

(* The planted protocol bug: every WAL sync skips its fence. With pmsan
   detached, the golden model alone must see acknowledged writes vanish. *)
let test_wal_skip_drain_caught () =
  Sanitize.Control.disable ();
  Core.Wal.chaos_skip_drain := true;
  let report =
    Fun.protect
      ~finally:(fun () ->
        Core.Wal.chaos_skip_drain := false;
        Sanitize.Control.enable ())
      (fun () -> sweep_with_bug [])
  in
  check Alcotest.bool "acked writes lost" true
    (List.exists (fun v -> not (is_sanitizer v)) (violations report))

let test_pm_drop_flush_caught () =
  (* PM tables built without clwb: contents vanish at the crash *)
  let report =
    sweep_with_bug [ ("pm.flush", Fault.Plan.Every, Fault.Plan.Pm_drop_flush) ]
  in
  check Alcotest.bool "missing-flush bug detected" true
    (Shard.Sweep.violation_count report > 0)

(* --- transient I/O errors: retried, not fatal --- *)

(* The WAL lives on PM, so the SSD path a foreground op retries is a read:
   the first SSD read of a get whose key was compacted to the SSD fails
   once, the retry serves it. *)
let test_ssd_io_error_retried () =
  let cfg = durable_config () in
  let engine = Core.Engine.create cfg in
  Core.Engine.put engine ~key:"k" "v";
  Core.Engine.flush engine;
  Core.Engine.force_major_compaction engine;
  let plan = Fault.Plan.create 3 in
  Fault.Plan.add_rule plan ~site:"ssd.read" ~trigger:(Fault.Plan.Nth 1)
    Fault.Plan.Ssd_io_error;
  Fault.Plan.arm plan ~pm:(Core.Engine.pm engine) ~ssd:(Core.Engine.ssd engine);
  Option.iter (Fault.Plan.arm_wal plan) (Core.Engine.wal engine);
  let got = Core.Engine.get engine "k" in
  Fault.Plan.disarm ~pm:(Core.Engine.pm engine) ~ssd:(Core.Engine.ssd engine);
  Option.iter Fault.Plan.disarm_wal (Core.Engine.wal engine);
  check (Alcotest.option Alcotest.string) "read served" (Some "v") got;
  check Alcotest.bool "retry was needed" true
    ((Core.Engine.metrics engine).Core.Metrics.ssd_retries >= 1);
  check Alcotest.int "fault counted" 1 (Fault.Plan.stats plan).Fault.Plan.injected

(* --- corruption targeting --- *)

(* A one-shard store with level-0 tables and a live WAL ring holding
   records its group committer synced: both are live PM regions of
   similar standing. *)
let ring_and_tables () =
  let router = Shard.Router.create (durable_config ()) in
  let sink = Shard.Router.sink router in
  for i = 0 to 299 do
    sink.Workload.Sink.put ~update:true ~key:(Printf.sprintf "user%06d" (i mod 64))
      (Printf.sprintf "v%d" i)
  done;
  let wal = Option.get (Core.Engine.wal (Shard.Router.engines router).(0)) in
  check Alcotest.bool "the ring holds synced records" true (Core.Wal.tail wal > 0);
  (router, wal)

let victim_region victim = Scanf.sscanf victim "%s@:%d" (fun _ id -> id)

let test_pm_table_target_skips_rings () =
  let router, wal = ring_and_tables () in
  let pm = Shard.Router.pm router and ssd = Shard.Router.ssd router in
  let ring = Core.Wal.region_id wal in
  check Alcotest.bool "tables exist beside the ring" true
    (List.length (Pmem.live_regions pm) > 1);
  for seed = 1 to 200 do
    let plan = Fault.Plan.create seed in
    match
      Fault.Plan.inject_corruption plan ~pm ~ssd ~wals:[ wal ] ~target:Fault.Plan.Pm_table_bytes
        ~mode:Fault.Plan.Bit_flip ()
    with
    | Some c ->
        if victim_region c.Fault.Plan.victim = ring then
          Alcotest.failf "seed %d hit the WAL ring as a PM table: %s" seed c.Fault.Plan.victim
    | None -> Alcotest.failf "seed %d found no PM table" seed
  done

let test_wal_target_hits_durable_ring_bytes () =
  let router, wal = ring_and_tables () in
  let pm = Shard.Router.pm router and ssd = Shard.Router.ssd router in
  let durable =
    Pmem.durable_upto (Option.get (Pmem.find_region pm (Core.Wal.region_id wal)))
  in
  for seed = 1 to 50 do
    let plan = Fault.Plan.create seed in
    match
      Fault.Plan.inject_corruption plan ~pm ~ssd ~wals:[ wal ] ~target:Fault.Plan.Wal_bytes
        ~mode:(Fault.Plan.Zero_range 16) ()
    with
    | Some c ->
        Scanf.sscanf c.Fault.Plan.victim "wal_ring:%d off=%d len=%d" (fun id off len ->
            check Alcotest.int "the ring" (Core.Wal.region_id wal) id;
            check Alcotest.bool "inside the durable bytes" true (off + len <= durable))
    | None -> Alcotest.fail "no WAL victim"
  done

(* --- observability wiring --- *)

let test_fault_metrics_registered () =
  let stats = Fault.Plan.make_stats () in
  stats.Fault.Plan.injected <- 4;
  stats.Fault.Plan.crashes <- 2;
  stats.Fault.Plan.recoveries <- 2;
  let reg = Obs.Registry.create () in
  Fault.Plan.register_metrics reg stats;
  check
    (Alcotest.list Alcotest.string)
    "names"
    [ "fault.injected"; "fault.crashes"; "fault.recoveries" ]
    (Obs.Registry.names reg)

let test_fault_injection_traced () =
  let sink, events = Obs.Trace.memory_sink () in
  let clock = Sim.Clock.create () in
  Obs.Trace.enable ~clock sink;
  let plan = Fault.Plan.create 1 in
  Fault.Plan.add_rule plan ~site:"ssd.write" ~trigger:Fault.Plan.Every
    Fault.Plan.Ssd_io_error;
  let ssd = Ssd.create clock in
  Fault.Plan.arm plan ~pm:(Pmem.create clock) ~ssd;
  let f = Ssd.create_file ssd in
  (try Ssd.append ssd f "x" with Ssd.Io_error _ -> ());
  Obs.Trace.disable ();
  let injected =
    List.exists
      (function
        | Obs.Trace.Instant { name = "fault.injected"; _ } -> true
        | _ -> false)
      (events ())
  in
  check Alcotest.bool "fault.injected instant emitted" true injected

let () =
  Alcotest.run "fault"
    [
      ( "plan",
        [
          Alcotest.test_case "site counting deterministic" `Quick
            test_site_counting_deterministic;
          Alcotest.test_case "non-durable rejected" `Quick
            test_nondurable_config_rejected;
          Alcotest.test_case "crash point reproducible" `Quick
            test_crash_point_reproducible;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "all sites clean" `Slow test_sweep_all_sites_clean;
          Alcotest.test_case "tiny PM sample clean" `Quick test_sweep_tiny_pm;
          Alcotest.test_case "wal sync loss caught" `Quick
            test_wal_sync_loss_caught;
          Alcotest.test_case "pm drop flush caught" `Quick
            test_pm_drop_flush_caught;
          Alcotest.test_case "wal skipped fence caught" `Quick test_wal_skip_drain_caught;
        ] );
      ( "corruption targeting",
        [
          Alcotest.test_case "pm-table skips rings" `Quick
            test_pm_table_target_skips_rings;
          Alcotest.test_case "wal hits ring bytes" `Quick
            test_wal_target_hits_durable_ring_bytes;
        ] );
      ( "faults",
        [
          Alcotest.test_case "ssd io error retried" `Quick
            test_ssd_io_error_retried;
        ] );
      ( "obs",
        [
          Alcotest.test_case "metrics registered" `Quick
            test_fault_metrics_registered;
          Alcotest.test_case "injection traced" `Quick
            test_fault_injection_traced;
        ] );
    ]
