(* Chaos soak benchmark (BENCH_soak): the availability layer under fire.

   One seeded [Shard.Soak] run interleaves calm traffic with fail-slow
   devices (PM flush, SSD read, stuck fsync confined to one sick shard's
   file range), duty-cycled I/O error storms, crash-restart cycles
   (including a crash during recovery), and injected bit rot — all
   through the health-aware router API with deadline budgets on. The
   headline claims are the gray-failure ones: ops routed to *healthy*
   shards keep completing in budget while a sibling's device range is
   sick, the overall deadline-ok ratio stays high because breakers
   convert unbounded waits into fast typed refusals, and the whole run
   ends with zero golden/manifest/sanitizer violations.

     dune exec bench/main.exe -- soak --json BENCH_soak.json

   The run fails its own floors on any violation, a healthy-shard ratio
   under 0.99, a deadline-ok ratio under 0.992 (with breakers off this
   seed lands near 0.988) or a run without a crash-restart cycle, before
   scripts/check_bench.sh compares it with the baseline.

   A second short leg reruns the same gray-fault soak with breakers
   disabled to document the collapse the health layer prevents (metric
   only, not gated). PMB_PLANT=no_breaker instead disables breakers on
   the *main* leg while stamping the nominal fingerprint: the planted
   outage must trip the availability gate. *)

let planted () =
  match Sys.getenv_opt "PMB_PLANT" with Some "no_breaker" -> true | _ -> false

let rounds = 18
let ops_per_round = 600

(* Small memtables so flush/compaction traffic is dense enough for the
   fault episodes to bite; deadline budgets sized so healthy ops pass
   with wide margin while a 25x fail-slow device blows them. *)
let config ~breakers name =
  {
    Core.Config.pmblade with
    Core.Config.name;
    memtable_bytes = 32 * 1024;
    l0_run_table_bytes = 32 * 1024;
    (* scaled-down cost-model thresholds (major compaction at 48 KB of
       level-0, 16 KB preserved warm set) push the working set onto the
       SSD, so fail-slow reads, error storms and bit rot face the sick
       device instead of being absorbed by PM; no block cache for the
       same reason *)
    l0_strategy =
      Core.Config.Cost_based
        {
          Compaction.Cost_model.default with
          tau_w = 8 * 1024;
          tau_m = 48 * 1024;
          tau_t = 16 * 1024;
        };
    l0_capacity = 64 * 1024;
    block_cache_mb = 0;
    durable = true;
    shard_count = 4;
    admission_soft_tables = 24;
    admission_hard_tables = 48;
    deadline_read_ns = 300_000.0;
    deadline_write_ns = 2_000_000.0;
    breaker_enabled = breakers;
  }

let run_leg ~breakers name =
  let cfg = config ~breakers name in
  let scfg = Shard.Soak.config ~seed:42 ~rounds ~ops_per_round ~keyspace:6000 cfg in
  Shard.Soak.run scfg

let run () =
  Report.heading
    "Chaos soak: gray faults, crashes and corruption under deadline serving";
  Report.note_config (config ~breakers:true "soak");
  let r = run_leg ~breakers:(not (planted ())) "soak" in
  let l = r.Shard.Soak.ledger in
  Report.table
    ~header:[ "outcome"; "count" ]
    [
      [ "ok"; string_of_int (Health.Ledger.ok l) ];
      [ "degraded"; string_of_int (Health.Ledger.degraded l) ];
      [ "shed"; string_of_int (Health.Ledger.shed l) ];
      [ "unavailable"; string_of_int (Health.Ledger.unavailable l) ];
      [ "failed"; string_of_int (Health.Ledger.failed l) ];
      [ "deadline_miss"; string_of_int (Health.Ledger.deadline_miss l) ];
    ];
  Report.note "episodes: %s"
    (String.concat " "
       (List.map
          (fun (n, c) -> Printf.sprintf "%s:%d" n c)
          r.Shard.Soak.episode_counts));
  let deadline_ok = Shard.Soak.deadline_ok_ratio r in
  let healthy = Shard.Soak.healthy_ratio r in
  let sick_within = Shard.Soak.sick_within_ratio r in
  let mean_ttr_ms = Shard.Soak.mean_recovery_ns r /. 1e6 in
  let violations = List.length r.Shard.Soak.violations in
  Report.record_metric "soak.ops" (float_of_int r.Shard.Soak.soak_ops);
  Report.record_metric "soak.deadline_ok_ratio" deadline_ok;
  Report.record_metric "soak.healthy_ratio" healthy;
  Report.record_metric "soak.sick_within_ratio" sick_within;
  Report.record_metric "soak.violations" (float_of_int violations);
  Report.record_metric "soak.breaker_trips" (float_of_int r.Shard.Soak.trips);
  Report.record_metric "soak.breaker_rejections" (float_of_int r.Shard.Soak.rejections);
  Report.record_metric "soak.shed" (float_of_int (Health.Ledger.shed l));
  Report.record_metric "soak.degraded" (float_of_int (Health.Ledger.degraded l));
  Report.record_metric "soak.unavailable" (float_of_int (Health.Ledger.unavailable l));
  Report.record_metric "soak.deadline_miss" (float_of_int (Health.Ledger.deadline_miss l));
  Report.record_metric "soak.injected" (float_of_int r.Shard.Soak.injected);
  Report.record_metric "soak.crashes" (float_of_int r.Shard.Soak.crashes);
  Report.record_metric "soak.double_crashes" (float_of_int r.Shard.Soak.double_crashes);
  Report.record_metric "soak.mean_ttr_ms" mean_ttr_ms;
  List.iter
    (fun v -> Report.note "violation: %s" (Fmt.str "%a" Fault.Checker.pp_violation v))
    r.Shard.Soak.violations;
  (* The counterfactual: identical soak, breakers off. Documents the
     collapse the health layer prevents; gated only through the main
     leg's numbers (which PMB_PLANT=no_breaker turns into this). *)
  if not (planted ()) then begin
    let r0 = run_leg ~breakers:false "soak-no-breaker" in
    Report.record_metric "soak.no_breaker.deadline_ok_ratio" (Shard.Soak.deadline_ok_ratio r0);
    Report.record_metric "soak.no_breaker.healthy_ratio" (Shard.Soak.healthy_ratio r0);
    Report.note "without breakers the deadline-ok ratio falls to %.4f"
      (Shard.Soak.deadline_ok_ratio r0)
  end
  else Report.note "PLANTED outage active: breakers disabled on the main leg";
  Report.require (Printf.sprintf "violations %d = 0" violations) (violations = 0);
  Report.require
    (Printf.sprintf "healthy-shard within-budget ratio %.4f >= 0.99" healthy)
    (healthy >= 0.99);
  Report.require
    (Printf.sprintf "deadline-ok ratio %.4f >= 0.992" deadline_ok)
    (deadline_ok >= 0.992);
  Report.require
    (Printf.sprintf "crash-restart cycles %d >= 1" r.Shard.Soak.crashes)
    (r.Shard.Soak.crashes >= 1)
