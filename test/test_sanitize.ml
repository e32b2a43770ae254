(* Sanitizer tests: the pmsan shadow state machine on synthetic event
   sequences, planted persistence bugs caught through the real device and
   builder (kill switches), schedsan's happens-before checker on planted
   scheduler races and lost wakeups, and the zero-findings bar on the
   unmodified engine. *)

let check = Alcotest.check

let has_substring s ~sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ---------- pmsan unit level: one checker, hand-fed events ---------- *)

let fresh () = Sanitize.Pmsan.create ()

let test_clean_protocol () =
  let san = fresh () in
  Sanitize.Pmsan.on_alloc san ~id:1 ~len:4096;
  Sanitize.Pmsan.on_write san ~id:1 ~off:0 ~len:200;
  Sanitize.Pmsan.on_flush san ~id:1 ~off:0 ~len:200;
  Sanitize.Pmsan.on_drain san;
  Sanitize.Pmsan.on_commit_point san "wal.sync";
  Sanitize.Pmsan.on_read san ~id:1 ~off:0 ~len:200;
  check Alcotest.int "no errors" 0 (Sanitize.Pmsan.error_count san);
  check Alcotest.int "no redundant flushes" 0 (Sanitize.Pmsan.redundant_flushes san);
  check Alcotest.int "commit point counted" 1 (Sanitize.Pmsan.commit_points san)

let test_missing_flush_at_commit () =
  let san = fresh () in
  Sanitize.Pmsan.on_alloc san ~id:1 ~len:4096;
  Sanitize.Pmsan.on_write san ~id:1 ~off:128 ~len:64;
  Sanitize.Pmsan.on_commit_point san "pmtable.seal";
  check Alcotest.int "one error" 1 (Sanitize.Pmsan.error_count san);
  check Alcotest.int "missing flush" 1 (Sanitize.Pmsan.missing_flush_at_commit san);
  match Sanitize.Pmsan.findings san with
  | [ f ] ->
      check Alcotest.string "kind" "missing-flush-at-commit"
        (Sanitize.Pmsan.kind_name f.Sanitize.Pmsan.kind);
      check Alcotest.bool "names the commit point" true
        (has_substring f.Sanitize.Pmsan.detail ~sub:"pmtable.seal")
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_flushed_but_unfenced_at_commit () =
  (* flush without the closing fence is still unpersisted at a barrier *)
  let san = fresh () in
  Sanitize.Pmsan.on_alloc san ~id:1 ~len:4096;
  Sanitize.Pmsan.on_write san ~id:1 ~off:0 ~len:64;
  Sanitize.Pmsan.on_flush san ~id:1 ~off:0 ~len:64;
  Sanitize.Pmsan.on_commit_point san "wal.sync";
  check Alcotest.int "unfenced line is an error" 1
    (Sanitize.Pmsan.missing_flush_at_commit san)

let test_fence_without_flush () =
  let san = fresh () in
  Sanitize.Pmsan.on_alloc san ~id:1 ~len:4096;
  Sanitize.Pmsan.on_write san ~id:1 ~off:0 ~len:64;
  Sanitize.Pmsan.on_flush san ~id:1 ~off:0 ~len:64;
  Sanitize.Pmsan.on_drain san;
  (* second drain with no flush in between: ordering without write-back *)
  Sanitize.Pmsan.on_drain san;
  check Alcotest.int "fence without flush" 1
    (Sanitize.Pmsan.fence_without_flush san)

let test_read_of_unpersisted () =
  let san = fresh () in
  Sanitize.Pmsan.on_alloc san ~id:1 ~len:4096;
  Sanitize.Pmsan.on_write san ~id:1 ~off:0 ~len:64;
  (* the failing commit point marks the line stale... *)
  Sanitize.Pmsan.on_commit_point san "manifest.install";
  (* ...and a later read of it is flagged *)
  Sanitize.Pmsan.on_read san ~id:1 ~off:0 ~len:8;
  check Alcotest.int "read of unpersisted" 1
    (Sanitize.Pmsan.read_of_unpersisted san);
  check Alcotest.int "two errors total" 2 (Sanitize.Pmsan.error_count san)

let test_redundant_flush_kinds () =
  let san = fresh () in
  Sanitize.Pmsan.on_alloc san ~id:1 ~len:4096;
  (* clean-line flush *)
  Sanitize.Pmsan.on_flush san ~id:1 ~off:0 ~len:64;
  check Alcotest.int "clean-line flush is redundant" 1
    (Sanitize.Pmsan.redundant_flushes san);
  (* double flush of the same dirty line within one fence epoch *)
  Sanitize.Pmsan.on_write san ~id:1 ~off:64 ~len:64;
  Sanitize.Pmsan.on_flush san ~id:1 ~off:64 ~len:64;
  Sanitize.Pmsan.on_flush san ~id:1 ~off:64 ~len:64;
  check Alcotest.int "same-epoch double flush is redundant" 2
    (Sanitize.Pmsan.redundant_flushes san);
  (* rewrite of a flushed-but-unfenced line: the first clwb bought nothing *)
  Sanitize.Pmsan.on_write san ~id:1 ~off:128 ~len:64;
  Sanitize.Pmsan.on_flush san ~id:1 ~off:128 ~len:64;
  Sanitize.Pmsan.on_write san ~id:1 ~off:128 ~len:64;
  check Alcotest.int "write-after-flush-before-fence is redundant" 3
    (Sanitize.Pmsan.redundant_flushes san);
  (* redundancy is a performance signal, not a correctness error *)
  check Alcotest.int "not an error" 0 (Sanitize.Pmsan.error_count san);
  check Alcotest.bool "per-site table populated" true
    (Sanitize.Pmsan.redundant_by_site san <> [])

let test_fence_resets_epoch () =
  (* re-flushing the same line is fine across a fence: new epoch *)
  let san = fresh () in
  Sanitize.Pmsan.on_alloc san ~id:1 ~len:4096;
  Sanitize.Pmsan.on_write san ~id:1 ~off:0 ~len:64;
  Sanitize.Pmsan.on_flush san ~id:1 ~off:0 ~len:64;
  Sanitize.Pmsan.on_drain san;
  Sanitize.Pmsan.on_write san ~id:1 ~off:0 ~len:64;
  Sanitize.Pmsan.on_flush san ~id:1 ~off:0 ~len:64;
  Sanitize.Pmsan.on_drain san;
  check Alcotest.int "no redundancy across epochs" 0
    (Sanitize.Pmsan.redundant_flushes san)

let test_crash_clears_outstanding () =
  let san = fresh () in
  Sanitize.Pmsan.on_alloc san ~id:1 ~len:4096;
  Sanitize.Pmsan.on_write san ~id:1 ~off:0 ~len:64;
  Sanitize.Pmsan.on_crash san;
  (* the device reverted: the dirty line no longer exists, so the next
     commit point is clean *)
  Sanitize.Pmsan.on_commit_point san "wal.sync";
  check Alcotest.int "no error after crash reset" 0
    (Sanitize.Pmsan.error_count san)

let test_free_forgets_region () =
  let san = fresh () in
  Sanitize.Pmsan.on_alloc san ~id:7 ~len:4096;
  Sanitize.Pmsan.on_write san ~id:7 ~off:0 ~len:64;
  Sanitize.Pmsan.on_free san ~id:7;
  Sanitize.Pmsan.on_commit_point san "wal.sync";
  check Alcotest.int "freed dirty lines don't fire" 0
    (Sanitize.Pmsan.error_count san)

(* ---------- planted bugs through the real device ---------- *)

let make_pm () =
  let clock = Sim.Clock.create () in
  Pmem.create clock

let build_table pm ~bytes =
  let region = Pmem.alloc pm (4 * bytes) in
  let b = Pmtable.Builder.create pm region (String.make (4 * bytes) 'x') in
  let n = bytes / 100 in
  for _ = 1 to n do
    Pmtable.Builder.stage b 100
  done;
  ignore (Pmtable.Builder.finish b : int)

let with_chaos flag f =
  flag := true;
  Fun.protect ~finally:(fun () -> flag := false) f

let test_planted_missing_flush_in_seal () =
  let pm = make_pm () in
  with_chaos Pmtable.Builder.chaos_skip_flush (fun () ->
      build_table pm ~bytes:6000);
  let san = Option.get (Pmem.sanitizer pm) in
  check Alcotest.bool "pmsan catches the dropped clwb" true
    (Sanitize.Pmsan.missing_flush_at_commit san > 0);
  check Alcotest.bool "attributed to the seal" true
    (List.exists
       (fun f -> has_substring f.Sanitize.Pmsan.detail ~sub:"pmtable.seal")
       (Sanitize.Pmsan.findings san))

let test_planted_missing_fence_in_seal () =
  let pm = make_pm () in
  with_chaos Pmtable.Builder.chaos_skip_drain (fun () ->
      build_table pm ~bytes:6000);
  let san = Option.get (Pmem.sanitizer pm) in
  check Alcotest.bool "pmsan catches the dropped fence" true
    (Sanitize.Pmsan.missing_flush_at_commit san > 0)

let test_planted_missing_fence_at_wal_sync () =
  (* the WAL-sync shape: PM bytes flushed but the barrier declared before
     any fence — pmsan must flag the unfenced lines *)
  let pm = make_pm () in
  let region = Pmem.alloc pm 4096 in
  Pmem.write pm region ~off:0 (String.make 256 'w');
  Pmem.flush pm region ~off:0 ~len:256;
  Pmem.commit_point pm "wal.sync";
  let san = Option.get (Pmem.sanitizer pm) in
  check Alcotest.bool "unfenced lines at wal.sync" true
    (Sanitize.Pmsan.missing_flush_at_commit san > 0)

(* The real log ring: with the kill switch on, Wal.sync writes its group
   back but skips the fence, and pmsan flags the commit point; the same
   syncs without the plant are clean and flush each line exactly once. *)
let wal_syncs pm =
  let wal = Core.Wal.create ~capacity:4096 pm in
  for i = 1 to 5 do
    Core.Wal.append wal (Util.Kv.entry ~key:(Printf.sprintf "k%d" i) ~seq:i "value");
    Core.Wal.sync wal
  done

let test_planted_wal_skip_drain () =
  let pm = make_pm () in
  with_chaos Core.Wal.chaos_skip_drain (fun () -> wal_syncs pm);
  let san = Option.get (Pmem.sanitizer pm) in
  check Alcotest.bool "pmsan catches the skipped fence" true
    (Sanitize.Pmsan.missing_flush_at_commit san > 0);
  check Alcotest.bool "attributed to wal.sync" true
    (List.exists
       (fun f -> has_substring f.Sanitize.Pmsan.detail ~sub:"wal.sync")
       (Sanitize.Pmsan.findings san));
  let pm = make_pm () in
  wal_syncs pm;
  let san = Option.get (Pmem.sanitizer pm) in
  check Alcotest.int "unplanted log: no errors" 0 (Sanitize.Pmsan.error_count san);
  check Alcotest.int "unplanted log: no redundant flushes" 0
    (Sanitize.Pmsan.redundant_flushes san)

let test_builder_is_dedup_clean () =
  (* multi-chunk builds must flush each line exactly once per build *)
  let pm = make_pm () in
  build_table pm ~bytes:20_000;
  let san = Option.get (Pmem.sanitizer pm) in
  check Alcotest.int "no errors" 0 (Sanitize.Pmsan.error_count san);
  check Alcotest.int "no redundant flushes" 0
    (Sanitize.Pmsan.redundant_flushes san)

let test_sanitizer_detached_when_disabled () =
  Sanitize.Control.disable ();
  Fun.protect ~finally:Sanitize.Control.enable (fun () ->
      let pm = make_pm () in
      check Alcotest.bool "no checker attached" true
        (Pmem.sanitizer pm = None))

let test_sweep_reports_sanitizer_violations () =
  (* the crash sweep runs sanitized: a planted dropped clwb in the builder
     must surface as "sanitizer" invariant violations on legs that build a
     PM table before the crash *)
  let cfg =
    Shard.Sweep.config ~ops:120
      {
        Core.Config.pmblade with
        Core.Config.memtable_bytes = 2 * 1024;
        l0_run_table_bytes = 4 * 1024;
        level_base_bytes = 32 * 1024;
        sstable_target_bytes = 8 * 1024;
        durable = true;
      }
  in
  let total = Shard.Sweep.count_sites cfg in
  (* crash beyond the last site: the full workload (including the tail
     flush that builds PM tables) runs, then the plug is pulled *)
  let p =
    with_chaos Pmtable.Builder.chaos_skip_flush (fun () ->
        Shard.Sweep.run_crash_at cfg (total + 1))
  in
  check Alcotest.bool "sanitizer violations surfaced" true
    (List.exists
       (fun v -> v.Fault.Checker.invariant = "sanitizer")
       p.Shard.Sweep.violations)

(* ---------- the zero-findings bar: unmodified engine ---------- *)

let small_config =
  {
    Core.Config.pmblade with
    Core.Config.memtable_bytes = 4 * 1024;
    l0_run_table_bytes = 8 * 1024;
    level_base_bytes = 64 * 1024;
    sstable_target_bytes = 16 * 1024;
    durable = true;
  }

(* The durable store is a one-shard router: its group committer's WAL
   syncs run under the checker too. *)
let test_engine_workload_zero_findings () =
  let router = Shard.Router.create small_config in
  let sink = Shard.Router.sink router in
  let engine = (Shard.Router.engines router).(0) in
  let rng = Util.Xoshiro.create 0xFEED in
  for i = 0 to 399 do
    let key = Printf.sprintf "user%06d" (Util.Xoshiro.int rng 512) in
    match Util.Xoshiro.int rng 10 with
    | r when r < 7 ->
        sink.Workload.Sink.put ~update:true ~key
          (Printf.sprintf "%d:%s" i (Util.Xoshiro.string rng 96))
    | 7 | 8 -> ignore (sink.Workload.Sink.get key)
    | _ -> sink.Workload.Sink.delete key
  done;
  Shard.Router.flush router;
  Core.Engine.force_internal_compaction engine;
  ignore (sink.Workload.Sink.scan ~start:"user000000" ~limit:32);
  let san = Option.get (Pmem.sanitizer (Core.Engine.pm engine)) in
  check Alcotest.int "zero ordering findings" 0 (Sanitize.Pmsan.error_count san);
  check Alcotest.int "zero redundant flushes" 0
    (Sanitize.Pmsan.redundant_flushes san);
  check Alcotest.bool "commit points exercised" true
    (Sanitize.Pmsan.commit_points san > 0)

let test_config_opt_out_detaches () =
  Sanitize.Control.disable ();
  Fun.protect ~finally:Sanitize.Control.enable (fun () ->
      let engine = (Shard.Router.engines (Shard.Router.create small_config)).(0) in
      check Alcotest.bool "opt-out detaches the engine's checker" true
        (Pmem.sanitizer (Core.Engine.pm engine) = None))

(* ---------- schedsan through the real scheduler ---------- *)

let make_sched () =
  let clock = Sim.Clock.create () in
  let des = Sim.Des.create clock in
  let ssd = Ssd.create clock in
  Coroutine.Scheduler.create ~cores:1
    ~policy:(Coroutine.Scheduler.Cooperative { switch_cost = 0.0 })
    des ssd

let schedsan sched = Option.get (Coroutine.Scheduler.sanitizer sched)

let test_planted_race () =
  (* two tasks read-modify-write an annotated shared counter with a yield
     inside the critical section and no synchronization: a textbook race *)
  let sched = make_sched () in
  let san = schedsan sched in
  let counter = ref 0 in
  for i = 0 to 1 do
    Coroutine.Scheduler.spawn ~name:(Printf.sprintf "rmw-%d" i) sched 0
      (fun () ->
        Sanitize.Schedsan.read san "counter";
        let v = !counter in
        Coroutine.Co.yield ();
        counter := v + 1;
        Sanitize.Schedsan.write san "counter")
  done;
  ignore (Coroutine.Scheduler.run_to_completion sched);
  check Alcotest.bool "race reported" true (Sanitize.Schedsan.races san > 0)

let test_latch_synchronized_is_race_free () =
  (* same shared counter, but the second task only touches it after
     awaiting a latch the first task signals: happens-before covers it *)
  let sched = make_sched () in
  let san = schedsan sched in
  let l = Coroutine.Co.latch ~name:"handoff" () in
  let counter = ref 0 in
  Coroutine.Scheduler.spawn ~name:"producer" sched 0 (fun () ->
      counter := 1;
      Sanitize.Schedsan.write san "counter";
      Coroutine.Co.signal l);
  Coroutine.Scheduler.spawn ~name:"consumer" sched 0 (fun () ->
      Coroutine.Co.await l;
      counter := !counter + 1;
      Sanitize.Schedsan.write san "counter");
  ignore (Coroutine.Scheduler.run_to_completion sched);
  check Alcotest.int "no race" 0 (Sanitize.Schedsan.races san);
  check Alcotest.int "counter saw both writes" 2 !counter

let test_lost_wakeup () =
  let sched = make_sched () in
  let san = schedsan sched in
  let l = Coroutine.Co.latch ~name:"never-signaled" () in
  Coroutine.Scheduler.spawn ~name:"waiter" sched 0 (fun () ->
      Coroutine.Co.await l);
  ignore (Coroutine.Scheduler.run_to_completion sched);
  check Alcotest.bool "lost wakeup reported" true
    (Sanitize.Schedsan.lost_wakeups san > 0)

let test_signaled_waiter_is_not_lost () =
  let sched = make_sched () in
  let san = schedsan sched in
  let l = Coroutine.Co.latch () in
  Coroutine.Scheduler.spawn ~name:"waiter" sched 0 (fun () ->
      Coroutine.Co.await l);
  Coroutine.Scheduler.spawn ~name:"signaler" sched 0 (fun () ->
      Coroutine.Co.work 10.0;
      Coroutine.Co.signal l);
  ignore (Coroutine.Scheduler.run_to_completion sched);
  check Alcotest.int "no lost wakeup" 0 (Sanitize.Schedsan.lost_wakeups san);
  check Alcotest.int "no races" 0 (Sanitize.Schedsan.races san)

(* ---------- obs integration ---------- *)

let test_metrics_registered () =
  let san = fresh () in
  Sanitize.Pmsan.on_alloc san ~id:1 ~len:4096;
  Sanitize.Pmsan.on_flush san ~id:1 ~off:0 ~len:64 (* redundant: clean *);
  let reg = Obs.Registry.create () in
  Sanitize.Pmsan.register_metrics san reg;
  let json = Obs.Registry.snapshot_json reg in
  let find name =
    match Option.bind (Obs.Json.member name json) Obs.Json.to_float_opt with
    | Some v -> v
    | None -> Alcotest.failf "metric %s not registered" name
  in
  check (Alcotest.float 1e-9) "redundant flush exported" 1.0
    (find "sanitize.redundant_flush");
  check (Alcotest.float 1e-9) "no ordering errors" 0.0
    (find "sanitize.missing_flush_at_commit")

let () =
  Alcotest.run "sanitize"
    [
      ( "pmsan state machine",
        [
          Alcotest.test_case "clean protocol" `Quick test_clean_protocol;
          Alcotest.test_case "missing flush at commit" `Quick
            test_missing_flush_at_commit;
          Alcotest.test_case "flushed-unfenced at commit" `Quick
            test_flushed_but_unfenced_at_commit;
          Alcotest.test_case "fence without flush" `Quick
            test_fence_without_flush;
          Alcotest.test_case "read of unpersisted" `Quick
            test_read_of_unpersisted;
          Alcotest.test_case "redundant flush kinds" `Quick
            test_redundant_flush_kinds;
          Alcotest.test_case "fence resets epoch" `Quick test_fence_resets_epoch;
          Alcotest.test_case "crash clears outstanding" `Quick
            test_crash_clears_outstanding;
          Alcotest.test_case "free forgets region" `Quick
            test_free_forgets_region;
        ] );
      ( "planted bugs",
        [
          Alcotest.test_case "dropped clwb in seal" `Quick
            test_planted_missing_flush_in_seal;
          Alcotest.test_case "dropped fence in seal" `Quick
            test_planted_missing_fence_in_seal;
          Alcotest.test_case "dropped fence at wal.sync" `Quick
            test_planted_missing_fence_at_wal_sync;
          Alcotest.test_case "wal ring skipped fence" `Quick test_planted_wal_skip_drain;
          Alcotest.test_case "builder is dedup-clean" `Quick
            test_builder_is_dedup_clean;
          Alcotest.test_case "detached when disabled" `Quick
            test_sanitizer_detached_when_disabled;
          Alcotest.test_case "sweep reports sanitizer violations" `Quick
            test_sweep_reports_sanitizer_violations;
        ] );
      ( "engine zero-findings bar",
        [
          Alcotest.test_case "workload has zero findings" `Quick
            test_engine_workload_zero_findings;
          Alcotest.test_case "config opt-out detaches" `Quick
            test_config_opt_out_detaches;
        ] );
      ( "schedsan",
        [
          Alcotest.test_case "planted race" `Quick test_planted_race;
          Alcotest.test_case "latch-synchronized is race-free" `Quick
            test_latch_synchronized_is_race_free;
          Alcotest.test_case "lost wakeup" `Quick test_lost_wakeup;
          Alcotest.test_case "signaled waiter is not lost" `Quick
            test_signaled_waiter_is_not_lost;
        ] );
      ( "obs",
        [ Alcotest.test_case "metrics registered" `Quick test_metrics_registered ] );
    ]
