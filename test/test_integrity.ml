(* End-to-end data integrity: checksum verification at every layer,
   quarantine and typed degradation on the engine read paths, scrub and
   salvage, the full-store scrubber, and the corruption sweep — including
   the planted skip-the-checksums bug the sweep must catch. *)

let check = Alcotest.check

let small_config =
  {
    Core.Config.pmblade with
    Core.Config.memtable_bytes = 4 * 1024;
    l0_run_table_bytes = 8 * 1024;
    level_base_bytes = 64 * 1024;
    sstable_target_bytes = 16 * 1024;
    durable = true;
  }

let key i = Printf.sprintf "user%06d" i

(* The engine of a durable one-shard store after [ops] writes through its
   front door, whose group committer synced every acknowledged record. *)
let build_engine ?(ops = 300) () =
  let router = Shard.Router.create small_config in
  let put = (Shard.Router.sink router).Workload.Sink.put in
  let rng = Util.Xoshiro.create 5 in
  for i = 0 to ops - 1 do
    put ~update:true ~key:(key (i mod 64))
      (Printf.sprintf "gen%d:%s" i (Util.Xoshiro.string rng 24))
  done;
  (Shard.Router.engines router).(0)

(* --- Pm_table verify / salvage ------------------------------------------- *)

let test_pm_table_verify_salvage () =
  let clock = Sim.Clock.create () in
  let pm = Pmem.create clock in
  let rng = Util.Xoshiro.create 3 in
  let entries =
    Array.init 300 (fun i ->
        Util.Kv.entry ~key:(Util.Keys.ycsb_key i) ~seq:(i + 1)
          (Util.Xoshiro.string rng 24))
  in
  Array.sort Util.Kv.compare_entry entries;
  let t = Pmtable.Pm_table.build pm entries in
  check Alcotest.bool "clean table verifies" true (Pmtable.Pm_table.verify t = []);
  let region = Option.get (Pmem.find_region pm (Pmtable.Pm_table.region_id t)) in
  (* zero a span of the entry layer: at least one group must fail *)
  Pmem.corrupt_region ~len:32 ~mode:`Zero pm region ~off:0;
  check Alcotest.bool "corruption detected" true (Pmtable.Pm_table.verify t <> []);
  (* a point read into the rotten group fails its extent check rather than
     scanning junk *)
  check Alcotest.bool "get into the rotten group raises" true
    (match Pmtable.Pm_table.get t entries.(0).Util.Kv.key with
    | _ -> false
    | exception Pmtable.Integrity.Corrupted { layer = "entry"; index = 0; _ } -> true);
  let survivors, lost = Pmtable.Pm_table.salvage_entries t in
  check Alcotest.bool "lost range recorded" true (lost <> None);
  check Alcotest.bool "fewer survivors than entries" true
    (List.length survivors < Array.length entries);
  check Alcotest.bool "survivors verbatim" true
    (List.for_all
       (fun (e : Util.Kv.entry) -> Array.exists (fun e' -> e = e') entries)
       survivors)

(* --- Sstable verify / salvage --------------------------------------------- *)

let test_sstable_verify_salvage () =
  let clock = Sim.Clock.create () in
  let ssd = Ssd.create clock in
  let entries =
    List.init 400 (fun i ->
        Util.Kv.entry ~key:(Util.Keys.ycsb_key i) ~seq:(i + 1) (String.make 24 'v'))
  in
  let t = Sstable.of_sorted_list ssd entries in
  check Alcotest.bool "clean table verifies" true (Sstable.verify t = []);
  let file = Option.get (Ssd.find_file ssd (Sstable.file_id t)) in
  Ssd.corrupt_file ~len:16 ~mode:`Flip ssd file ~off:100;
  check Alcotest.bool "corruption detected" true (Sstable.verify t <> []);
  let survivors, lost = Sstable.salvage_entries t in
  check Alcotest.bool "lost range recorded" true (lost <> None);
  check Alcotest.bool "survivors verbatim" true
    (List.for_all (fun (e : Util.Kv.entry) -> List.mem e entries) survivors)

(* --- Engine: degraded reads + quarantine ----------------------------------- *)

(* The first live PM region that is a level-0 table, not the WAL ring. *)
let table_region engine =
  let ring = Option.map Core.Wal.region_id (Core.Engine.wal engine) in
  match
    List.filter
      (fun r -> Some (Pmem.region_id r) <> ring)
      (Pmem.live_regions (Core.Engine.pm engine))
  with
  | r :: _ -> r
  | [] -> Alcotest.fail "no live PM table region after flush"

let test_engine_quarantines_rotten_table () =
  let engine = build_engine () in
  Core.Engine.flush engine;
  Core.Engine.force_internal_compaction engine;
  let pm = Core.Engine.pm engine in
  let region = table_region engine in
  (* rot the head of the entry layer: reads into the first group(s) fail *)
  Pmem.corrupt_region ~len:64 ~mode:`Zero pm region ~off:0;
  let degraded = ref 0 in
  for i = 0 to 63 do
    match Core.Engine.get engine (key i) with
    | _ -> ()
    | exception Core.Engine.Degraded_read _ -> incr degraded
  done;
  check Alcotest.bool "some reads degraded (typed exception)" true (!degraded > 0);
  check Alcotest.bool "table quarantined" true (Core.Engine.quarantined engine <> []);
  let m = Core.Engine.metrics engine in
  check Alcotest.bool "quarantine metric" true (m.Core.Metrics.quarantined > 0);
  check Alcotest.bool "degraded-read metric" true (m.Core.Metrics.degraded_reads > 0);
  (* the quarantined table left the read path: a second pass is clean *)
  for i = 0 to 63 do
    match Core.Engine.get engine (key i) with
    | _ -> ()
    | exception Core.Engine.Degraded_read _ -> Alcotest.fail "degraded read after quarantine"
  done;
  (* and the damage is queryable *)
  check Alcotest.bool "damaged_key covers some key" true
    (List.exists (fun i -> Core.Engine.damaged_key engine (key i)) (List.init 64 Fun.id))

let test_engine_degraded_scan_is_typed () =
  let engine = build_engine () in
  Core.Engine.flush engine;
  Core.Engine.force_internal_compaction engine;
  let pm = Core.Engine.pm engine in
  let region = table_region engine in
  Pmem.corrupt_region ~len:64 ~mode:`Zero pm region ~off:0;
  (match Core.Engine.scan_range engine ~start:"" ~stop:"zzzz" with
  | _ -> () (* the rot may sit in a partition the scan widened past *)
  | exception Core.Engine.Degraded_scan e ->
      check Alcotest.bool "partial result carried" true
        (e.Core.Engine.scan_quarantined <> []));
  (* either way: quarantined now, and the next scan is whole *)
  match Core.Engine.scan_range engine ~start:"" ~stop:"zzzz" with
  | _ -> ()
  | exception Core.Engine.Degraded_scan _ -> Alcotest.fail "scan still degraded after quarantine"

(* --- Engine scrub: salvage + lost ranges ----------------------------------- *)

let test_engine_scrub_salvages () =
  let engine = build_engine () in
  Core.Engine.flush engine;
  Core.Engine.force_internal_compaction engine;
  let pm = Core.Engine.pm engine in
  let region = table_region engine in
  Pmem.corrupt_region ~len:32 ~mode:`Zero pm region ~off:0;
  let report = Core.Engine.scrub engine in
  check Alcotest.int "one corrupt PM table" 1 report.Core.Engine.corrupt_pm_tables;
  check Alcotest.bool "salvaged or dropped" true
    (report.Core.Engine.salvaged + report.Core.Engine.dropped = 1);
  check Alcotest.bool "lost range recorded" true (report.Core.Engine.lost_ranges <> []);
  check Alcotest.bool "salvage metric" true
    ((Core.Engine.metrics engine).Core.Metrics.salvaged >= report.Core.Engine.salvaged);
  (* after the salvage the store is clean again *)
  let again = Core.Engine.scrub engine in
  check Alcotest.int "re-scrub clean (pm)" 0 again.Core.Engine.corrupt_pm_tables;
  check Alcotest.int "re-scrub clean (sst)" 0 again.Core.Engine.corrupt_sstables

(* --- Scrubber: WAL and manifest legs --------------------------------------- *)

let test_scrubber_sees_wal_rot () =
  let engine = build_engine ~ops:40 () in
  (* no flush: everything acked lives in the durable WAL ring *)
  let pm = Core.Engine.pm engine in
  let wal = Option.get (Core.Engine.wal engine) in
  let ring = Option.get (Pmem.find_region pm (Core.Wal.region_id wal)) in
  Pmem.corrupt_region pm ring ~off:(Core.Wal.tail wal / 2);
  let report = Core.Scrubber.run engine in
  check Alcotest.bool "wal rot detected" true
    (match report.Core.Scrubber.wal with
    | Some s -> s.Core.Wal.corrupt_records > 0 || s.Core.Wal.torn_tail
    | None -> false);
  check Alcotest.bool "report not clean" true (not (Core.Scrubber.clean report))

let test_scrubber_sees_manifest_rot () =
  let engine = build_engine () in
  Core.Engine.flush engine;
  let ssd = Core.Engine.ssd engine in
  let cur, _ = Ssd.root_slots ~name:(Core.Engine.manifest_root engine) ssd in
  let file = Option.get (Ssd.find_file ssd (Option.get cur)) in
  Ssd.corrupt_file ssd file ~off:(Ssd.file_size file / 2);
  let report = Core.Scrubber.run engine in
  check Alcotest.bool "newest slot flagged" true report.Core.Scrubber.manifest_rotted;
  check Alcotest.bool "report not clean" true (not (Core.Scrubber.clean report))

(* --- Corruption sweep ------------------------------------------------------- *)

(* Each sweep runs on a one-shard and a two-shard router: with several
   shards every point scrubs each shard, under its own manifest root. *)
let sweep_config ~shards =
  Shard.Sweep.config ~seed:17 ~ops:250 { small_config with Core.Config.shard_count = shards }

let test_corruption_sweep_clean ~shards () =
  let report = Shard.Sweep.corruption_sweep ~points:8 (sweep_config ~shards) in
  check Alcotest.int "no skipped points" 0 report.skipped;
  if not (Shard.Sweep.corruption_clean report) then
    Alcotest.failf "corruption sweep not clean:@.%a" Shard.Sweep.pp_corruption_report report;
  List.iter
    (fun (p : Shard.Sweep.corruption_point) ->
      check Alcotest.bool "every injection detected" true p.detected)
    report.points

(* The falsification half: disable checksum verification — the exact
   "skip the verify" regression this subsystem exists to catch — and the
   sweep must come back dirty. *)
let test_corruption_sweep_catches_planted_bug ~shards () =
  Fun.protect
    ~finally:(fun () ->
      Pmtable.Pm_table.verify_checksums := true;
      Sstable.verify_checksums := true)
    (fun () ->
      Pmtable.Pm_table.verify_checksums := false;
      Sstable.verify_checksums := false;
      let report = Shard.Sweep.corruption_sweep ~points:8 (sweep_config ~shards) in
      check Alcotest.bool "planted bug caught" true (not (Shard.Sweep.corruption_clean report));
      check Alcotest.bool "violations reported" true
        (List.exists
           (fun (p : Shard.Sweep.corruption_point) -> p.violations <> [])
           report.points))

let () =
  Alcotest.run "integrity"
    [
      ( "tables",
        [
          Alcotest.test_case "pm table verify + salvage" `Quick
            test_pm_table_verify_salvage;
          Alcotest.test_case "sstable verify + salvage" `Quick
            test_sstable_verify_salvage;
        ] );
      ( "engine",
        [
          Alcotest.test_case "quarantine on rotten table" `Quick
            test_engine_quarantines_rotten_table;
          Alcotest.test_case "degraded scan is typed" `Quick
            test_engine_degraded_scan_is_typed;
          Alcotest.test_case "scrub salvages" `Quick test_engine_scrub_salvages;
        ] );
      ( "scrubber",
        [
          Alcotest.test_case "wal rot" `Quick test_scrubber_sees_wal_rot;
          Alcotest.test_case "manifest rot" `Quick test_scrubber_sees_manifest_rot;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "clean on a healthy stack" `Quick
            (test_corruption_sweep_clean ~shards:1);
          Alcotest.test_case "clean on a healthy 2-shard stack" `Quick
            (test_corruption_sweep_clean ~shards:2);
          Alcotest.test_case "catches planted verify-skip bug" `Quick
            (test_corruption_sweep_catches_planted_bug ~shards:1);
          Alcotest.test_case "catches planted verify-skip bug on 2 shards" `Quick
            (test_corruption_sweep_catches_planted_bug ~shards:2);
        ] );
    ]
