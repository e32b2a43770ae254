(* Durability and recovery tests: PM-table and SSTable reopening, WAL
   semantics, manifest roundtrip, and full crash/recover equivalence of
   the durable store, a one-shard router (its group committer is the one
   WAL sync, its recovery the one orphan collector). *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Pm_table.open_existing ---------------------------------------------- *)

let test_pm_table_reopen () =
  let clock = Sim.Clock.create () in
  let pm = Pmem.create clock in
  let rng = Util.Xoshiro.create 3 in
  let entries =
    Array.init 500 (fun i ->
        Util.Kv.entry
          ~key:(Util.Keys.record_key ~table_id:(i / 200) ~row_id:(i * 2))
          ~seq:(i + 1)
          (Util.Xoshiro.string rng 32))
  in
  Array.sort Util.Kv.compare_entry entries;
  let built = Pmtable.Pm_table.build pm entries in
  let region = Option.get (Pmem.find_region pm (Pmtable.Pm_table.region_id built)) in
  let reopened = Pmtable.Pm_table.open_existing pm region in
  check Alcotest.int "count" (Pmtable.Pm_table.count built) (Pmtable.Pm_table.count reopened);
  check Alcotest.string "min key" (Pmtable.Pm_table.min_key built)
    (Pmtable.Pm_table.min_key reopened);
  check Alcotest.string "max key" (Pmtable.Pm_table.max_key built)
    (Pmtable.Pm_table.max_key reopened);
  (* every key resolves identically through the reopened handle *)
  Array.iter
    (fun (e : Util.Kv.entry) ->
      check Alcotest.bool ("get " ^ e.key) true
        (Pmtable.Pm_table.get reopened e.key = Pmtable.Pm_table.get built e.key))
    entries;
  check Alcotest.bool "iter identical" true
    (Pmtable.Pm_table.to_list reopened = Pmtable.Pm_table.to_list built)

let test_pm_table_reopen_bad_magic () =
  let clock = Sim.Clock.create () in
  let pm = Pmem.create clock in
  let region = Pmem.alloc pm 64 in
  Pmem.write pm region ~off:0 (String.make 64 'x');
  check Alcotest.bool "bad magic raises" true
    (try ignore (Pmtable.Pm_table.open_existing pm region); false with Failure _ -> true)

(* --- Sstable.open_existing ------------------------------------------------ *)

let test_sstable_reopen () =
  let clock = Sim.Clock.create () in
  let ssd = Ssd.create clock in
  let entries =
    List.init 400 (fun i -> Util.Kv.entry ~key:(Util.Keys.ycsb_key (i * 3)) ~seq:(i + 1) "v")
  in
  let built = Sstable.of_sorted_list ssd entries in
  let file = Option.get (Ssd.find_file ssd (Sstable.file_id built)) in
  let reopened = Sstable.open_existing ssd file in
  check Alcotest.int "count" (Sstable.count built) (Sstable.count reopened);
  check Alcotest.string "min" (Sstable.min_key built) (Sstable.min_key reopened);
  check Alcotest.string "max" (Sstable.max_key built) (Sstable.max_key reopened);
  List.iter
    (fun (e : Util.Kv.entry) ->
      check Alcotest.bool ("get " ^ e.key) true
        (Sstable.get reopened e.key = Sstable.get built e.key))
    (List.filteri (fun i _ -> i mod 7 = 0) entries);
  (* bloom survived: misses stay off the device *)
  let r0 = (Ssd.stats ssd).Ssd.reads in
  for i = 0 to 99 do
    ignore (Sstable.get reopened (Util.Keys.ycsb_key ((i * 3) + 1)))
  done;
  check Alcotest.bool "bloom active after reopen" true ((Ssd.stats ssd).Ssd.reads - r0 < 20)

(* --- Wal -------------------------------------------------------------------- *)

let ring_pm () =
  let pm = Pmem.create (Sim.Clock.create ()) in
  Pmem.enable_crash_mode pm;
  pm

let new_wal pm = Core.Wal.create ~capacity:(64 * 1024) pm

let replay_keys wal =
  let replayed = ref [] in
  let stats = Core.Wal.replay wal (fun e -> replayed := e.Util.Kv.key :: !replayed) in
  (List.rev !replayed, stats)

let reopen pm wal = Core.Wal.open_existing pm ~region_id:(Core.Wal.region_id wal)

let test_wal_roundtrip () =
  let wal = new_wal (ring_pm ()) in
  let entries =
    List.init 100 (fun i ->
        if i mod 9 = 0 then Util.Kv.tombstone ~key:(Printf.sprintf "k%03d" i) ~seq:i
        else Util.Kv.entry ~key:(Printf.sprintf "k%03d" i) ~seq:i (Printf.sprintf "v%d" i))
  in
  List.iter (Core.Wal.append wal) entries;
  check Alcotest.int "entry count" 100 (Core.Wal.entry_count wal);
  Core.Wal.sync wal;
  let replayed = ref [] in
  ignore @@ Core.Wal.replay wal (fun e -> replayed := e :: !replayed);
  check Alcotest.bool "replay order + content" true (List.rev !replayed = entries)

let test_wal_rotate () =
  let pm = ring_pm () in
  let wal = new_wal pm in
  Core.Wal.append wal (Util.Kv.entry ~key:"old" ~seq:1 "x");
  Core.Wal.sync wal;
  let old_ring = Core.Wal.region_id wal in
  Core.Wal.rotate wal;
  check Alcotest.bool "fresh ring region" true (Core.Wal.region_id wal <> old_ring);
  check Alcotest.bool "old ring freed" true (Pmem.find_region pm old_ring = None);
  Core.Wal.append wal (Util.Kv.entry ~key:"new" ~seq:2 "y");
  Core.Wal.sync wal;
  check (Alcotest.list Alcotest.string) "only post-rotate entries" [ "new" ]
    (fst (replay_keys wal))

(* Regression: entries staged in the group buffer but never synced before
   a crash must not be resurrected by replay — an acknowledged-sync
   boundary is exactly what recovery may trust. *)
let test_wal_unsynced_not_resurrected () =
  let pm = ring_pm () in
  let wal = new_wal pm in
  Core.Wal.append wal (Util.Kv.entry ~key:"synced" ~seq:1 "v");
  Core.Wal.sync wal;
  Core.Wal.append wal (Util.Kv.entry ~key:"buffered" ~seq:2 "v");
  check Alcotest.bool "buffer non-empty" true (Core.Wal.buffered_bytes wal > 0);
  check (Alcotest.list Alcotest.string) "live replay sees only synced" [ "synced" ]
    (fst (replay_keys wal));
  Pmem.crash pm;
  check (Alcotest.list Alcotest.string) "post-crash replay sees only synced" [ "synced" ]
    (fst (replay_keys (reopen pm wal)))

(* A torn last group — the medium kept only part of the ring's final
   write-back — ends the replay at the last complete entry instead of
   failing. *)
let test_wal_torn_tail () =
  let pm = ring_pm () in
  let wal = new_wal pm in
  Core.Wal.append wal (Util.Kv.entry ~key:"aaaa" ~seq:1 "first");
  Core.Wal.sync wal;
  let durable = Core.Wal.tail wal in
  Core.Wal.append wal (Util.Kv.entry ~key:"bbbb" ~seq:2 "second");
  Core.Wal.append wal (Util.Kv.entry ~key:"cccc" ~seq:3 "third");
  (* the group's write-back persists only its first 11 bytes: past the
     start of the group's first record, short of its end *)
  let line0 = durable land lnot 63 in
  Pmem.set_flush_hook pm
    (Some (fun ~region_id:_ ~off:_ ~len:_ -> Pmem.Flush_partial (durable - line0 + 11)));
  Core.Wal.sync wal;
  Pmem.set_flush_hook pm None;
  Pmem.crash pm;
  let keys, stats = replay_keys (reopen pm wal) in
  check (Alcotest.list Alcotest.string) "replay stops at last complete entry" [ "aaaa" ] keys;
  check Alcotest.bool "torn tail reported" true stats.Core.Wal.torn_tail;
  check Alcotest.int "no record counted corrupt" 0 stats.Core.Wal.corrupt_records

let test_wal_reattach () =
  let pm = ring_pm () in
  let wal = new_wal pm in
  Core.Wal.append wal (Util.Kv.entry ~key:"survives" ~seq:7 "v");
  Core.Wal.sync wal;
  let again = reopen pm wal in
  check (Alcotest.list Alcotest.string) "reattached log replays" [ "survives" ]
    (fst (replay_keys again));
  (* appends resume at the fenced extent, after the surviving record *)
  Core.Wal.append again (Util.Kv.entry ~key:"appended" ~seq:8 "w");
  Core.Wal.sync again;
  Pmem.crash pm;
  check (Alcotest.list Alcotest.string) "resumed log replays both" [ "survives"; "appended" ]
    (fst (replay_keys (reopen pm again)))

(* One bit flipped in the middle record's payload: that record is skipped
   and counted, the records on both sides of it still replay. *)
let test_wal_mid_log_bit_flip () =
  let pm = ring_pm () in
  let wal = new_wal pm in
  let sync_one key =
    Core.Wal.append wal (Util.Kv.entry ~key ~seq:(Char.code key.[0]) "payload");
    Core.Wal.sync wal
  in
  sync_one "a";
  let mid = Core.Wal.tail wal in
  sync_one "b";
  sync_one "c";
  let ring = Option.get (Pmem.find_region pm (Core.Wal.region_id wal)) in
  let off = mid + 8 + 2 in
  let byte = Char.code (Pmem.unsafe_peek ring ~off ~len:1).[0] in
  Pmem.write pm ring ~off (String.make 1 (Char.chr (byte lxor 0x10)));
  Pmem.flush pm ring ~off ~len:1;
  Pmem.drain pm;
  Pmem.crash pm;
  let keys, stats = replay_keys (reopen pm wal) in
  check (Alcotest.list Alcotest.string) "neighbours replay" [ "a"; "c" ] keys;
  check Alcotest.int "flipped record counted" 1 stats.Core.Wal.corrupt_records;
  check Alcotest.bool "not a torn tail" false stats.Core.Wal.torn_tail

(* Replay reads the fenced extent and nothing past it: a complete,
   checksum-valid frame written beyond the tail but never fenced — here a
   group whose sync skipped its fence — is never delivered, live or after
   a crash. *)
let test_wal_nothing_past_durable_tail () =
  let pm = ring_pm () in
  let wal = new_wal pm in
  Core.Wal.append wal (Util.Kv.entry ~key:"fenced" ~seq:1 "v");
  Core.Wal.sync wal;
  Core.Wal.append wal (Util.Kv.entry ~key:"unfenced" ~seq:2 "v");
  Core.Wal.chaos_skip_drain := true;
  Fun.protect ~finally:(fun () -> Core.Wal.chaos_skip_drain := false) (fun () ->
      Core.Wal.sync wal);
  check Alcotest.bool "the frame is on the ring" true
    (Core.Wal.tail wal > Pmem.durable_upto
                           (Option.get (Pmem.find_region pm (Core.Wal.region_id wal))));
  check (Alcotest.list Alcotest.string) "live replay stops at the fenced extent"
    [ "fenced" ] (fst (replay_keys wal));
  Pmem.crash pm;
  let keys, stats = replay_keys (reopen pm wal) in
  check (Alcotest.list Alcotest.string) "post-crash replay too" [ "fenced" ] keys;
  check Alcotest.bool "clean" true
    ((not stats.Core.Wal.torn_tail) && stats.Core.Wal.corrupt_records = 0)

(* --- Manifest ----------------------------------------------------------------- *)

let manifest_sample =
  {
    Core.Manifest.next_seq = 4242;
    wal_region_id = Some 17;
    partitions =
      [
        {
          Core.Manifest.lo = "";
          hi = "m";
          unsorted = [ { Core.Manifest.region_id = 3; watermark = "" }; { region_id = 5; watermark = "g" } ];
          sorted_run = [ 7; 9 ];
          ssd_l0 = [ 2 ];
          levels = [ [ 4; 6 ]; []; [ 8 ] ];
        };
        { Core.Manifest.lo = "m"; hi = "\xff"; unsorted = []; sorted_run = []; ssd_l0 = []; levels = [ []; []; [] ] };
      ];
    quarantined =
      [ { Core.Manifest.source = Core.Manifest.Q_region 3; q_lo = "a"; q_hi = "b" } ];
  }

let test_manifest_roundtrip () =
  let decoded = Core.Manifest.decode (Core.Manifest.encode manifest_sample) in
  check Alcotest.bool "roundtrip" true (decoded = manifest_sample)

let test_manifest_persist_load () =
  let clock = Sim.Clock.create () in
  let ssd = Ssd.create clock in
  check Alcotest.bool "fresh device has none" true (Core.Manifest.load ssd = None);
  Core.Manifest.persist ssd manifest_sample;
  check Alcotest.bool "load returns it" true (Core.Manifest.load ssd = Some manifest_sample);
  (* persist again: superblock repoints, old file deleted *)
  let second = { manifest_sample with Core.Manifest.next_seq = 9999 } in
  Core.Manifest.persist ssd second;
  check Alcotest.bool "latest wins" true (Core.Manifest.load ssd = Some second)

let test_manifest_bad_magic () =
  check Alcotest.bool "garbage raises" true
    (try ignore (Core.Manifest.decode "\x07garbage"); false with Failure _ -> true)

(* Dual-slot fallback: rot the newest slot and load lands on the previous
   snapshot — counted, not fatal. Rot both and load refuses loudly. *)
let test_manifest_dual_slot_fallback () =
  let clock = Sim.Clock.create () in
  let ssd = Ssd.create clock in
  Core.Manifest.persist ssd manifest_sample;
  Core.Manifest.persist ssd { manifest_sample with Core.Manifest.next_seq = 9999 };
  let cur, prev = Ssd.root_slots ssd in
  check Alcotest.bool "two slots populated" true (cur <> None && prev <> None);
  let fb = Core.Manifest.fallback_count () in
  let newest = Option.get (Ssd.find_file ssd (Option.get cur)) in
  Ssd.corrupt_file ssd newest ~off:(Ssd.file_size newest / 2);
  check Alcotest.bool "falls back to the previous snapshot" true
    (Core.Manifest.load ssd = Some manifest_sample);
  check Alcotest.int "fallback counted" (fb + 1) (Core.Manifest.fallback_count ());
  let oldest = Option.get (Ssd.find_file ssd (Option.get prev)) in
  Ssd.corrupt_file ssd oldest ~off:(Ssd.file_size oldest / 2);
  check Alcotest.bool "both slots rotten raises" true
    (try ignore (Core.Manifest.load ssd); false with Failure _ -> true)

(* Any single corrupted byte anywhere in an encoded manifest must be
   caught by the trailing CRC — there is no undetectable position. *)
let prop_manifest_flip_detected =
  QCheck.Test.make ~name:"any single-byte flip in an encoded manifest is detected"
    ~count:200
    QCheck.(int_range 0 100_000)
    (fun pos_seed ->
      let enc = Core.Manifest.encode manifest_sample in
      let pos = pos_seed mod String.length enc in
      let b = Bytes.of_string enc in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
      try
        ignore (Core.Manifest.decode (Bytes.to_string b));
        false
      with Failure _ -> true)

(* Same bar for the WAL framing: a flipped byte anywhere in the durable
   ring is either a counted corrupt record or a torn tail, and replay never
   delivers an entry that was not written. *)
let prop_wal_flip_detected =
  QCheck.Test.make ~name:"any single-byte flip in the WAL is detected" ~count:100
    QCheck.(int_range 0 100_000)
    (fun pos_seed ->
      let pm = Pmem.create (Sim.Clock.create ()) in
      let wal = new_wal pm in
      let entries =
        List.init 20 (fun i ->
            Util.Kv.entry ~key:(Printf.sprintf "key%04d" i) ~seq:(i + 1)
              (Printf.sprintf "value%06d" i))
      in
      List.iter (Core.Wal.append wal) entries;
      Core.Wal.sync wal;
      let ring = Option.get (Pmem.find_region pm (Core.Wal.region_id wal)) in
      Pmem.corrupt_region pm ring ~off:(pos_seed mod Core.Wal.tail wal);
      let delivered = ref [] in
      let stats = Core.Wal.replay wal (fun e -> delivered := e :: !delivered) in
      (stats.Core.Wal.corrupt_records > 0 || stats.Core.Wal.torn_tail)
      && List.for_all (fun e -> List.mem e entries) !delivered)

(* --- Engine crash / recover ------------------------------------------------ *)

let durable_config () =
  {
    Core.Config.pmblade with
    Core.Config.memtable_bytes = 4 * 1024;
    l0_run_table_bytes = 8 * 1024;
    level_base_bytes = 64 * 1024;
    sstable_target_bytes = 16 * 1024;
    durable = true;
  }

(* The durable store's one engine, and writes through its front door: a
   returned put is synced. *)
let engine r = (Shard.Router.engines r).(0)
let put ?(update = false) r ~key v = (Shard.Router.sink r).Workload.Sink.put ~update ~key v
let recover cfg r = Shard.Router.recover cfg ~pm:(Shard.Router.pm r) ~ssd:(Shard.Router.ssd r)

let run_and_recover ~ops ~with_major =
  let cfg = durable_config () in
  let r = Shard.Router.create cfg in
  let model = Hashtbl.create 256 in
  let rng = Util.Xoshiro.create 23 in
  for i = 0 to ops - 1 do
    let key = Util.Keys.record_key ~table_id:(i mod 3) ~row_id:(Util.Xoshiro.int rng 300) in
    if Util.Xoshiro.int rng 12 = 0 then begin
      Hashtbl.remove model key;
      (Shard.Router.sink r).Workload.Sink.delete key
    end
    else begin
      let v = Util.Xoshiro.string rng 48 in
      Hashtbl.replace model key v;
      put ~update:true r ~key v
    end
  done;
  if with_major then Core.Engine.force_major_compaction (engine r);
  (* crash: drop every DRAM structure; only the devices survive *)
  (recover cfg r, model)

let check_model name r model =
  let bad = ref 0 in
  Hashtbl.iter (fun k v -> if Core.Engine.get (engine r) k <> Some v then incr bad) model;
  check Alcotest.int (name ^ ": lost or stale keys after recovery") 0 !bad

let test_recover_with_memtable_data () =
  (* Few ops: most data is still in the memtable at crash time, so the WAL
     replay carries the recovery. *)
  let r, model = run_and_recover ~ops:40 ~with_major:false in
  check_model "memtable-heavy" r model

let test_recover_after_compactions () =
  let r, model = run_and_recover ~ops:2500 ~with_major:false in
  check_model "level-0-heavy" r model

let test_recover_after_major () =
  let r, model = run_and_recover ~ops:2500 ~with_major:true in
  check_model "post-major" r model

let test_recover_continues_writing () =
  let r, model = run_and_recover ~ops:1000 ~with_major:false in
  (* the recovered store keeps working, with sequence numbers above every
     recovered version *)
  let rng = Util.Xoshiro.create 29 in
  for i = 0 to 499 do
    let key = Util.Keys.record_key ~table_id:(i mod 3) ~row_id:(Util.Xoshiro.int rng 300) in
    let v = Util.Xoshiro.string rng 48 in
    Hashtbl.replace model key v;
    put ~update:true r ~key v
  done;
  check_model "post-recovery writes" r model

let test_recover_twice () =
  let r, model = run_and_recover ~ops:800 ~with_major:false in
  check_model "second recovery" (recover (durable_config ()) r) model

let test_recover_without_manifest_fails () =
  let clock = Sim.Clock.create () in
  let pm = Pmem.create clock in
  let ssd = Ssd.create clock in
  check Alcotest.bool "raises" true
    (try ignore (Core.Engine.recover (durable_config ()) ~manifest_root:"" ~pm ~ssd); false
     with Failure _ -> true)

let prop_recover_model =
  QCheck.Test.make ~name:"recover = model over random op counts" ~count:10
    QCheck.(int_range 10 1500)
    (fun ops ->
      let r, model = run_and_recover ~ops ~with_major:false in
      Hashtbl.fold (fun k v acc -> acc && Core.Engine.get (engine r) k = Some v) model true)

(* A fresh store whose devices crash to their durable contents (its
   initial manifest is already durable). *)
let crashable_store cfg =
  let r = Shard.Router.create cfg in
  Pmem.enable_crash_mode (Shard.Router.pm r);
  Ssd.enable_crash_mode (Shard.Router.ssd r);
  r

(* Rot the newest manifest slot, pull the plug: recovery must land on the
   previous snapshot (fallback metric ticks) instead of panicking, and the
   recovered store must keep serving reads and writes. *)
let test_recover_manifest_fallback () =
  let cfg = durable_config () in
  let r = crashable_store cfg in
  let pm = Shard.Router.pm r and ssd = Shard.Router.ssd r in
  let rng = Util.Xoshiro.create 31 in
  for i = 0 to 199 do
    let key = Util.Keys.record_key ~table_id:(i mod 3) ~row_id:(Util.Xoshiro.int rng 300) in
    put ~update:true r ~key (Util.Xoshiro.string rng 32)
  done;
  Shard.Router.flush r;
  let cur, prev = Ssd.root_slots ssd in
  check Alcotest.bool "two slots populated" true (cur <> None && prev <> None);
  let newest = Option.get (Ssd.find_file ssd (Option.get cur)) in
  Ssd.corrupt_file ssd newest ~off:(Ssd.file_size newest / 2);
  let fb = Core.Manifest.fallback_count () in
  Shard.Sweep.crash ~pm ~ssd ();
  let recovered = Shard.Router.recover cfg ~pm ~ssd in
  check Alcotest.bool "fallback taken" true (Core.Manifest.fallback_count () > fb);
  (* no panic on the read paths, and the store still accepts writes *)
  (try ignore (Core.Engine.get (engine recovered) "post-fallback")
   with Core.Engine.Degraded_read _ -> ());
  (try
     ignore
       (Core.Engine.scan_range (engine recovered) ~start:""
          ~stop:"\xff\xff\xff\xff\xff\xff\xff\xff")
   with Core.Engine.Degraded_scan _ -> ());
  put recovered ~key:"post-fallback" "alive";
  check Alcotest.bool "keeps serving" true
    (Core.Engine.get (engine recovered) "post-fallback" = Some "alive")

(* Rot one durable WAL record: recovery skips exactly that record, counts
   it in the metrics, and every other acked write survives. *)
let test_recover_skips_corrupt_wal_record () =
  let cfg = durable_config () in
  let r = crashable_store cfg in
  let pm = Shard.Router.pm r and ssd = Shard.Router.ssd r in
  (* few ops: everything lives in memtable + WAL at crash time *)
  for i = 0 to 19 do
    put ~update:true r ~key:(Printf.sprintf "key%02d" i) (Printf.sprintf "value%02d" i)
  done;
  let wal = Option.get (Core.Engine.wal (engine r)) in
  let ring = Option.get (Pmem.find_region pm (Core.Wal.region_id wal)) in
  Pmem.corrupt_region pm ring ~off:(Core.Wal.tail wal / 2);
  Shard.Sweep.crash ~pm ~ssd ();
  let recovered = Shard.Router.recover cfg ~pm ~ssd in
  check Alcotest.bool "corrupt record counted" true
    ((Core.Engine.metrics (engine recovered)).Core.Metrics.wal_corrupt_records > 0);
  let survivors = ref 0 and wrong = ref 0 in
  for i = 0 to 19 do
    match Core.Engine.get (engine recovered) (Printf.sprintf "key%02d" i) with
    | Some v when v = Printf.sprintf "value%02d" i -> incr survivors
    | Some _ -> incr wrong
    | None -> () (* the skipped record's key: lost, not wrong *)
  done;
  check Alcotest.int "no silently wrong values" 0 !wrong;
  check Alcotest.bool "most acked writes survive" true (!survivors >= 18);
  (* the rotten ring was re-logged, not appended to: writes after recovery
     survive the next crash *)
  check Alcotest.bool "fresh ring" true
    (Core.Wal.region_id (Option.get (Core.Engine.wal (engine recovered)))
    <> Core.Wal.region_id wal);
  put recovered ~key:"after" "recovery";
  Shard.Sweep.crash ~pm ~ssd ();
  let again = Shard.Router.recover cfg ~pm ~ssd in
  check (Alcotest.option Alcotest.string) "post-recovery write survives" (Some "recovery")
    (Core.Engine.get (engine again) "after");
  check Alcotest.int "the re-logged ring replays clean" 0
    (Core.Engine.metrics (engine again)).Core.Metrics.wal_corrupt_records

(* A group that would overflow the ring flushes the memtable first: the
   flush rotates the log, the write lands in the fresh ring, and nothing
   acknowledged is lost. Tiny entries make the frame headers outgrow the
   ring's headroom before the memtable fills. *)
let test_ring_full_flushes_and_rotates () =
  let cfg = durable_config () in
  let r = crashable_store cfg in
  let eng = engine r in
  let pm = Shard.Router.pm r and ssd = Shard.Router.ssd r in
  let first_ring = Core.Wal.region_id (Option.get (Core.Engine.wal eng)) in
  for i = 0 to 999 do
    put r ~key:(Printf.sprintf "%03d" i) "v"
  done;
  let m = Core.Engine.metrics eng in
  check Alcotest.bool "ring-full path taken" true (m.Core.Metrics.wal_ring_full_flushes > 0);
  check Alcotest.bool "it flushed the memtable" true
    (m.Core.Metrics.minor_compactions >= m.Core.Metrics.wal_ring_full_flushes);
  let wal = Option.get (Core.Engine.wal eng) in
  check Alcotest.bool "and rotated the ring" true (Core.Wal.region_id wal <> first_ring);
  check Alcotest.bool "the ring never overflowed" true
    ((Core.Wal.stats wal).Core.Wal.high_water <= Core.Wal.capacity wal);
  Shard.Sweep.crash ~pm ~ssd ();
  let recovered = engine (Shard.Router.recover cfg ~pm ~ssd) in
  for i = 0 to 999 do
    check (Alcotest.option Alcotest.string) "acked write survives" (Some "v")
      (Core.Engine.get recovered (Printf.sprintf "%03d" i))
  done

let () =
  Alcotest.run "recovery"
    [
      ( "pm table",
        [
          Alcotest.test_case "reopen" `Quick test_pm_table_reopen;
          Alcotest.test_case "bad magic" `Quick test_pm_table_reopen_bad_magic;
        ] );
      ("sstable", [ Alcotest.test_case "reopen" `Quick test_sstable_reopen ]);
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "rotate" `Quick test_wal_rotate;
          Alcotest.test_case "reattach" `Quick test_wal_reattach;
          Alcotest.test_case "unsynced not resurrected" `Quick
            test_wal_unsynced_not_resurrected;
          Alcotest.test_case "torn tail" `Quick test_wal_torn_tail;
          Alcotest.test_case "mid-log bit flip skipped" `Quick test_wal_mid_log_bit_flip;
          Alcotest.test_case "nothing past the durable tail" `Quick
            test_wal_nothing_past_durable_tail;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "roundtrip" `Quick test_manifest_roundtrip;
          Alcotest.test_case "persist/load" `Quick test_manifest_persist_load;
          Alcotest.test_case "bad magic" `Quick test_manifest_bad_magic;
          Alcotest.test_case "dual-slot fallback" `Quick test_manifest_dual_slot_fallback;
          qtest prop_manifest_flip_detected;
          qtest prop_wal_flip_detected;
        ] );
      ( "engine",
        [
          Alcotest.test_case "memtable data via WAL" `Quick test_recover_with_memtable_data;
          Alcotest.test_case "after compactions" `Quick test_recover_after_compactions;
          Alcotest.test_case "after major compaction" `Quick test_recover_after_major;
          Alcotest.test_case "keeps writing" `Quick test_recover_continues_writing;
          Alcotest.test_case "recover twice" `Quick test_recover_twice;
          Alcotest.test_case "no manifest fails" `Quick test_recover_without_manifest_fails;
          Alcotest.test_case "manifest fallback" `Quick test_recover_manifest_fallback;
          Alcotest.test_case "skips corrupt WAL record" `Quick
            test_recover_skips_corrupt_wal_record;
          Alcotest.test_case "ring full flushes and rotates" `Quick
            test_ring_full_flushes_and_rotates;
          qtest prop_recover_model;
        ] );
    ]
