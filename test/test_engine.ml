(* Engine integration tests: model equivalence for every variant, delete
   semantics, scans across structures, compaction side effects, warm-set
   behaviour, and capacity-pressure recovery. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* A small-memtable config forces frequent flushes/compactions so the
   tests exercise all structures cheaply. *)
let small cfg =
  {
    cfg with
    Core.Config.memtable_bytes = 4 * 1024;
    l0_run_table_bytes = 8 * 1024;
    level_base_bytes = 64 * 1024;
    sstable_target_bytes = 16 * 1024;
  }

let variants =
  [
    ("pmblade", small Core.Config.pmblade);
    ("pmblade-pm", small Core.Config.pmblade_pm);
    ("pmblade-ssd", small Core.Config.pmblade_ssd);
    ("rocksdb", small Core.Config.rocksdb_like);
    ("matrixkv-8", small Core.Config.matrixkv_8);
    ("pmb-p", small Core.Config.pmb_p);
    ("pmb-pi", small Core.Config.pmb_pi);
    ("pmb-pic", small Core.Config.pmb_pic);
  ]

let mixed_key rng n =
  match Util.Xoshiro.int rng 3 with
  | 0 -> Util.Keys.record_key ~table_id:(Util.Xoshiro.int rng 3) ~row_id:(Util.Xoshiro.int rng n)
  | 1 ->
      Util.Keys.index_key ~table_id:(Util.Xoshiro.int rng 3) ~index_id:0
        ~column:("c" ^ Util.Keys.fixed_int ~width:3 (Util.Xoshiro.int rng 40))
        ~row_id:(Util.Xoshiro.int rng n)
  | _ -> Util.Keys.ycsb_key (Util.Xoshiro.int rng n)

let run_model_workload cfg ~ops ~with_deletes =
  let eng = Core.Engine.create cfg in
  let model = Hashtbl.create 256 in
  let rng = Util.Xoshiro.create 7 in
  for i = 0 to ops - 1 do
    let key = mixed_key rng 400 in
    if with_deletes && Util.Xoshiro.int rng 10 = 0 then begin
      Hashtbl.remove model key;
      Core.Engine.delete eng key
    end
    else begin
      let v = Util.Xoshiro.string rng 64 in
      Hashtbl.replace model key v;
      Core.Engine.put ~update:(i > ops / 2) eng ~key v
    end
  done;
  (eng, model)

let test_model_equivalence (name, cfg) () =
  let eng, model = run_model_workload cfg ~ops:3000 ~with_deletes:true in
  let bad = ref 0 in
  Hashtbl.iter
    (fun k v -> if Core.Engine.get eng k <> Some v then incr bad)
    model;
  check Alcotest.int (name ^ ": stale or missing keys") 0 !bad;
  (* deleted / never-written keys must be absent *)
  let rng = Util.Xoshiro.create 99 in
  let ghosts = ref 0 in
  for _ = 1 to 500 do
    let k = mixed_key rng 400 in
    if (not (Hashtbl.mem model k)) && Core.Engine.get eng k <> None then incr ghosts
  done;
  check Alcotest.int (name ^ ": ghosts") 0 !ghosts

let test_scan_equivalence (name, cfg) () =
  let eng, model = run_model_workload cfg ~ops:2000 ~with_deletes:true in
  let start = "t0001" and stop = "t0002" in
  let expected =
    Hashtbl.fold (fun k v acc -> if k >= start && k < stop then (k, v) :: acc else acc) model []
    |> List.sort compare
  in
  let got = Core.Engine.scan_range eng ~start ~stop in
  check Alcotest.int (name ^ ": scan count") (List.length expected) (List.length got);
  check Alcotest.bool (name ^ ": scan content") true (got = expected)

let test_limited_scan (name, cfg) () =
  let eng = Core.Engine.create cfg in
  for i = 0 to 499 do
    Core.Engine.put eng ~key:(Util.Keys.ycsb_key (i * 2)) (Printf.sprintf "v%d" i)
  done;
  let got = Core.Engine.scan eng ~start:(Util.Keys.ycsb_key 100) ~limit:10 in
  check Alcotest.int (name ^ ": limit respected") 10 (List.length got);
  check Alcotest.string (name ^ ": starts at start") (Util.Keys.ycsb_key 100) (fst (List.hd got));
  (* keys ascend *)
  let keys = List.map fst got in
  check Alcotest.bool (name ^ ": ascending") true (keys = List.sort compare keys)

(* Bounded scans take any start key — YCSB, retail, or neither — and
   answer exactly the first [limit] pairs of the unbounded range scan. *)
let test_bounded_scan_any_key (name, cfg) () =
  let eng, _model = run_model_workload cfg ~ops:2000 ~with_deletes:true in
  List.iter
    (fun start ->
      let all = Core.Engine.scan_range eng ~start ~stop:"\xff\xff\xff\xff" in
      List.iter
        (fun limit ->
          check Alcotest.bool
            (Printf.sprintf "%s: scan ~start:%S ~limit:%d" name start limit)
            true
            (Core.Engine.scan eng ~start ~limit = List.filteri (fun i _ -> i < limit) all))
        [ 1; 7; 64; 5000 ])
    [ ""; "user"; "username"; Util.Keys.record_key ~table_id:1 ~row_id:150;
      Util.Keys.ycsb_key 200; "t0002"; "zzz" ]

(* --- PM-Blade-specific behaviour ---------------------------------------- *)

let test_internal_compaction_sorts_l0 () =
  let cfg = small Core.Config.pmblade in
  let eng = Core.Engine.create cfg in
  let rng = Util.Xoshiro.create 3 in
  for _ = 1 to 2000 do
    Core.Engine.put ~update:true eng
      ~key:(Util.Keys.record_key ~table_id:1 ~row_id:(Util.Xoshiro.int rng 100))
      (Util.Xoshiro.string rng 64)
  done;
  Core.Engine.flush eng;
  Core.Engine.force_internal_compaction eng;
  check Alcotest.int "no unsorted tables after internal compaction" 0
    (Core.Engine.unsorted_table_count eng);
  check Alcotest.bool "sorted run exists" true (Core.Engine.sorted_table_count eng > 0)

let test_internal_compaction_releases_space () =
  let cfg = small Core.Config.pmb_pi in
  (* conventional-free config with cost models off? use pmb_pi but drive manually *)
  let eng = Core.Engine.create { cfg with Core.Config.l0_strategy = Core.Config.Conventional { max_tables = None; max_bytes = None } } in
  let rng = Util.Xoshiro.create 5 in
  (* update-only workload on few keys -> massive redundancy in L0 *)
  for _ = 1 to 3000 do
    Core.Engine.put ~update:true eng
      ~key:(Util.Keys.record_key ~table_id:1 ~row_id:(Util.Xoshiro.int rng 50))
      (Util.Xoshiro.string rng 100)
  done;
  Core.Engine.flush eng;
  let before = Pmem.used (Core.Engine.pm eng) in
  Core.Engine.force_internal_compaction eng;
  let after = Pmem.used (Core.Engine.pm eng) in
  check Alcotest.bool
    (Printf.sprintf "redundancy removed (%d -> %d)" before after)
    true
    (after < before / 2)

let test_major_compaction_moves_to_ssd () =
  let cfg = small Core.Config.pmblade in
  let eng = Core.Engine.create cfg in
  let rng = Util.Xoshiro.create 9 in
  for i = 0 to 999 do
    Core.Engine.put eng ~key:(Util.Keys.record_key ~table_id:1 ~row_id:i)
      (Util.Xoshiro.string rng 64)
  done;
  Core.Engine.flush eng;
  check Alcotest.bool "data in PM L0" true (Core.Engine.l0_bytes eng > 0);
  Core.Engine.force_major_compaction eng;
  check Alcotest.int "L0 empty after major" 0 (Core.Engine.l0_bytes eng);
  check Alcotest.bool "L1 files exist" true (Core.Engine.level_file_count eng 0 > 0);
  (* data still readable from SSD *)
  check Alcotest.bool "readable after major" true
    (Core.Engine.get eng (Util.Keys.record_key ~table_id:1 ~row_id:500) <> None)

let test_tombstones_dropped_at_bottom () =
  let cfg = small Core.Config.pmblade in
  let eng = Core.Engine.create cfg in
  Core.Engine.put eng ~key:"t0001r000000000001" "v";
  Core.Engine.delete eng "t0001r000000000001";
  Core.Engine.flush eng;
  Core.Engine.force_major_compaction eng;
  (* the only level with data is the bottom for this range; the tombstone
     and the value should both be gone *)
  check Alcotest.int "nothing left in L1 for a fully-deleted key-space" 0
    (Core.Engine.level_file_count eng 0
    |> fun n -> if n = 0 then 0 else
      List.length (Core.Engine.scan_range eng ~start:"t0001" ~stop:"t0002"));
  check Alcotest.bool "read sees the delete" true
    (Core.Engine.get eng "t0001r000000000001" = None)

let test_warm_set_stays_in_pm () =
  (* Hot partition reads keep it in PM across major compactions (Eq. 3). *)
  let cfg = small Core.Config.pmblade in
  let cfg =
    { cfg with
      Core.Config.l0_strategy =
        Core.Config.Cost_based
          { Core.Config.scaled_cost_model with tau_m = 96 * 1024; tau_t = 64 * 1024 } }
  in
  let eng = Core.Engine.create cfg in
  let rng = Util.Xoshiro.create 21 in
  let hot_key i = Util.Keys.record_key ~table_id:1 ~row_id:i in
  let cold_key i = Util.Keys.ycsb_key i in
  for round = 0 to 60 do
    for i = 0 to 9 do
      Core.Engine.put ~update:(round > 0) eng ~key:(hot_key i) (Util.Xoshiro.string rng 64);
      Core.Engine.put eng ~key:(cold_key ((round * 10) + i)) (Util.Xoshiro.string rng 64)
    done;
    (* read the hot keys so Eq. 3 sees their density *)
    for i = 0 to 9 do
      ignore (Core.Engine.get eng (hot_key i))
    done
  done;
  let m = Core.Engine.metrics eng in
  Core.Metrics.reset_read_sources m;
  for i = 0 to 9 do
    ignore (Core.Engine.get eng (hot_key i))
  done;
  check Alcotest.bool "hot keys served from PM/memtable" true
    (Core.Metrics.pm_hit_ratio m > 0.8)

(* Step 0 of Algorithm 1: a flush that overlaps no other level-0 table
   joins the sorted run without a PM rewrite; an overlapping one stays
   unsorted and shadows the run. A crash after the moves recovers the same
   structure and contents. The store is a one-shard router, the only
   durable path; the writes go through its front door. *)
let test_trivial_move () =
  let cfg =
    { (small Core.Config.pmblade) with Core.Config.durable = true; partition_count = 1 }
  in
  let router = Shard.Router.create cfg in
  let put = (Shard.Router.sink router).Workload.Sink.put in
  let eng = (Shard.Router.engines router).(0) in
  Pmem.enable_crash_mode (Core.Engine.pm eng);
  Ssd.enable_crash_mode (Core.Engine.ssd eng);
  let key i = Printf.sprintf "key%05d" i in
  let tables () =
    List.filter
      (fun id -> Some id <> Option.map Core.Wal.region_id (Core.Engine.wal eng))
      (Core.Engine.owned_region_ids eng)
  in
  for batch = 0 to 4 do
    let before = tables () in
    for i = batch * 20 to (batch * 20) + 19 do
      put ~update:false ~key:(key i) (Printf.sprintf "v0-%d" i)
    done;
    Core.Engine.flush eng;
    check Alcotest.bool "every earlier table survives the flush" true
      (List.for_all (fun id -> List.mem id (tables ())) before)
  done;
  check Alcotest.int "disjoint flushes all moved" 0 (Core.Engine.unsorted_table_count eng);
  check Alcotest.int "one run table per flush" 5 (Core.Engine.sorted_table_count eng);
  check Alcotest.int "nothing rewritten" 0
    (Core.Engine.metrics eng).Core.Metrics.internal_compactions;
  check Alcotest.int "debt is one run" 1 (Core.Engine.pressure eng);
  put ~update:true ~key:(key 10) "v1-10";
  put ~update:true ~key:(key 70) "v1-70";
  Core.Engine.flush eng;
  check Alcotest.int "an overlapping flush stays unsorted" 1
    (Core.Engine.unsorted_table_count eng);
  check Alcotest.int "debt counts it" 2 (Core.Engine.pressure eng);
  check Alcotest.(option string) "newest version wins" (Some "v1-10")
    (Core.Engine.get eng (key 10));
  check Alcotest.(option string) "older run still served" (Some "v0-11")
    (Core.Engine.get eng (key 11));
  let all e = Core.Engine.scan_range e ~start:"" ~stop:"\xff" in
  let contents = all eng in
  let pm = Core.Engine.pm eng and ssd = Core.Engine.ssd eng in
  Shard.Sweep.crash ~pm ~ssd ();
  let recovered = (Shard.Router.engines (Shard.Router.recover cfg ~pm ~ssd)).(0) in
  check Alcotest.(list (pair string string)) "contents survive the crash" contents
    (all recovered);
  check Alcotest.int "sorted run recovered" 5 (Core.Engine.sorted_table_count recovered);
  check Alcotest.int "unsorted stack recovered" 1 (Core.Engine.unsorted_table_count recovered)

(* Every key of [model] reads back its last value: the number that do not. *)
let lost_keys eng model =
  Hashtbl.fold (fun key v n -> if Core.Engine.get eng key = Some v then n else n + 1) model 0

let with_pm_kib kib cfg =
  { cfg with Core.Config.pm_params = { cfg.Core.Config.pm_params with Pmem.capacity = kib * 1024 } }

let test_out_of_space_recovers () =
  (* A tiny PM device must not wedge the engine: it falls back to major
     compaction and keeps accepting writes — and keeps every one of them.
     A flush that runs out of PM part-way puts the slices it has not
     installed back into the memtable instead of dropping them. *)
  let cfg = with_pm_kib 48 (small Core.Config.pmblade) in
  let cfg =
    {
      cfg with
      Core.Config.l0_strategy =
        Core.Config.Cost_based
          { Core.Config.scaled_cost_model with tau_m = max_int; tau_t = 16 * 1024 };
    }
  in
  let eng = Core.Engine.create cfg in
  let rng = Util.Xoshiro.create 33 in
  let model = Hashtbl.create 4096 in
  for i = 0 to 2999 do
    let key = Util.Keys.record_key ~table_id:1 ~row_id:i in
    let v = Util.Xoshiro.string rng 64 in
    Core.Engine.put eng ~key v;
    Hashtbl.replace model key v
  done;
  check Alcotest.bool "spilled to SSD" true (Core.Engine.ssd_bytes_written eng > 0);
  check Alcotest.int "every key readable" 0 (lost_keys eng model)

(* A split builds every half before it frees a straddling table: one that
   runs out of PM part-way leaves the partition as it was, not naming
   freed regions. 4000 puts over 2000 YCSB keys into 48 KiB of PM, which
   also holds the durable store's WAL ring: no put raises and every key
   reads back its last value. The store is a one-shard router with its
   admission limits out of reach, so every room-making is the policy's. *)
let test_out_of_space_split () =
  let router =
    Shard.Router.create
      (with_pm_kib 48
         {
           (small Core.Config.pmblade) with
           Core.Config.durable = true;
           admission_soft_tables = max_int;
           admission_hard_tables = max_int;
         })
  in
  let eng = (Shard.Router.engines router).(0) in
  let sink = Shard.Router.sink router in
  let rng = Util.Xoshiro.create 5 in
  let model = Hashtbl.create 4096 in
  for _ = 1 to 4000 do
    let key = Util.Keys.ycsb_key (Util.Xoshiro.int rng 2000) in
    let v = Util.Xoshiro.string rng 64 in
    sink.Workload.Sink.put ~update:(Hashtbl.mem model key) ~key v;
    Hashtbl.replace model key v
  done;
  check Alcotest.bool "partitions split" true (Array.length (Core.Engine.partitions eng) > 1);
  check Alcotest.int "every key readable" 0 (lost_keys eng model)

let test_write_amplification_ordering () =
  (* The core claim of Fig. 8a: on an update-heavy workload PMBlade writes
     far fewer bytes to the SSD than the conventional design. *)
  let run cfg =
    let eng = Core.Engine.create (small cfg) in
    let rng = Util.Xoshiro.create 17 in
    for _ = 1 to 6000 do
      Core.Engine.put ~update:true eng
        ~key:(Util.Keys.record_key ~table_id:1 ~row_id:(Util.Xoshiro.int rng 300))
        (Util.Xoshiro.string rng 64)
    done;
    (Core.Engine.ssd_bytes_written eng, Core.Engine.user_bytes eng)
  in
  let pmblade_ssd_w, user = run Core.Config.pmblade in
  let rocksdb_ssd_w, _ = run Core.Config.rocksdb_like in
  check Alcotest.bool
    (Printf.sprintf "pmblade SSD WA (%d) << rocksdb (%d), user=%d" pmblade_ssd_w rocksdb_ssd_w user)
    true
    (pmblade_ssd_w * 3 < rocksdb_ssd_w)

let test_latency_ordering_pm_vs_ssd () =
  (* Reads served from PM L0 must be much faster than from the SSD. *)
  let run cfg =
    let eng = Core.Engine.create (small cfg) in
    let rng = Util.Xoshiro.create 27 in
    for i = 0 to 1999 do
      Core.Engine.put eng ~key:(Util.Keys.record_key ~table_id:1 ~row_id:i)
        (Util.Xoshiro.string rng 64)
    done;
    (match cfg.Core.Config.l0_medium with
    | Core.Config.L0_ssd -> Core.Engine.force_major_compaction eng
    | Core.Config.L0_pm -> ());
    let m = Core.Engine.metrics eng in
    Util.Histogram.reset m.Core.Metrics.read_latency;
    for _ = 1 to 500 do
      ignore (Core.Engine.get eng (Util.Keys.record_key ~table_id:1 ~row_id:(Util.Xoshiro.int rng 2000)))
    done;
    Util.Histogram.mean m.Core.Metrics.read_latency
  in
  let pm = run Core.Config.pmblade in
  let ssd = run Core.Config.pmblade_ssd in
  check Alcotest.bool (Printf.sprintf "pm %.0fns << ssd %.0fns" pm ssd) true (pm *. 2.0 < ssd)

let test_matrix_watermark_read_correctness () =
  (* After column compactions, keys below the watermark must be found on
     the SSD, keys above in PM — and both must be correct. *)
  let cfg = small Core.Config.matrixkv_8 in
  let cfg =
    { cfg with Core.Config.l0_strategy = Core.Config.Matrix { columns = 4; trigger_bytes = 64 * 1024 } }
  in
  let eng = Core.Engine.create cfg in
  let model = Hashtbl.create 64 in
  let rng = Util.Xoshiro.create 41 in
  for i = 0 to 2999 do
    let key = Util.Keys.record_key ~table_id:(i mod 2) ~row_id:(Util.Xoshiro.int rng 500) in
    let v = Util.Xoshiro.string rng 64 in
    Hashtbl.replace model key v;
    Core.Engine.put ~update:true eng ~key v
  done;
  let bad = ref 0 in
  Hashtbl.iter (fun k v -> if Core.Engine.get eng k <> Some v then incr bad) model;
  check Alcotest.int "matrix reads correct across watermark" 0 !bad

let test_dynamic_split_grows_partitions () =
  (* Sequential YCSB-style load must split the initial single partition up
     to the configured count, with ordered boundaries and every key still
     readable from its partition. *)
  let cfg = small Core.Config.pmblade in
  let eng = Core.Engine.create cfg in
  let rng = Util.Xoshiro.create 77 in
  for i = 0 to 2999 do
    Core.Engine.put eng ~key:(Util.Keys.ycsb_key i) (Util.Xoshiro.string rng 64)
  done;
  let partitions = Core.Engine.partitions eng in
  check Alcotest.bool "partitions grew" true (Array.length partitions > 1);
  check Alcotest.bool "bounded by config" true
    (Array.length partitions <= cfg.Core.Config.partition_count);
  let missing = ref 0 in
  for i = 0 to 2999 do
    if Core.Engine.get eng (Util.Keys.ycsb_key i) = None then incr missing
  done;
  check Alcotest.int "all keys readable after splits" 0 !missing

let test_explicit_boundaries_respected () =
  let cfg = small Core.Config.pmblade in
  let eng = Core.Engine.create ~boundaries:[ "m" ] cfg in
  check Alcotest.int "two partitions" 2 (Array.length (Core.Engine.partitions eng));
  Core.Engine.put eng ~key:"apple" "1";
  Core.Engine.put eng ~key:"zebra" "2";
  check (Alcotest.option Alcotest.string) "low side" (Some "1") (Core.Engine.get eng "apple");
  check (Alcotest.option Alcotest.string) "high side" (Some "2") (Core.Engine.get eng "zebra")

let prop_engine_model =
  QCheck.Test.make ~name:"pmblade engine = model under random ops" ~count:15
    QCheck.(int_range 0 10000)
    (fun seed ->
      let cfg = small Core.Config.pmblade in
      let eng = Core.Engine.create cfg in
      let model = Hashtbl.create 64 in
      let rng = Util.Xoshiro.create seed in
      for _ = 1 to 800 do
        let key = mixed_key rng 120 in
        if Util.Xoshiro.int rng 8 = 0 then begin
          Hashtbl.remove model key;
          Core.Engine.delete eng key
        end
        else begin
          let v = Util.Xoshiro.string rng 32 in
          Hashtbl.replace model key v;
          Core.Engine.put eng ~key v
        end
      done;
      Hashtbl.fold (fun k v acc -> acc && Core.Engine.get eng k = Some v) model true)

(* --- config fingerprint + amplification/stall ledger --------------------- *)

let test_config_fingerprint () =
  let fp = Core.Config.fingerprint Core.Config.pmblade in
  Alcotest.(check int) "8 hex digits" 8 (String.length fp);
  Alcotest.(check string) "deterministic" fp
    (Core.Config.fingerprint Core.Config.pmblade);
  (* Every behaviour-affecting change must move the fingerprint. *)
  let base = Core.Config.pmblade in
  List.iter
    (fun (what, cfg) ->
      if Core.Config.fingerprint cfg = fp then
        Alcotest.failf "fingerprint blind to %s" what)
    [
      ("memtable size", { base with Core.Config.memtable_bytes = base.Core.Config.memtable_bytes * 2 });
      ("block cache", { base with Core.Config.block_cache_mb = base.Core.Config.block_cache_mb + 16 });
      ("durability", { base with Core.Config.durable = not base.Core.Config.durable });
      ("seed", { base with Core.Config.seed = base.Core.Config.seed + 1 });
      ( "ssd latency",
        { base with
          Core.Config.ssd_params =
            { base.Core.Config.ssd_params with Ssd.read_latency_ns = 1.0 } } );
      ( "cost model",
        { base with
          Core.Config.l0_strategy =
            Core.Config.Conventional { max_tables = Some 4; max_bytes = None } } );
      ("pipeline", { base with Core.Config.pipeline_compaction = false });
      ("breakers", { base with Core.Config.breaker_enabled = true });
      ("admission", { base with Core.Config.admission_hard_tables = 48 });
      ("deadline", { base with Core.Config.deadline_write_ns = 1e6 });
    ];
  Alcotest.(check bool) "breakers are opt-in" false base.Core.Config.breaker_enabled;
  (* Distinct named variants never collide (paranoia, not a guarantee). *)
  let fps = List.map Core.Config.fingerprint Core.Config.all_variants in
  Alcotest.(check int) "all variants distinct"
    (List.length fps)
    (List.length (List.sort_uniq compare fps))

let test_ledger_read_amplification () =
  let eng = Core.Engine.create Core.Config.pmblade in
  let value = String.make 256 'v' in
  for i = 0 to 199 do
    Core.Engine.put eng ~key:(Printf.sprintf "key%06d" i) value
  done;
  Core.Engine.flush eng;
  let m = Core.Engine.metrics eng in
  Alcotest.(check int) "no user reads yet" 0 m.Core.Metrics.user_bytes_read;
  for i = 0 to 199 do
    ignore (Core.Engine.get eng (Printf.sprintf "key%06d" i))
  done;
  (* 200 hits x (9-byte key + 256-byte value) returned to the user. *)
  Alcotest.(check int) "user bytes returned" (200 * (9 + 256))
    m.Core.Metrics.user_bytes_read;
  let raf = Core.Engine.read_amplification eng in
  Alcotest.(check bool)
    (Printf.sprintf "read amplification >= 1 (got %.2f)" raf)
    true (raf >= 1.0);
  (* A miss returns nothing and must not count user bytes. *)
  let before = m.Core.Metrics.user_bytes_read in
  ignore (Core.Engine.get eng "missing-key");
  Alcotest.(check int) "miss adds no user bytes" before m.Core.Metrics.user_bytes_read

let test_ledger_stalls_and_debt () =
  (* A tiny memtable + tiny PM budget forces backpressure: the stall
     counters and the level-0 debt gauges must move. *)
  let cfg =
    {
      Core.Config.pmblade with
      Core.Config.memtable_bytes = 4 * 1024;
      l0_capacity = 64 * 1024;
      l0_run_table_bytes = 8 * 1024;
      pm_params = { Pmem.default_params with capacity = 256 * 1024 };
    }
  in
  let eng = Core.Engine.create cfg in
  let rng = Util.Xoshiro.create 5 in
  for i = 0 to 999 do
    Core.Engine.put eng ~key:(Printf.sprintf "key%06d" (i mod 256))
      (Util.Xoshiro.string rng 128)
  done;
  let m = Core.Engine.metrics eng in
  Alcotest.(check bool) "stalls observed" true (m.Core.Metrics.write_stalls > 0);
  Alcotest.(check bool) "stall time accumulated" true
    (m.Core.Metrics.write_stall_time > 0.0);
  Alcotest.(check bool) "debt gauge sees the L0 backlog" true
    (Core.Engine.compaction_debt_bytes eng > 0);
  Alcotest.(check bool) "debt counts runs" true
    (Core.Engine.pressure eng > 0);
  (* Draining level-0 pays the debt down. *)
  Core.Engine.flush eng;
  Core.Engine.force_internal_compaction eng;
  Core.Engine.force_major_compaction eng;
  Alcotest.(check bool) "major compaction reduces debt" true
    (Core.Engine.compaction_debt_bytes eng
    < Core.Engine.space_bytes eng + 1 (* debt is a strict subset of space *))

let test_ledger_space_vs_logical () =
  let eng = Core.Engine.create Core.Config.pmblade in
  let value = String.make 200 'x' in
  (* Overwrite the same keys repeatedly: physical space holds the dead
     versions until compaction, logical holds one version per key. *)
  for _round = 1 to 5 do
    for i = 0 to 99 do
      Core.Engine.put ~update:true eng ~key:(Printf.sprintf "key%04d" i) value
    done
  done;
  Core.Engine.flush eng;
  let space = Core.Engine.space_bytes eng in
  let logical = Core.Engine.logical_bytes eng in
  Alcotest.(check int) "logical = live keys x entry bytes" (100 * (7 + 200)) logical;
  Alcotest.(check bool)
    (Printf.sprintf "space amp >= 1 (space %d, logical %d)" space logical)
    true
    (space >= logical)

let per_variant name f =
  List.map (fun (vname, cfg) -> Alcotest.test_case (name ^ " [" ^ vname ^ "]") `Quick (f (vname, cfg))) variants

let () =
  Alcotest.run "engine"
    [
      ("model equivalence", per_variant "model" test_model_equivalence);
      ("scans", per_variant "scan range" test_scan_equivalence
               @ per_variant "limited scan" test_limited_scan
               @ per_variant "bounded scan any key" test_bounded_scan_any_key);
      ( "pm-blade behaviour",
        [
          Alcotest.test_case "internal compaction sorts L0" `Quick test_internal_compaction_sorts_l0;
          Alcotest.test_case "internal compaction releases space" `Quick test_internal_compaction_releases_space;
          Alcotest.test_case "major compaction moves to SSD" `Quick test_major_compaction_moves_to_ssd;
          Alcotest.test_case "tombstones dropped at bottom" `Quick test_tombstones_dropped_at_bottom;
          Alcotest.test_case "warm set stays in PM" `Quick test_warm_set_stays_in_pm;
          Alcotest.test_case "trivial move into the sorted run" `Quick test_trivial_move;
          Alcotest.test_case "out of space recovers" `Quick test_out_of_space_recovers;
          Alcotest.test_case "out of space split" `Quick test_out_of_space_split;
          Alcotest.test_case "write amplification ordering" `Quick test_write_amplification_ordering;
          Alcotest.test_case "latency ordering PM vs SSD" `Quick test_latency_ordering_pm_vs_ssd;
          Alcotest.test_case "matrix watermark correctness" `Quick test_matrix_watermark_read_correctness;
          Alcotest.test_case "dynamic split grows partitions" `Quick test_dynamic_split_grows_partitions;
          Alcotest.test_case "explicit boundaries" `Quick test_explicit_boundaries_respected;
          qtest prop_engine_model;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "config fingerprint" `Quick test_config_fingerprint;
          Alcotest.test_case "read amplification" `Quick test_ledger_read_amplification;
          Alcotest.test_case "stalls and debt" `Quick test_ledger_stalls_and_debt;
          Alcotest.test_case "space vs logical" `Quick test_ledger_space_vs_logical;
        ] );
    ]
