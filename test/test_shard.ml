(* Tests for the range-sharded front door: routing boundaries, cross-shard
   scan merging, group-commit coalescing and its crash semantics (a batch
   is lost whole, never as a torn suffix), admission stall/resume, the
   planted schedsan race in the committer, and the sharded crash sweep. *)

let check = Alcotest.check

let base_config ?(shards = 4) ?(durable = false) () =
  {
    Core.Config.pmblade with
    Core.Config.name = "shardtest";
    memtable_bytes = 4 * 1024;
    l0_run_table_bytes = 8 * 1024;
    level_base_bytes = 64 * 1024;
    sstable_target_bytes = 16 * 1024;
    durable;
    shard_count = shards;
  }

let pairs = Alcotest.(list (pair string string))

(* The router's one path is the checked one; under these configs every
   write must be acked and every read served plainly. *)
let put ?update r ~key value =
  match Shard.Router.put_checked ?update r ~key value with
  | Shard.Router.Acked -> ()
  | _ -> Alcotest.failf "put %S was not acked" key

let get r key =
  match Shard.Router.get_checked r key with
  | Shard.Router.Served v -> v
  | _ -> Alcotest.failf "get %S was not served" key

(* --- routing ----------------------------------------------------------- *)

let test_boundary_routing () =
  let r = Shard.Router.create ~boundaries:[ "g"; "n"; "t" ] (base_config ()) in
  check Alcotest.int "4 shards" 4 (Shard.Router.shard_count r);
  (* a boundary key belongs to the shard it opens: ranges are [lo, hi) *)
  List.iter
    (fun (key, want) ->
      check Alcotest.int (Printf.sprintf "shard_of %S" key) want
        (Shard.Router.shard_of r key))
    [ ("", 0); ("a", 0); ("fzzz", 0); ("g", 1); ("m", 1); ("n", 2); ("t", 3); ("zz", 3) ];
  List.iter
    (fun key -> put r ~key ("v:" ^ key))
    [ "apple"; "grape"; "nut"; "tea"; "zebra" ];
  List.iter
    (fun key ->
      check
        Alcotest.(option string)
        (Printf.sprintf "get %S" key)
        (Some ("v:" ^ key))
        (get r key))
    [ "apple"; "grape"; "nut"; "tea"; "zebra" ];
  Shard.Router.close r

let test_empty_shard_ranges () =
  (* All traffic lands in shard 0; the empty shards must stay silent in
     every read path rather than contributing phantoms. *)
  let r = Shard.Router.create ~boundaries:[ "m"; "p"; "x" ] (base_config ()) in
  for i = 0 to 19 do
    put r ~key:(Printf.sprintf "a%03d" i) (string_of_int i)
  done;
  check Alcotest.(option string) "empty shard get" None (get r "q");
  check pairs "scan over empty shards" [] (Shard.Router.scan_range r ~start:"m" ~stop:"z");
  check Alcotest.int "all rows, none duplicated" 20
    (List.length (Shard.Router.scan_range r ~start:"" ~stop:"z"));
  (* single-key range: [k, k) is empty, [k, k + \x00) is exactly k *)
  check pairs "degenerate range" [] (Shard.Router.scan_range r ~start:"a005" ~stop:"a005");
  check pairs "single-key range"
    [ ("a005", "5") ]
    (Shard.Router.scan_range r ~start:"a005" ~stop:"a005\x00");
  Shard.Router.close r

let test_cross_shard_scan_merge () =
  let r = Shard.Router.create ~boundaries:[ "h"; "o"; "u" ] (base_config ()) in
  let keys = List.init 26 (fun i -> String.make 2 (Char.chr (Char.code 'a' + i))) in
  List.iter (fun key -> put r ~key ("old:" ^ key)) keys;
  (* overwrite through the router: the merge must dedupe to newest *)
  List.iter (fun key -> put ~update:true r ~key ("new:" ^ key)) keys;
  Shard.Router.flush r;
  let got = Shard.Router.scan_range r ~start:"cc" ~stop:"ww" in
  let want =
    List.filter (fun k -> k >= "cc" && k < "ww") keys
    |> List.map (fun k -> (k, "new:" ^ k))
  in
  check pairs "cross-shard range ordered and deduped" want got;
  check pairs "bounded scan crosses boundaries"
    (List.filteri (fun i _ -> i < 10) (List.map (fun k -> (k, "new:" ^ k)) keys))
    (Shard.Router.scan r ~start:"" ~limit:10);
  (* the checker's three read paths agree on the merged view *)
  let view = Shard.Router.view r in
  let all = List.map (fun k -> (k, "new:" ^ k)) keys in
  check pairs "v_scan_all" all (view.Fault.Checker.v_scan_all ());
  check pairs "v_iter_all" all (view.Fault.Checker.v_iter_all ());
  Shard.Router.close r

(* --- crash/recovery ---------------------------------------------------- *)

let crashable_router cfg ~boundaries =
  let r = Shard.Router.create ~boundaries cfg in
  Pmem.enable_crash_mode (Shard.Router.pm r);
  Ssd.enable_crash_mode (Shard.Router.ssd r);
  r

let test_recover_all_shards () =
  let cfg = base_config ~durable:true () in
  let boundaries = [ "h"; "o"; "u" ] in
  let r = crashable_router cfg ~boundaries in
  let keys = List.init 40 (fun i -> Printf.sprintf "%c%02d" (Char.chr (Char.code 'a' + (i mod 26))) i) in
  List.iter (fun key -> put r ~key ("v:" ^ key)) keys;
  let pm = Shard.Router.pm r and ssd = Shard.Router.ssd r in
  Fault.Crash_sweep.crash ~pm ~ssd ();
  let r2 = Shard.Router.recover ~boundaries cfg ~pm ~ssd in
  List.iter
    (fun key ->
      check
        Alcotest.(option string)
        (Printf.sprintf "recovered %S" key)
        (Some ("v:" ^ key))
        (get r2 key))
    keys;
  check Alcotest.int "no phantom rows" (List.length keys)
    (List.length (Shard.Router.scan_range r2 ~start:"" ~stop:"\xff"))

let test_batch_crash_atomicity () =
  (* Synced writes survive; writes staged after the last group-commit sync
     are lost as a whole batch — never a prefix or torn suffix of it. *)
  let cfg = base_config ~shards:2 ~durable:true () in
  let boundaries = [ "n" ] in
  let r = crashable_router cfg ~boundaries in
  for i = 0 to 9 do
    put r ~key:(Printf.sprintf "a%02d" i) "synced";
    put r ~key:(Printf.sprintf "z%02d" i) "synced"
  done;
  (* Stage a batch per shard behind the router's back: [wal_external_sync]
     engines defer the durability point to the group committer, which we
     never invoke — exactly a crash between staging and the batched sync. *)
  let engines = Shard.Router.engines r in
  Array.iter
    (fun e ->
      check Alcotest.bool "shards defer the WAL sync" true
        (Core.Engine.config e).Core.Config.wal_external_sync)
    engines;
  for i = 10 to 14 do
    Core.Engine.put engines.(0) ~key:(Printf.sprintf "a%02d" i) "staged";
    Core.Engine.put engines.(1) ~key:(Printf.sprintf "z%02d" i) "staged"
  done;
  let pm = Shard.Router.pm r and ssd = Shard.Router.ssd r in
  Fault.Crash_sweep.crash ~pm ~ssd ();
  let r2 = Shard.Router.recover ~boundaries cfg ~pm ~ssd in
  for i = 0 to 9 do
    check Alcotest.(option string) "synced write survives" (Some "synced")
      (get r2 (Printf.sprintf "a%02d" i));
    check Alcotest.(option string) "synced write survives" (Some "synced")
      (get r2 (Printf.sprintf "z%02d" i))
  done;
  for i = 10 to 14 do
    check Alcotest.(option string) "staged batch lost whole" None
      (get r2 (Printf.sprintf "a%02d" i));
    check Alcotest.(option string) "staged batch lost whole" None
      (get r2 (Printf.sprintf "z%02d" i))
  done

(* --- group commit under the scheduler ----------------------------------- *)

let make_sched router =
  let clock = Shard.Router.clock router in
  let des = Sim.Des.create clock in
  Coroutine.Scheduler.create ~cores:1
    ~policy:(Coroutine.Scheduler.Cooperative { switch_cost = 0.0 })
    des
    (Shard.Router.ssd router)

let run_batched_clients r ~clients ~per_client =
  let sched = make_sched r in
  Shard.Router.enable_group_commit r sched;
  for c = 0 to clients - 1 do
    Coroutine.Scheduler.spawn ~name:(Printf.sprintf "client-%d" c) sched 0 (fun () ->
        for i = 0 to per_client - 1 do
          let side = if c mod 2 = 0 then "a" else "z" in
          put r ~key:(Printf.sprintf "%s%02d-%02d" side c i) "v";
          Coroutine.Co.yield ()
        done)
  done;
  ignore (Coroutine.Scheduler.run_to_completion sched);
  Shard.Router.disable_group_commit r;
  sched

let test_group_commit_coalesces () =
  let cfg = base_config ~shards:2 ~durable:true () in
  let r = Shard.Router.create ~boundaries:[ "n" ] cfg in
  let clients = 8 and per_client = 6 in
  ignore (run_batched_clients r ~clients ~per_client);
  let total = clients * per_client in
  check Alcotest.int "every staged record synced" total
    (Shard.Router.gc_synced_entries r);
  check Alcotest.bool "syncs coalesced" true (Shard.Router.gc_batches r < total);
  check Alcotest.bool "mean batch > 1" true (Shard.Router.gc_mean_batch r > 1.0);
  check Alcotest.int "histogram saw every batch" (Shard.Router.gc_batches r)
    (Util.Histogram.count (Shard.Router.gc_size_hist r));
  (* every acked write is readable *)
  check Alcotest.int "all rows present" total
    (List.length (Shard.Router.scan_range r ~start:"" ~stop:"\xff"))

let test_group_commit_durable_after_ack () =
  let cfg = base_config ~shards:2 ~durable:true () in
  let boundaries = [ "n" ] in
  let r = crashable_router cfg ~boundaries in
  ignore (run_batched_clients r ~clients:6 ~per_client:4);
  let pm = Shard.Router.pm r and ssd = Shard.Router.ssd r in
  Fault.Crash_sweep.crash ~pm ~ssd ();
  let r2 = Shard.Router.recover ~boundaries cfg ~pm ~ssd in
  check Alcotest.int "every acked write recovered" 24
    (List.length (Shard.Router.scan_range r2 ~start:"" ~stop:"\xff"))

(* One batch of k concurrent writers costs one WAL ring write-back and one
   fence: the memtable is big enough that nothing else (no table build)
   fences during the run. *)
let test_group_commit_one_fence_per_batch () =
  let k = 6 in
  let cfg = { (base_config ~shards:1 ~durable:true ()) with Core.Config.memtable_bytes = 1 lsl 20 } in
  let r = Shard.Router.create cfg in
  let pm = Shard.Router.pm r in
  let drains0 = (Pmem.stats pm).Pmem.drains in
  ignore (run_batched_clients r ~clients:k ~per_client:1);
  check Alcotest.int "one batch" 1 (Shard.Router.gc_batches r);
  check Alcotest.int "of every writer" k (Shard.Router.gc_synced_entries r);
  check Alcotest.int "one fence on the device" 1 ((Pmem.stats pm).Pmem.drains - drains0);
  let wal = Option.get (Core.Engine.wal (Shard.Router.engines r).(0)) in
  let s = Core.Wal.stats wal in
  check Alcotest.int "one WAL sync" 1 s.Core.Wal.syncs;
  check Alcotest.int "one WAL fence" 1 s.Core.Wal.fences

(* The default config serves everything: breakers are opt-in and there is
   no deadline budget, so 8 concurrent clients on 4 shards, with group
   commit and the flush/compaction churn of a 4 KB memtable, see no
   refusal of any kind and the ledger books only [Ok]. *)
let test_default_config_serves_everything () =
  let cfg = base_config ~shards:4 ~durable:true () in
  let r = Shard.Router.create ~boundaries:[ "g"; "n"; "t" ] cfg in
  let clients = 8 and per_client = 250 in
  let refused = ref 0 in
  let sched = make_sched r in
  Shard.Router.enable_group_commit r sched;
  for c = 0 to clients - 1 do
    Coroutine.Scheduler.spawn ~name:(Printf.sprintf "client-%d" c) sched 0 (fun () ->
        let rng = Util.Xoshiro.create (100 + c) in
        for i = 0 to per_client - 1 do
          let key = Printf.sprintf "%c%03d" (Char.chr (Char.code 'a' + Util.Xoshiro.int rng 26)) i in
          let ok =
            match Util.Xoshiro.int rng 10 with
            | 0 -> Shard.Router.delete_checked r key = Shard.Router.Acked
            | n when n < 6 ->
                Shard.Router.put_checked ~update:true r ~key (String.make 64 'v')
                = Shard.Router.Acked
            | _ -> (
                match Shard.Router.get_checked r key with
                | Shard.Router.Served _ -> true
                | _ -> false)
          in
          if not ok then incr refused;
          Coroutine.Co.yield ()
        done)
  done;
  ignore (Coroutine.Scheduler.run_to_completion sched);
  Shard.Router.disable_group_commit r;
  let total = clients * per_client in
  check Alcotest.int "no shed, unavailable or degraded result" 0 !refused;
  check Alcotest.int "no breaker trips" 0 (Shard.Router.breaker_trips r);
  check Alcotest.bool "group commit batched" true (Shard.Router.gc_mean_batch r > 1.0);
  let l = Shard.Router.ledger_totals r in
  check Alcotest.int "ledger: every op ok" total (Health.Ledger.ok l);
  check Alcotest.int "ledger: nothing else"
    0
    (Health.Ledger.degraded l + Health.Ledger.shed l + Health.Ledger.unavailable l
    + Health.Ledger.failed l + Health.Ledger.deadline_miss l)

(* --- admission control -------------------------------------------------- *)

let test_admission_stall_and_resume () =
  (* A strategy that never compacts on its own: level-0 debt climbs until
     admission hard-stalls the writer and forces relief. *)
  let cfg =
    {
      (base_config ~shards:1 ()) with
      Core.Config.l0_strategy =
        Core.Config.Conventional { max_tables = None; max_bytes = None };
      admission_soft_tables = 2;
      admission_hard_tables = 3;
    }
  in
  let r = Shard.Router.create cfg in
  for i = 0 to 399 do
    put r ~key:(Printf.sprintf "k%04d" i) (String.make 64 'x')
  done;
  check Alcotest.bool "writer hard-stalled" true (Shard.Router.stall_count r > 0);
  check Alcotest.bool "stall time accounted" true (Shard.Router.stall_ns r > 0.0);
  check Alcotest.bool "soft delays seen" true (Shard.Router.soft_delays r > 0);
  (* relief worked: the shard is below the hard limit and still writable *)
  let debt = Core.Engine.compaction_debt_tables (Shard.Router.engines r).(0) in
  check Alcotest.bool "debt drained below hard limit" true
    (debt < cfg.Core.Config.admission_hard_tables + 2);
  put r ~key:"post-stall" "ok";
  check Alcotest.(option string) "writes resume" (Some "ok")
    (get r "post-stall")

(* Admission owns the hard limit, clamped to at least the soft limit: a
   write with a deadline budget must not be shed as "deadline" at a debt
   that admission itself would pass without delay. *)
let test_deadline_uses_clamped_hard_limit () =
  let cfg =
    {
      (base_config ~shards:1 ()) with
      Core.Config.l0_strategy =
        Core.Config.Conventional { max_tables = None; max_bytes = None };
      admission_soft_tables = 12;
      admission_hard_tables = 4;
      deadline_write_ns = 1e9;
    }
  in
  let r = Shard.Router.create cfg in
  let engine = (Shard.Router.engines r).(0) in
  let i = ref 0 in
  while Core.Engine.compaction_debt_tables engine < 4 do
    put r ~key:(Printf.sprintf "k%04d" !i) (String.make 64 'x');
    incr i
  done;
  let debt = Core.Engine.compaction_debt_tables engine in
  check Alcotest.bool "debt past the unclamped limit, under the soft one" true
    (debt >= 4 && debt < 12);
  (match Shard.Router.put_checked r ~key:"late" "v" with
  | Shard.Router.Acked -> ()
  | Shard.Router.Write_shed why -> Alcotest.failf "write shed (%s) below the hard limit" why
  | Shard.Router.Write_failed why -> Alcotest.failf "write failed (%s)" why);
  check Alcotest.int "admission never stalled" 0 (Shard.Router.stall_count r);
  check Alcotest.int "nor delayed" 0 (Shard.Router.soft_delays r)

(* --- schedsan: the planted race in the committer ------------------------ *)

let races_with ~plant =
  let cfg = base_config ~shards:1 ~durable:true () in
  let r = Shard.Router.create cfg in
  let sched = make_sched r in
  let san = Option.get (Coroutine.Scheduler.sanitizer sched) in
  Shard.Group_commit.plant_race := plant;
  Fun.protect
    ~finally:(fun () -> Shard.Group_commit.plant_race := false)
    (fun () ->
      Shard.Router.enable_group_commit r sched;
      for c = 0 to 3 do
        Coroutine.Scheduler.spawn ~name:(Printf.sprintf "w%d" c) sched 0 (fun () ->
            for i = 0 to 3 do
              put r ~key:(Printf.sprintf "k%d-%d" c i) "v";
              Coroutine.Co.yield ()
            done)
      done;
      ignore (Coroutine.Scheduler.run_to_completion sched);
      Shard.Router.disable_group_commit r);
  Sanitize.Schedsan.races san

let test_schedsan_catches_planted_race () =
  check Alcotest.bool "unlocked batch state races" true (races_with ~plant:true > 0)

let test_schedsan_clean_when_locked () =
  check Alcotest.int "locked committer is race-free" 0 (races_with ~plant:false)

(* --- orphan GC --------------------------------------------------------- *)

(* One collector serves both recoveries. Plant a PM region and an SSD file
   nothing references, crash, recover: both plants are freed, while every
   table region and file, WAL ring, quarantined structure and superblock
   slot the store held before the crash survives. *)
let check_orphan_gc ~pm ~ssd ~engines ~put ~flush ~recover =
  let fill lo hi =
    for i = lo to hi - 1 do
      put ~key:(Printf.sprintf "%c%04d" (Char.chr (Char.code 'a' + (i mod 26))) i)
        (String.make 48 'v')
    done
  in
  (* SSD levels below, PM level-0 tables on top *)
  fill 0 400;
  flush ();
  List.iter Core.Engine.force_major_compaction (engines ());
  fill 400 600;
  flush ();
  (* rot one PM table; a scrub without salvage quarantines it in place *)
  (match
     Fault.Plan.inject_corruption (Fault.Plan.create 9) ~pm ~ssd
       ~wals:(List.filter_map Core.Engine.wal (engines ()))
       ~target:Fault.Plan.Pm_table_bytes ~mode:Fault.Plan.Bit_flip ()
   with
  | Some _ -> ()
  | None -> Alcotest.fail "no PM table to rot");
  List.iter (fun e -> ignore (Core.Engine.scrub ~salvage:false e)) (engines ());
  let q_regions, q_files =
    List.concat_map Core.Engine.quarantined (engines ())
    |> List.partition_map (fun (q : Core.Manifest.quarantine) ->
           match q.Core.Manifest.source with
           | Core.Manifest.Q_region id -> Either.Left id
           | Core.Manifest.Q_file id -> Either.Right id)
  in
  check Alcotest.bool "a PM table is quarantined" true (q_regions <> []);
  let tables = List.concat_map Core.Engine.owned_file_ids (engines ()) in
  check Alcotest.bool "SSD tables exist" true (tables <> []);
  let slots (cur, prev) = List.filter_map Fun.id [ cur; prev ] in
  let regions = List.concat_map Core.Engine.owned_region_ids (engines ()) @ q_regions in
  let files =
    tables @ q_files @ slots (Ssd.root_slots ssd)
    @ List.concat_map (fun name -> slots (Ssd.root_slots ~name ssd)) (Ssd.root_names ssd)
  in
  let planted_region = Pmem.region_id (Pmem.alloc pm 4096) in
  let planted_file =
    let f = Ssd.create_file ssd in
    Ssd.append ssd f "unreferenced";
    Ssd.seal ssd f;
    Ssd.file_id f
  in
  Fault.Crash_sweep.crash ~pm ~ssd ();
  recover ();
  check Alcotest.bool "planted region freed" true (Pmem.find_region pm planted_region = None);
  check Alcotest.bool "planted file deleted" true (Ssd.find_file ssd planted_file = None);
  check Alcotest.(list int) "no referenced region freed" []
    (List.filter (fun id -> Pmem.find_region pm id = None) regions);
  check Alcotest.(list int) "no referenced file deleted" []
    (List.filter (fun id -> Ssd.find_file ssd id = None) files)

let test_orphan_gc_engine () =
  let cfg = base_config ~shards:1 ~durable:true () in
  let e = Fault.Crash_sweep.fresh_engine cfg in
  let pm = Core.Engine.pm e and ssd = Core.Engine.ssd e in
  check_orphan_gc ~pm ~ssd
    ~engines:(fun () -> [ e ])
    ~put:(fun ~key value -> Core.Engine.put e ~key value)
    ~flush:(fun () -> Core.Engine.flush e)
    ~recover:(fun () -> ignore (Core.Engine.recover cfg ~pm ~ssd))

let test_orphan_gc_router () =
  let cfg = base_config ~shards:2 ~durable:true () in
  let boundaries = [ "m" ] in
  let r = crashable_router cfg ~boundaries in
  let pm = Shard.Router.pm r and ssd = Shard.Router.ssd r in
  check_orphan_gc ~pm ~ssd
    ~engines:(fun () -> Array.to_list (Shard.Router.engines r))
    ~put:(fun ~key value -> put r ~key value)
    ~flush:(fun () -> Shard.Router.flush r)
    ~recover:(fun () -> ignore (Shard.Router.recover ~boundaries cfg ~pm ~ssd))

(* --- the sharded crash sweep -------------------------------------------- *)

let sweep_config ?rules () =
  Shard.Sweep.config ?rules ~seed:11 ~ops:150
    { (base_config ~shards:2 ~durable:true ()) with Core.Config.name = "shardsweep" }

let test_sweep_sites_deterministic () =
  let cfg = sweep_config () in
  let a = Fault.Crash_sweep.count_sites cfg in
  check Alcotest.int "same seed, same sites" a (Fault.Crash_sweep.count_sites cfg);
  check Alcotest.bool "multi-shard workload reaches sites" true (a > 50)

let test_sweep_sample_clean () =
  let cfg = sweep_config () in
  let report = Fault.Crash_sweep.sweep ~selection:(Fault.Crash_sweep.Sample 25) cfg in
  if not (Fault.Crash_sweep.clean report) then
    Alcotest.failf "sharded sweep found violations:@.%a" Fault.Crash_sweep.pp_report report

let test_sweep_catches_planted_bug () =
  (* Drop a WAL sync on one shard: some crash legs must then lose acked
     writes, and the sweep's durability checker has to say so. *)
  let cfg =
    sweep_config ~rules:[ ("wal.sync", Fault.Plan.Every, Fault.Plan.Wal_sync_loss) ] ()
  in
  let report = Fault.Crash_sweep.sweep ~selection:(Fault.Crash_sweep.Sample 40) cfg in
  check Alcotest.bool "planted durability bug caught" true
    (Fault.Crash_sweep.violation_count report > 0)

let () =
  Alcotest.run "shard"
    [
      ( "routing",
        [
          Alcotest.test_case "boundary routing" `Quick test_boundary_routing;
          Alcotest.test_case "empty shard ranges" `Quick test_empty_shard_ranges;
          Alcotest.test_case "cross-shard scan merge" `Quick test_cross_shard_scan_merge;
        ] );
      ( "crash",
        [
          Alcotest.test_case "recover all shards" `Quick test_recover_all_shards;
          Alcotest.test_case "batch crash atomicity" `Quick test_batch_crash_atomicity;
          Alcotest.test_case "orphan gc engine" `Quick test_orphan_gc_engine;
          Alcotest.test_case "orphan gc 2-shard router" `Quick test_orphan_gc_router;
        ] );
      ( "group commit",
        [
          Alcotest.test_case "coalesces" `Quick test_group_commit_coalesces;
          Alcotest.test_case "durable after ack" `Quick
            test_group_commit_durable_after_ack;
          Alcotest.test_case "one fence per batch" `Quick
            test_group_commit_one_fence_per_batch;
          Alcotest.test_case "default config serves everything" `Quick
            test_default_config_serves_everything;
        ] );
      ( "admission",
        [
          Alcotest.test_case "stall and resume" `Quick test_admission_stall_and_resume;
          Alcotest.test_case "deadline uses the clamped hard limit" `Quick
            test_deadline_uses_clamped_hard_limit;
        ] );
      ( "schedsan",
        [
          Alcotest.test_case "catches planted race" `Quick
            test_schedsan_catches_planted_race;
          Alcotest.test_case "clean when locked" `Quick test_schedsan_clean_when_locked;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "sites deterministic" `Quick test_sweep_sites_deterministic;
          Alcotest.test_case "sample clean" `Quick test_sweep_sample_clean;
          Alcotest.test_case "catches planted bug" `Quick
            test_sweep_catches_planted_bug;
        ] );
    ]
