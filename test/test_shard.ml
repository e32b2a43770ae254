(* Tests for the range-sharded front door: routing boundaries, cross-shard
   scan merging, group-commit coalescing and its crash semantics (a batch
   is lost whole, never as a torn suffix), admission stall/resume and
   soft-zone relief, the planted schedsan race in the committer, and the
   sharded crash sweeps. *)

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
  Shard.Sweep.crash ~pm ~ssd ();
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
  (* Stage a batch per shard behind the router's back: shard engines defer
     the durability point to the group committer, which we never invoke —
     exactly a crash between staging and the batched sync. *)
  let engines = Shard.Router.engines r in
  let wal e = Option.get (Core.Engine.wal e) in
  let syncs e = (Core.Wal.stats (wal e)).Core.Wal.syncs in
  let syncs_before = Array.map syncs engines in
  for i = 10 to 14 do
    Core.Engine.put engines.(0) ~key:(Printf.sprintf "a%02d" i) "staged";
    Core.Engine.put engines.(1) ~key:(Printf.sprintf "z%02d" i) "staged"
  done;
  Array.iteri
    (fun j e ->
      check Alcotest.bool "a shard put stages its WAL record" true
        (Core.Wal.buffered_bytes (wal e) > 0);
      check Alcotest.int "and leaves the sync to the group committer" syncs_before.(j)
        (syncs e))
    engines;
  let pm = Shard.Router.pm r and ssd = Shard.Router.ssd r in
  Shard.Sweep.crash ~pm ~ssd ();
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
  Shard.Sweep.crash ~pm ~ssd ();
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

(* A strategy that never compacts on its own: admission is the shard's
   only compaction driver. *)
let triggerless_config ?(shards = 1) ?durable ~soft ~hard () =
  {
    (base_config ~shards ?durable ()) with
    Core.Config.l0_strategy = Core.Config.Conventional { max_tables = None; max_bytes = None };
    admission_soft_tables = soft;
    admission_hard_tables = hard;
  }

let test_admission_stall_and_resume () =
  (* soft = hard: no soft zone, so level-0 debt climbs until admission
     hard-stalls the writer and forces relief *)
  let cfg = triggerless_config ~soft:3 ~hard:3 () in
  let r = Shard.Router.create cfg in
  for i = 0 to 399 do
    put r ~key:(Printf.sprintf "k%04d" i) (String.make 64 'x')
  done;
  check Alcotest.bool "writer hard-stalled" true (Shard.Router.stall_count r > 0);
  check Alcotest.bool "stall time accounted" true (Shard.Router.stall_ns r > 0.0);
  check Alcotest.int "no soft zone, no relief step" 0 (Shard.Router.relief_steps r);
  (* relief worked: the shard is below the hard limit and still writable *)
  let debt = Core.Engine.pressure (Shard.Router.engines r).(0) in
  check Alcotest.bool "debt drained below hard limit" true
    (debt < cfg.Core.Config.admission_hard_tables + 2);
  put r ~key:"post-stall" "ok";
  check Alcotest.(option string) "writes resume" (Some "ok")
    (get r "post-stall")

(* Hard relief drains level-0 to the SSD in one major compaction per
   partition: a stalled write that hands off no memtable writes nothing
   to PM (an internal pass first would rewrite level-0 on PM only for the
   major pass to rewrite it again). *)
let test_hard_relief_writes_no_pm () =
  let r = Shard.Router.create (triggerless_config ~soft:3 ~hard:3 ()) in
  let engine = (Shard.Router.engines r).(0) in
  let flushes () = (Core.Engine.metrics engine).Core.Metrics.minor_compactions in
  let stalled = ref 0 in
  for i = 0 to 399 do
    let stalls0 = Shard.Router.stall_count r and flushes0 = flushes () in
    let pm0 = Core.Engine.pm_bytes_written engine in
    put r ~key:(Printf.sprintf "k%04d" i) (String.make 64 'x');
    if Shard.Router.stall_count r > stalls0 && flushes () = flushes0 then begin
      incr stalled;
      check Alcotest.int "hard relief writes no PM bytes" pm0 (Core.Engine.pm_bytes_written engine)
    end
  done;
  check Alcotest.bool "stalled writes seen" true (!stalled > 0)

(* The soft zone relieves instead of sleeping: a write there pays nothing
   extra, and an idle worker gets one partition's major compaction. The
   twin router's limits are out of reach, so it never relieves; both see
   the same writes. *)
let test_soft_zone_relieves () =
  let cfg = triggerless_config ~soft:2 ~hard:8 () in
  let soft = cfg.Core.Config.admission_soft_tables and hard = cfg.Core.Config.admission_hard_tables in
  let r = Shard.Router.create cfg in
  let twin = Shard.Router.create (triggerless_config ~soft:1_000_000 ~hard:1_000_000 ()) in
  let engine = (Shard.Router.engines r).(0) in
  let debt () = Core.Engine.pressure engine in
  let runs () = Array.map Core.Engine.partition_pressure (Core.Engine.partitions engine) in
  let in_soft_zone () = debt () >= soft in
  let flushes () = (Core.Engine.metrics engine).Core.Metrics.minor_compactions in
  (* (d) through the router: a step of a shard that never hard-stalled
     empties exactly the partition with the most runs (the first on a
     tie) and leaves the others' level-0 alone. *)
  let check_step ~key runs0 =
    let runs1 = runs () in
    if Array.length runs1 <> Array.length runs0 then
      Alcotest.failf "step at %S changed the partition count" key;
    let most = ref 0 in
    Array.iteri (fun i n -> if n > runs0.(!most) then most := i) runs0;
    Array.iteri
      (fun i n ->
        let want = if i = !most then 0 else runs0.(i) in
        if n <> want then
          Alcotest.failf "step at %S: partition %d has %d runs, want %d" key i n want)
      runs1
  in
  let cost r ~key value =
    let clock = Shard.Router.clock r in
    let t0 = Sim.Clock.now clock in
    put r ~key value;
    Sim.Clock.now clock -. t0
  in
  (* One write to both routers: (a) a soft-zone write costs exactly what
     it costs with no admission at all, and (c) a write that hands off a
     memtable never starts a step. Returns whether it handed off. *)
  let soft_writes = ref 0 in
  let write ~key value =
    let soft = in_soft_zone () in
    let runs0 = runs () in
    let flushes0 = flushes () and steps0 = Shard.Router.relief_steps r in
    let c = cost r ~key value and c_twin = cost twin ~key value in
    let handed_off = flushes () > flushes0 in
    let stepped = Shard.Router.relief_steps r > steps0 in
    if handed_off && stepped then
      Alcotest.failf "write %S handed off a memtable and started a step" key;
    if stepped then check_step ~key runs0;
    if soft && not handed_off then begin
      incr soft_writes;
      if c <> c_twin then
        Alcotest.failf "soft-zone write %S cost %.1f ns, %.1f ns with no admission" key c c_twin
    end;
    handed_off
  in
  let max_debt = ref 0 in
  for i = 0 to 1999 do
    ignore (write ~key:(Printf.sprintf "k%04d" i) (String.make 64 'x'));
    max_debt := max !max_debt (debt ())
  done;
  (* (b) steps keep the debt off the hard limit *)
  check Alcotest.bool "soft-zone writes seen" true (!soft_writes > 0);
  check Alcotest.bool "soft-zone writes counted" true
    (Shard.Router.soft_delays r >= !soft_writes);
  check Alcotest.bool "relief steps started" true (Shard.Router.relief_steps r > 0);
  check Alcotest.int "no hard stall" 0 (Shard.Router.stall_count r);
  check Alcotest.bool "debt stayed below the hard limit" true (!max_debt < hard);
  (* (c) pointedly: in the soft zone, with the worker idle, a write that
     fills the memtable hands it off and starts no step; the next small
     write on the idle worker does start one. *)
  let i = ref 2000 in
  while not (write ~key:(Printf.sprintf "k%04d" !i) (String.make 64 'x') && in_soft_zone ()) do
    incr i
  done;
  let idle () =
    List.iter (fun r -> Sim.Clock.advance (Shard.Router.clock r) 1e9) [ r; twin ]
  in
  idle ();
  let steps0 = Shard.Router.relief_steps r in
  check Alcotest.bool "a full-memtable write hands off" true
    (write ~key:"m-big" (String.make cfg.Core.Config.memtable_bytes 'x'));
  check Alcotest.int "and starts no step" steps0 (Shard.Router.relief_steps r);
  idle ();
  check Alcotest.bool "still in the soft zone" true (in_soft_zone ());
  ignore (write ~key:"m-small" "v");
  check Alcotest.int "a small write on the idle worker starts one" (steps0 + 1)
    (Shard.Router.relief_steps r)

(* (d) One step empties exactly the partition with the most level-0 runs
   — the first on a tie — and leaves every other partition's level-0
   alone. *)
let test_relieve_one_partition () =
  let e =
    Core.Engine.create ~boundaries:[ "h"; "p" ] (triggerless_config ~soft:2 ~hard:8 ())
  in
  let flush_keys keys =
    List.iter (fun key -> Core.Engine.put e ~key "v") keys;
    Core.Engine.flush e
  in
  let parts () = Core.Engine.partitions e in
  let runs () = Array.map Core.Engine.partition_pressure (parts ()) in
  let l0 () = Array.map Core.Engine.partition_l0_bytes (parts ()) in
  let ints = Alcotest.(array int) in
  flush_keys [ "a1"; "i1"; "q1" ];
  flush_keys [ "i2"; "q2" ];
  flush_keys [ "i3" ];
  check ints "runs per partition" [| 1; 3; 2 |] (runs ());
  let before = l0 () in
  ignore (Core.Engine.relieve e);
  check ints "the partition with the most runs emptied" [| 1; 0; 2 |] (runs ());
  let after = l0 () in
  check Alcotest.(pair int int) "other partitions' level-0 untouched"
    (before.(0), before.(2)) (after.(0), after.(2));
  check Alcotest.int "its level-0 gone" 0 after.(1);
  flush_keys [ "a2"; "i4" ];
  check ints "a tie" [| 2; 1; 2 |] (runs ());
  ignore (Core.Engine.relieve e);
  check ints "the first of the tied partitions emptied" [| 0; 1; 2 |] (runs ());
  List.iter
    (fun key -> check Alcotest.(option string) key (Some "v") (Core.Engine.get e key))
    [ "a1"; "a2"; "i1"; "i2"; "i3"; "i4"; "q1"; "q2" ]

(* The step is priced by Eq. 2 under the cost-based strategy: a partition
   whose level-0 is mostly updates is internal-compacted into one sorted
   run on PM, one of inserts is major-compacted, and once level-0 reaches
   tau_m (Eq. 3) or under a conventional strategy every step is major. *)
let test_relieve_priced () =
  let cost_based ?(tau_m = Compaction.Cost_model.default.tau_m) () =
    {
      (base_config ~shards:1 ()) with
      Core.Config.l0_strategy =
        Core.Config.Cost_based { Compaction.Cost_model.default with tau_m };
    }
  in
  let engine cfg = Core.Engine.create ~boundaries:[ "h"; "p" ] cfg in
  let runs e = Array.map Core.Engine.partition_pressure (Core.Engine.partitions e) in
  let ints = Alcotest.(array int) in
  let kind =
    Alcotest.testable
      (fun ppf k ->
        Fmt.string ppf (match k with Core.Engine.Internal -> "internal" | Major -> "major"))
      ( = )
  in
  (* Three overlapping flushes of the same ten keys in partition 1: the
     first joins the sorted run, the next two stay unsorted (three runs),
     and two thirds of the records are updates. *)
  let update_heavy e =
    for round = 0 to 2 do
      for i = 0 to 9 do
        Core.Engine.put ~update:(round > 0) e
          ~key:(Printf.sprintf "i%02d" i)
          (Printf.sprintf "v%d" round)
      done;
      Core.Engine.flush e
    done
  in
  (* Interleaved fresh keys in partition 0: overlapping ranges, no updates. *)
  let insert_only e =
    for round = 0 to 3 do
      for i = 0 to 9 do
        Core.Engine.put e ~key:(Printf.sprintf "a%03d" ((i * 4) + round)) "w"
      done;
      Core.Engine.flush e
    done
  in
  let reads_back e =
    for i = 0 to 9 do
      let key = Printf.sprintf "i%02d" i in
      check Alcotest.(option string) key (Some "v2") (Core.Engine.get e key)
    done;
    for k = 0 to 39 do
      let key = Printf.sprintf "a%03d" k in
      check Alcotest.(option string) key (Some "w") (Core.Engine.get e key)
    done
  in
  (* (a) update-heavy: internal compaction, one sorted run, no SSD write *)
  let e = engine (cost_based ()) in
  update_heavy e;
  check ints "three runs, all in partition 1" [| 0; 3; 0 |] (runs e);
  let ssd0 = Core.Engine.ssd_bytes_written e in
  check Alcotest.(option kind) "update-heavy: internal" (Some Core.Engine.Internal)
    (Core.Engine.relieve e);
  check ints "one sorted run left" [| 0; 1; 0 |] (runs e);
  check Alcotest.int "no unsorted table left" 0 (Core.Engine.unsorted_table_count e);
  check Alcotest.bool "the run is on PM" true
    (Core.Engine.partition_l0_bytes (Core.Engine.partitions e).(1) > 0);
  check Alcotest.int "no SSD bytes written" ssd0 (Core.Engine.ssd_bytes_written e);
  (* (b) insert-only: major compaction empties its level-0 *)
  insert_only e;
  check ints "four runs in partition 0" [| 4; 1; 0 |] (runs e);
  check Alcotest.(option kind) "insert-only: major" (Some Core.Engine.Major)
    (Core.Engine.relieve e);
  check ints "its level-0 is empty" [| 0; 1; 0 |] (runs e);
  check Alcotest.int "and holds no bytes" 0
    (Core.Engine.partition_l0_bytes (Core.Engine.partitions e).(0));
  reads_back e;
  (* (c) level-0 at tau_m: Eq. 3 wins over Eq. 2 *)
  let e = engine (cost_based ~tau_m:1 ()) in
  update_heavy e;
  check ints "the same update-heavy runs" [| 0; 3; 0 |] (runs e);
  check Alcotest.(option kind) "at tau_m: major" (Some Core.Engine.Major)
    (Core.Engine.relieve e);
  check ints "its level-0 is empty" [| 0; 0; 0 |] (runs e);
  (* (d) a conventional strategy always majors *)
  let e = engine (triggerless_config ~soft:2 ~hard:8 ()) in
  update_heavy e;
  check Alcotest.(option kind) "conventional: major" (Some Core.Engine.Major)
    (Core.Engine.relieve e);
  check ints "level-0 is empty" [| 0; 0; 0 |] (runs e);
  check Alcotest.(option kind) "an empty level-0: no step" None
    (Core.Engine.relieve e)

(* Forced relief meets rot like any other compaction: a zeroed level-0
   table met by the hard limit's relief is quarantined, the writes go on
   being acked, and the lost range is queryable. *)
let test_hard_relief_quarantines_rot () =
  let cfg = triggerless_config ~soft:4 ~hard:4 () in
  let r = Shard.Router.create cfg in
  let engine = (Shard.Router.engines r).(0) in
  let key i = Printf.sprintf "k%04d" i in
  let n = ref 0 in
  let put_next () =
    put r ~key:(key !n) (String.make 64 'x');
    incr n
  in
  while Core.Engine.pressure engine < 1 do
    put_next ()
  done;
  (* the hand-off write flushed every key before its own *)
  let rotted = List.init (!n - 1) key in
  let region =
    match Pmem.live_regions (Shard.Router.pm r) with
    | [ region ] -> region
    | _ -> Alcotest.fail "expected exactly one PM table"
  in
  Pmem.corrupt_region ~len:64 ~mode:`Zero (Shard.Router.pm r) region ~off:0;
  for _ = 1 to 400 do
    put_next ()
  done;
  check Alcotest.bool "the hard limit was reached" true (Shard.Router.stall_count r > 0);
  check Alcotest.bool "the rotten table is quarantined" true
    (List.exists
       (fun (q : Core.Manifest.quarantine) ->
         q.Core.Manifest.source = Core.Manifest.Q_region (Pmem.region_id region))
       (Core.Engine.quarantined engine));
  List.iter
    (fun k ->
      check Alcotest.bool (Printf.sprintf "damaged_key %S" k) true
        (Core.Engine.damaged_key engine k))
    rotted

(* Debt counts runs, and a sequential load moves every flush into the
   sorted run: loading a store that fits the PM budget through the front
   door never stalls, and every read is then served from PM. *)
let test_resident_load_stays_on_pm () =
  let cfg = { Core.Config.pmblade with Core.Config.durable = true; shard_count = 1 } in
  let r = Shard.Router.create cfg in
  let records = 3000 in
  for i = 0 to records - 1 do
    put r ~key:(Util.Keys.ycsb_key i) (String.make 1024 (Char.chr (97 + (i mod 26))))
  done;
  Shard.Router.flush r;
  check Alcotest.int "no admission stall" 0 (Shard.Router.stall_count r);
  check Alcotest.bool "under the hard limit" false (Shard.Router.at_hard_limit r);
  let m = Core.Engine.metrics (Shard.Router.engines r).(0) in
  Core.Metrics.reset_read_sources m;
  for i = 0 to records - 1 do
    check Alcotest.(option int) "value read back" (Some 1024)
      (Option.map String.length (get r (Util.Keys.ycsb_key i)))
  done;
  check Alcotest.int "no get reached the SSD" 0 m.Core.Metrics.reads_from_ssd;
  check Alcotest.int "every get served from PM" records m.Core.Metrics.reads_from_pm

(* The shard's hard limit is clamped to at least the soft limit: a write
   with a deadline budget must not be shed as "deadline" at a debt that
   admission itself would pass without delay. *)
let test_deadline_uses_clamped_hard_limit () =
  let cfg = { (triggerless_config ~soft:12 ~hard:4 ()) with Core.Config.deadline_write_ns = 1e9 } in
  let r = Shard.Router.create cfg in
  let engine = (Shard.Router.engines r).(0) in
  let i = ref 0 in
  while Core.Engine.pressure engine < 4 do
    put r ~key:(Printf.sprintf "k%04d" !i) (String.make 64 'x');
    incr i
  done;
  let debt = Core.Engine.pressure engine in
  check Alcotest.bool "debt past the unclamped limit, under the soft one" true
    (debt >= 4 && debt < 12);
  (match Shard.Router.put_checked r ~key:"late" "v" with
  | Shard.Router.Acked -> ()
  | Shard.Router.Write_shed why -> Alcotest.failf "write shed (%s) below the hard limit" why
  | Shard.Router.Write_failed why -> Alcotest.failf "write failed (%s)" why);
  check Alcotest.int "admission never stalled" 0 (Shard.Router.stall_count r);
  check Alcotest.int "nor entered the soft zone" 0 (Shard.Router.soft_delays r)

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

(* [Router.recover] is the one collector, at any shard count. Plant a PM
   region and an SSD file nothing references, crash, recover: both plants
   are freed, while every table region and file, WAL ring, quarantined
   structure and superblock slot the store held before the crash
   survives. *)
let check_gc_orphans ~shards ~boundaries =
  let cfg = base_config ~shards ~durable:true () in
  let r = crashable_router cfg ~boundaries in
  let pm = Shard.Router.pm r and ssd = Shard.Router.ssd r in
  let engines () = Array.to_list (Shard.Router.engines r) in
  let fill lo hi =
    for i = lo to hi - 1 do
      put r
        ~key:(Printf.sprintf "%c%04d" (Char.chr (Char.code 'a' + (i mod 26))) i)
        (String.make 48 'v')
    done
  in
  (* SSD levels below, PM level-0 tables on top *)
  fill 0 400;
  Shard.Router.flush r;
  List.iter Core.Engine.force_major_compaction (engines ());
  fill 400 600;
  Shard.Router.flush r;
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
  Shard.Sweep.crash ~pm ~ssd ();
  ignore (Shard.Router.recover ~boundaries cfg ~pm ~ssd);
  check Alcotest.bool "planted region freed" true (Pmem.find_region pm planted_region = None);
  check Alcotest.bool "planted file deleted" true (Ssd.find_file ssd planted_file = None);
  check Alcotest.(list int) "no referenced region freed" []
    (List.filter (fun id -> Pmem.find_region pm id = None) regions);
  check Alcotest.(list int) "no referenced file deleted" []
    (List.filter (fun id -> Ssd.find_file ssd id = None) files)

(* "orphan gc engine" is the one-shard store. *)
let test_gc_orphans_1_shard () = check_gc_orphans ~shards:1 ~boundaries:[]
let test_gc_orphans_2_shards () = check_gc_orphans ~shards:2 ~boundaries:[ "m" ]

(* A shard persists its manifest under its own named superblock root, so
   the scrubber must check that root, not the unnamed one: rot shard 1's
   newest slot and scrub that shard's engine. *)
let test_scrub_checks_shard_manifest () =
  let cfg = base_config ~shards:2 ~durable:true () in
  let r = Shard.Router.create ~boundaries:[ "m" ] cfg in
  for round = 0 to 1 do
    for i = 0 to 19 do
      put r ~key:(Printf.sprintf "z%d-%02d" round i) (String.make 48 'v')
    done;
    Shard.Router.flush r
  done;
  let engine = (Shard.Router.engines r).(1) in
  let ssd = Shard.Router.ssd r in
  let cur, _ = Ssd.root_slots ~name:(Core.Engine.manifest_root engine) ssd in
  let file = Option.get (Ssd.find_file ssd (Option.get cur)) in
  Ssd.corrupt_file ssd file ~off:(Ssd.file_size file / 2);
  let report = Core.Scrubber.run engine in
  check Alcotest.int "both slots seen" 2 report.Core.Scrubber.manifest_slots;
  check Alcotest.bool "newest slot flagged" true report.Core.Scrubber.manifest_rotted

(* --- the sharded crash sweep -------------------------------------------- *)

let sweep_config ?rules () =
  Shard.Sweep.config ?rules ~seed:11 ~ops:150
    { (base_config ~shards:2 ~durable:true ()) with Core.Config.name = "shardsweep" }

let test_sweep_sites_deterministic () =
  let cfg = sweep_config () in
  let a = Shard.Sweep.count_sites cfg in
  check Alcotest.int "same seed, same sites" a (Shard.Sweep.count_sites cfg);
  check Alcotest.bool "multi-shard workload reaches sites" true (a > 50)

let test_sweep_sample_clean () =
  let cfg = sweep_config () in
  let report = Shard.Sweep.sweep ~selection:(Shard.Sweep.Sample 25) cfg in
  if not (Shard.Sweep.clean report) then
    Alcotest.failf "sharded sweep found violations:@.%a" Shard.Sweep.pp_report report

(* The soft zone under the crash sweep: a relief step's compaction and
   manifest install join the crash points. The sweep's workload starts
   steps (checked on the counting run's workload), and a sample is clean.
   The conventional leg's steps are major compactions; the cost-based
   leg's workload updates a small keyspace, so Eq. 2 prices some of its
   steps as internal compactions on PM. *)
let sweep_relief_steps router_cfg ~internal () =
  let cfg = Shard.Sweep.config ~seed:11 router_cfg in
  let r = Shard.Sweep.fresh cfg in
  Shard.Sweep.run_ops cfg (Fault.Golden.create ()) r;
  check Alcotest.bool "the workload starts relief steps" true (Shard.Router.relief_steps r > 0);
  check Alcotest.bool "internal steps as priced" internal
    (Shard.Router.relief_steps_internal r > 0);
  let report = Shard.Sweep.sweep ~selection:(Shard.Sweep.Sample 25) cfg in
  if not (Shard.Sweep.clean report) then
    Alcotest.failf "relief sweep found violations:@.%a" Shard.Sweep.pp_report report

let test_sweep_relief_steps =
  sweep_relief_steps ~internal:false
    {
      (triggerless_config ~shards:2 ~durable:true ~soft:1 ~hard:16 ()) with
      Core.Config.name = "reliefsweep";
    }

let test_sweep_priced_relief_steps =
  sweep_relief_steps ~internal:true
    {
      (base_config ~shards:2 ~durable:true ()) with
      Core.Config.name = "pricedsweep";
      memtable_bytes = 1024;
      admission_soft_tables = 2;
      admission_hard_tables = 16;
    }

let test_sweep_catches_planted_bug () =
  (* Drop a WAL sync on one shard: some crash legs must then lose acked
     writes, and the sweep's durability checker has to say so. *)
  let cfg =
    sweep_config ~rules:[ ("wal.sync", Fault.Plan.Every, Fault.Plan.Wal_sync_loss) ] ()
  in
  let report = Shard.Sweep.sweep ~selection:(Shard.Sweep.Sample 40) cfg in
  check Alcotest.bool "planted durability bug caught" true
    (Shard.Sweep.violation_count report > 0)

(* --- the one metrics registration ---------------------------------------- *)

(* Every name the bare engine's registry exported, one per line. *)
let engine_metric_names () =
  let path =
    if Sys.file_exists "fixtures" then "fixtures/engine_metric_names.txt"
    else "test/fixtures/engine_metric_names.txt"
  in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

(* The router registers the engine families once, whatever the shard
   count: no name the engine exported goes missing. *)
let test_registry_keeps_engine_names () =
  let expected = engine_metric_names () in
  check Alcotest.bool "fixture read" true (List.length expected > 100);
  List.iter
    (fun shards ->
      let router =
        Shard.Router.create { Core.Config.pmblade with Core.Config.shard_count = shards }
      in
      let reg = Obs.Registry.create () in
      Shard.Router.register_metrics reg router;
      let names = Obs.Registry.names reg in
      check
        Alcotest.(list string)
        (Printf.sprintf "%d shard(s): no engine name missing" shards)
        []
        (List.filter (fun n -> not (List.mem n names)) expected))
    [ 1; 2 ]

(* Engine counters are summed over the shards, not taken from one. *)
let test_registry_sums_shards () =
  let router = Shard.Router.create ~boundaries:[ "k0100" ] (base_config ~shards:2 ()) in
  let reg = Obs.Registry.create () in
  Shard.Router.register_metrics reg router;
  for i = 0 to 199 do
    put router ~key:(Printf.sprintf "k%04d" i) "v"
  done;
  let per_shard =
    Array.map
      (fun e -> (Core.Engine.metrics e).Core.Metrics.writes)
      (Shard.Router.engines router)
  in
  check Alcotest.bool "both shards written" true (Array.for_all (fun w -> w > 0) per_shard);
  match Obs.Json.member "engine.writes" (Obs.Registry.snapshot_json reg) with
  | Some (Obs.Json.Int w) -> check Alcotest.int "engine.writes summed" 200 w
  | _ -> Alcotest.fail "engine.writes missing"

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
          Alcotest.test_case "orphan gc engine" `Quick test_gc_orphans_1_shard;
          Alcotest.test_case "orphan gc 2-shard router" `Quick test_gc_orphans_2_shards;
          Alcotest.test_case "scrub checks the shard's manifest" `Quick
            test_scrub_checks_shard_manifest;
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
          Alcotest.test_case "soft zone relieves instead of sleeping" `Quick
            test_soft_zone_relieves;
          Alcotest.test_case "relief step empties one partition" `Quick
            test_relieve_one_partition;
          Alcotest.test_case "relief step priced by Eq. 2" `Quick test_relieve_priced;
          Alcotest.test_case "hard relief quarantines rot" `Quick
            test_hard_relief_quarantines_rot;
          Alcotest.test_case "hard relief writes no PM" `Quick test_hard_relief_writes_no_pm;
          Alcotest.test_case "resident load stays on PM" `Quick
            test_resident_load_stays_on_pm;
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
          Alcotest.test_case "relief steps sample clean" `Quick test_sweep_relief_steps;
          Alcotest.test_case "priced relief steps sample clean" `Quick
            test_sweep_priced_relief_steps;
          Alcotest.test_case "catches planted bug" `Quick
            test_sweep_catches_planted_bug;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry keeps engine names" `Quick
            test_registry_keeps_engine_names;
          Alcotest.test_case "registry sums shards" `Quick test_registry_sums_shards;
        ] );
    ]
