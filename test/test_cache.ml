(* Shared block cache tests: the strict capacity bound (the whole point of
   replacing the unbounded per-table arrays), LRU eviction order, oversized
   rejection, per-file invalidation, clock charging — then the cache wired
   under SSTables and under a full engine, including the salvage/quarantine
   stale-block regressions. *)

let check = Alcotest.check

let node_overhead = 64 (* must match Block_cache's per-entry bookkeeping charge *)

let block n = String.make n 'b'

(* Resident bytes never exceed capacity, measured after every insert while
   driving well over 2x the capacity of distinct blocks through the cache. *)
let test_capacity_bound () =
  let cap = 64 * 1024 in
  let c = Cache.Block_cache.create ~shards:1 ~capacity_bytes:cap () in
  check Alcotest.int "capacity as configured" cap (Cache.Block_cache.capacity_bytes c);
  for i = 0 to 39 do
    (* 40 x 4 KiB = 160 KiB of distinct blocks through a 64 KiB cache *)
    Cache.Block_cache.insert c ~file_id:1 ~block:i (block 4096);
    check Alcotest.bool
      (Printf.sprintf "bound holds after insert %d (%d <= %d)" i
         (Cache.Block_cache.resident_bytes c) cap)
      true
      (Cache.Block_cache.resident_bytes c <= cap)
  done;
  check Alcotest.bool "cache is actually used" true
    (Cache.Block_cache.resident_blocks c > 0);
  check Alcotest.bool "evictions happened" true (Cache.Block_cache.evictions c > 0)

let test_capacity_bound_sharded () =
  let cap = 64 * 1024 in
  let c = Cache.Block_cache.create ~shards:4 ~capacity_bytes:cap () in
  let rng = Util.Xoshiro.create 11 in
  for i = 0 to 199 do
    let len = 512 + Util.Xoshiro.int rng 4096 in
    Cache.Block_cache.insert c ~file_id:(Util.Xoshiro.int rng 5) ~block:i (block len);
    check Alcotest.bool "sharded bound holds" true
      (Cache.Block_cache.resident_bytes c <= Cache.Block_cache.capacity_bytes c)
  done;
  check Alcotest.bool "evictions happened" true (Cache.Block_cache.evictions c > 0)

let test_lru_order () =
  (* room for exactly four 1000-byte blocks in one shard *)
  let charge = 1000 + node_overhead in
  let c = Cache.Block_cache.create ~shards:1 ~capacity_bytes:(4 * charge) () in
  for i = 0 to 3 do
    Cache.Block_cache.insert c ~file_id:1 ~block:i (block 1000)
  done;
  (* touch block 0: block 1 becomes the LRU victim *)
  check Alcotest.bool "hit block 0" true (Cache.Block_cache.find c ~file_id:1 ~block:0 <> None);
  Cache.Block_cache.insert c ~file_id:1 ~block:4 (block 1000);
  check Alcotest.bool "recently-used survives" true (Cache.Block_cache.mem c ~file_id:1 ~block:0);
  check Alcotest.bool "LRU evicted" false (Cache.Block_cache.mem c ~file_id:1 ~block:1);
  check Alcotest.bool "others survive" true
    (Cache.Block_cache.mem c ~file_id:1 ~block:2
    && Cache.Block_cache.mem c ~file_id:1 ~block:3
    && Cache.Block_cache.mem c ~file_id:1 ~block:4)

let test_oversized_rejected () =
  let c = Cache.Block_cache.create ~shards:1 ~capacity_bytes:4096 () in
  Cache.Block_cache.insert c ~file_id:1 ~block:0 (block 8192);
  check Alcotest.bool "not admitted" false (Cache.Block_cache.mem c ~file_id:1 ~block:0);
  check Alcotest.int "nothing resident" 0 (Cache.Block_cache.resident_bytes c);
  check Alcotest.int "rejection counted" 1 (Cache.Block_cache.rejections c)

let test_replace_same_key () =
  let c = Cache.Block_cache.create ~shards:1 ~capacity_bytes:8192 () in
  Cache.Block_cache.insert c ~file_id:1 ~block:0 "old";
  Cache.Block_cache.insert c ~file_id:1 ~block:0 "fresh";
  check Alcotest.int "one block resident" 1 (Cache.Block_cache.resident_blocks c);
  check (Alcotest.option Alcotest.string) "replacement served" (Some "fresh")
    (Cache.Block_cache.find c ~file_id:1 ~block:0)

let test_invalidate_file () =
  let c = Cache.Block_cache.create ~shards:4 ~capacity_bytes:(256 * 1024) () in
  for i = 0 to 9 do
    Cache.Block_cache.insert c ~file_id:1 ~block:i (block 1024);
    Cache.Block_cache.insert c ~file_id:2 ~block:i (block 1024)
  done;
  Cache.Block_cache.invalidate_file c ~file_id:1;
  check Alcotest.int "file 1 gone" 0 (Cache.Block_cache.file_resident_bytes c ~file_id:1);
  check Alcotest.bool "file 2 intact" true
    (Cache.Block_cache.file_resident_bytes c ~file_id:2 > 0);
  check Alcotest.int "invalidations counted" 10 (Cache.Block_cache.invalidations c)

let test_hit_charges_clock () =
  let clock = Sim.Clock.create () in
  let c = Cache.Block_cache.create ~shards:1 ~clock ~capacity_bytes:8192 () in
  check Alcotest.bool "miss" true (Cache.Block_cache.find c ~file_id:1 ~block:0 = None);
  Cache.Block_cache.insert c ~file_id:1 ~block:0 (block 1024);
  let t0 = Sim.Clock.now clock in
  check Alcotest.bool "hit" true (Cache.Block_cache.find c ~file_id:1 ~block:0 <> None);
  check Alcotest.bool "hit charges DRAM latency" true (Sim.Clock.now clock > t0);
  check Alcotest.int "hits" 1 (Cache.Block_cache.hits c);
  check Alcotest.int "misses" 1 (Cache.Block_cache.misses c)

(* --- SSTables sharing one cache ------------------------------------------- *)

let entries n =
  List.init n (fun i ->
      Util.Kv.entry ~key:(Util.Keys.ycsb_key i) ~seq:(i + 1) (Printf.sprintf "value-%05d" i))

let test_sstable_shared_cache () =
  let clock = Sim.Clock.create () in
  let ssd = Ssd.create clock in
  let c = Cache.Block_cache.create ~clock ~capacity_bytes:(4 * 1024 * 1024) () in
  let a = Sstable.of_sorted_list ssd (entries 500) in
  let b = Sstable.of_sorted_list ssd (entries 500) in
  Sstable.attach_shared_cache a c;
  Sstable.attach_shared_cache b c;
  let probe t =
    List.iter
      (fun i -> ignore (Sstable.get t (Util.Keys.ycsb_key i)))
      [ 0; 100; 200; 300; 400 ]
  in
  probe a;
  probe b;
  check Alcotest.bool "both files resident" true
    (Cache.Block_cache.file_resident_bytes c ~file_id:(Sstable.file_id a) > 0
    && Cache.Block_cache.file_resident_bytes c ~file_id:(Sstable.file_id b) > 0);
  let ssd_reads = (Ssd.stats ssd).Ssd.reads in
  probe a;
  probe b;
  check Alcotest.int "repeat probes served from cache" ssd_reads (Ssd.stats ssd).Ssd.reads;
  Sstable.invalidate_cache a;
  check Alcotest.int "invalidate drops a's blocks" 0
    (Cache.Block_cache.file_resident_bytes c ~file_id:(Sstable.file_id a));
  check Alcotest.bool "b untouched" true
    (Cache.Block_cache.file_resident_bytes c ~file_id:(Sstable.file_id b) > 0)

(* --- Engine-level behaviour ------------------------------------------------ *)

let small_config =
  {
    Core.Config.pmblade with
    Core.Config.memtable_bytes = 4 * 1024;
    l0_run_table_bytes = 8 * 1024;
    level_base_bytes = 64 * 1024;
    sstable_target_bytes = 16 * 1024;
    block_cache_mb = 1;
  }

let key i = Util.Keys.ycsb_key i

let build_engine ?(cfg = small_config) ?(keys = 4000) () =
  let engine = Core.Engine.create cfg in
  let rng = Util.Xoshiro.create 17 in
  for i = 0 to keys - 1 do
    Core.Engine.put engine ~key:(key i) (Util.Xoshiro.string rng 512)
  done;
  Core.Engine.flush engine;
  Core.Engine.force_internal_compaction engine;
  Core.Engine.force_major_compaction engine;
  engine

let test_engine_cache_bounded () =
  (* ~2 MB of values through a 1 MB cache: the bound must hold across the
     whole read sweep, and the cache must actually serve hits. *)
  let engine = build_engine () in
  let c =
    match Core.Engine.block_cache engine with
    | Some c -> c
    | None -> Alcotest.fail "engine built without block cache"
  in
  let cap = Cache.Block_cache.capacity_bytes c in
  check Alcotest.int "capacity from config" (1024 * 1024) cap;
  for round = 0 to 1 do
    for i = 0 to 3999 do
      ignore (Core.Engine.get engine (key i));
      if i mod 100 = 0 then
        check Alcotest.bool
          (Printf.sprintf "bound holds (round %d, key %d)" round i)
          true
          (Cache.Block_cache.resident_bytes c <= cap)
    done
  done;
  check Alcotest.bool "cache saw misses" true (Cache.Block_cache.misses c > 0);
  check Alcotest.bool "cache served hits" true (Cache.Block_cache.hits c > 0);
  check Alcotest.bool "evictions under pressure" true (Cache.Block_cache.evictions c > 0)

let test_engine_fences_agree_with_model () =
  let cfg = { small_config with Core.Config.partition_count = 4 } in
  let engine = Core.Engine.create cfg in
  let rng = Util.Xoshiro.create 29 in
  let model = Hashtbl.create 256 in
  for i = 0 to 2999 do
    let k = key (Util.Xoshiro.int rng 600) in
    let v = Printf.sprintf "g%d:%s" i (Util.Xoshiro.string rng 24) in
    Core.Engine.put ~update:true engine ~key:k v;
    Hashtbl.replace model k v;
    if i mod 700 = 0 then begin
      Core.Engine.flush engine;
      Core.Engine.force_internal_compaction engine
    end;
    if i mod 1100 = 0 then Core.Engine.force_major_compaction engine
  done;
  Hashtbl.iter
    (fun k v ->
      match Core.Engine.get engine k with
      | Some got -> check Alcotest.string ("model agreement for " ^ k) v got
      | None -> Alcotest.failf "fenced read lost %s" k)
    model;
  check Alcotest.bool "fences were rebuilt" true
    ((Core.Engine.metrics engine).Core.Metrics.fence_rebuilds > 0)

(* A corrupted SSTable whose blocks sit in the shared cache: salvage must
   rewrite the table AND drop the stale cached blocks of the old file. *)
let corrupt_cached_sst engine c =
  let ssd = Core.Engine.ssd engine in
  (* warm the cache over the whole keyspace, then pick a cached SST file *)
  for i = 0 to 3999 do
    ignore (Core.Engine.get engine (key i))
  done;
  let victim =
    match
      List.find_opt
        (fun id -> Cache.Block_cache.file_resident_bytes c ~file_id:id > 0)
        (Ssd.live_file_ids ssd)
    with
    | Some id -> id
    | None -> Alcotest.fail "no SST file resident in cache"
  in
  let file = Option.get (Ssd.find_file ssd victim) in
  Ssd.corrupt_file ~len:16 ~mode:`Flip ssd file ~off:100;
  victim

let test_salvage_drops_stale_blocks () =
  let engine = build_engine () in
  let c = Option.get (Core.Engine.block_cache engine) in
  let victim = corrupt_cached_sst engine c in
  let report = Core.Engine.scrub ~salvage:true engine in
  check Alcotest.bool "a corrupt SSTable was found" true
    (report.Core.Engine.corrupt_sstables > 0);
  check Alcotest.int "stale blocks of the old file dropped" 0
    (Cache.Block_cache.file_resident_bytes c ~file_id:victim);
  (* every surviving key reads back verified bytes, never a stale block *)
  for i = 0 to 3999 do
    match Core.Engine.get engine (key i) with
    | _ -> ()
    | exception Core.Engine.Degraded_read _ ->
        Alcotest.failf "degraded read after salvage for %s" (key i)
  done

let test_quarantine_drops_cached_blocks () =
  let engine = build_engine () in
  let c = Option.get (Core.Engine.block_cache engine) in
  let victim = corrupt_cached_sst engine c in
  let report = Core.Engine.scrub ~salvage:false engine in
  check Alcotest.bool "a corrupt SSTable was found" true
    (report.Core.Engine.corrupt_sstables > 0);
  check Alcotest.bool "table quarantined" true (Core.Engine.quarantined engine <> []);
  check Alcotest.int "quarantined file's blocks dropped" 0
    (Cache.Block_cache.file_resident_bytes c ~file_id:victim)

let () =
  Alcotest.run "cache"
    [
      ( "block cache",
        [
          Alcotest.test_case "capacity bound" `Quick test_capacity_bound;
          Alcotest.test_case "capacity bound (sharded)" `Quick test_capacity_bound_sharded;
          Alcotest.test_case "LRU order" `Quick test_lru_order;
          Alcotest.test_case "oversized rejected" `Quick test_oversized_rejected;
          Alcotest.test_case "replace same key" `Quick test_replace_same_key;
          Alcotest.test_case "invalidate file" `Quick test_invalidate_file;
          Alcotest.test_case "hit charges clock" `Quick test_hit_charges_clock;
        ] );
      ( "sstable",
        [ Alcotest.test_case "shared across tables" `Quick test_sstable_shared_cache ] );
      ( "engine",
        [
          Alcotest.test_case "cache bounded under reads" `Quick test_engine_cache_bounded;
          Alcotest.test_case "fences agree with model" `Quick test_engine_fences_agree_with_model;
          Alcotest.test_case "salvage drops stale blocks" `Quick test_salvage_drops_stale_blocks;
          Alcotest.test_case "quarantine drops cached blocks" `Quick
            test_quarantine_drops_cached_blocks;
        ] );
    ]
