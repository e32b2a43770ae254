(* SSTable tests: builder/reader roundtrip, bloom-screened gets, block
   cache behaviour (the "SSTable in cache" configuration of Table I),
   ranges, and overlap metadata. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let make () =
  let clock = Sim.Clock.create () in
  (clock, Ssd.create clock)

let entries n =
  List.init n (fun i ->
      Util.Kv.entry ~key:(Util.Keys.ycsb_key (i * 2)) ~seq:(i + 1) (Printf.sprintf "value-%05d" i))

let test_roundtrip () =
  let _, ssd = make () in
  let es = entries 500 in
  let sst = Sstable.of_sorted_list ssd es in
  check Alcotest.int "count" 500 (Sstable.count sst);
  check Alcotest.bool "stream identical" true
    (List.for_all2 (fun (a : Util.Kv.entry) b -> a = b) es (Sstable.to_list sst));
  List.iter
    (fun (e : Util.Kv.entry) ->
      match Sstable.get sst e.key with
      | Some got -> check Alcotest.string ("get " ^ e.key) e.value got.Util.Kv.value
      | None -> Alcotest.failf "lost %s" e.key)
    (List.filteri (fun i _ -> i mod 13 = 0) es)

let test_absent_keys () =
  let _, ssd = make () in
  let sst = Sstable.of_sorted_list ssd (entries 100) in
  (* odd ranks were never inserted *)
  check Alcotest.bool "absent inside range" true (Sstable.get sst (Util.Keys.ycsb_key 3) = None);
  check Alcotest.bool "absent below" true (Sstable.get sst "a" = None);
  check Alcotest.bool "absent above" true (Sstable.get sst "z" = None)

let test_bloom_saves_reads () =
  let _, ssd = make () in
  let sst = Sstable.of_sorted_list ssd (entries 1000) in
  let misses () =
    for i = 0 to 499 do
      ignore (Sstable.get sst (Util.Keys.ycsb_key ((i * 2) + 1)))
    done
  in
  let reads_before = (Ssd.stats ssd).Ssd.reads in
  misses ();
  let with_bloom = (Ssd.stats ssd).Ssd.reads - reads_before in
  let reads_before = (Ssd.stats ssd).Ssd.reads in
  for i = 0 to 499 do
    ignore (Sstable.get ~use_bloom:false sst (Util.Keys.ycsb_key ((i * 2) + 1)))
  done;
  let without_bloom = (Ssd.stats ssd).Ssd.reads - reads_before in
  check Alcotest.bool
    (Printf.sprintf "bloom suppresses device reads (%d < %d)" with_bloom without_bloom)
    true
    (with_bloom < without_bloom / 5)

let test_block_cache_latency () =
  let clock, ssd = make () in
  let sst = Sstable.of_sorted_list ssd (entries 1000) in
  Sstable.attach_shared_cache sst (Cache.Block_cache.create ~clock ~capacity_bytes:(1 lsl 20) ());
  let probe = Util.Keys.ycsb_key 500 in
  let timed f = snd (Sim.Clock.time clock f) in
  let cold = timed (fun () -> ignore (Sstable.get sst probe)) in
  let warm = timed (fun () -> ignore (Sstable.get sst probe)) in
  check Alcotest.bool
    (Printf.sprintf "cache hit much faster (%.0fns vs %.0fns)" warm cold)
    true
    (warm < cold /. 5.0);
  Sstable.invalidate_cache sst;
  let cold2 = timed (fun () -> ignore (Sstable.get sst probe)) in
  check Alcotest.bool "dropping cache restores device reads" true (cold2 > warm *. 5.0)

(* Table I's "SSTable in cache" row: tables attached to one block cache
   larger than they are, each warmed by one full-range read, answer gets
   from DRAM alone — no SSD request, and all of the get's device time is
   cache-hit time. *)
let test_warmed_cache_serves_gets () =
  let clock, ssd = make () in
  let es = entries 3000 in
  let tables = [ Sstable.of_sorted_list ssd es; Sstable.of_sorted_list ssd es ] in
  let bytes = List.fold_left (fun acc t -> acc + Sstable.byte_size t) 0 tables in
  let cache = Cache.Block_cache.create ~clock ~capacity_bytes:(2 * bytes) () in
  List.iter (fun t -> Sstable.attach_shared_cache t cache) tables;
  List.iter (fun t -> Sstable.range t ~start:"" ~stop:"\255" ignore) tables;
  let blocks = List.fold_left (fun acc t -> acc + Sstable.block_count t) 0 tables in
  check Alcotest.int "every block resident" blocks (Cache.Block_cache.resident_blocks cache);
  let probes =
    List.concat_map (fun t -> List.filteri (fun i _ -> i mod 7 = 0) es |> List.map (fun e -> (t, e)))
      tables
  in
  Ssd.reset_stats ssd;
  Obs.Attr.enable ~clock;
  let served =
    List.map
      (fun (t, (e : Util.Kv.entry)) ->
        Obs.Attr.with_op Obs.Attr.Read (fun () -> Sstable.get t e.key))
      probes
  in
  let snap = Obs.Attr.snapshot () in
  Obs.Attr.disable ();
  let gets = List.length probes in
  check Alcotest.bool "every get served" true
    (List.for_all2 (fun (_, e) got -> got = Some e) probes served);
  check Alcotest.int "no SSD reads" 0 (Ssd.stats ssd).Ssd.reads;
  check Alcotest.int "one cache hit per get" gets
    (List.assoc Obs.Attr.Cache_hit snap.Obs.Attr.phase_counts);
  (* the index search and decode CPU are booked as Other *)
  List.iter
    (fun (phase, ns) ->
      if phase = Obs.Attr.Cache_hit then
        check Alcotest.bool "cache-hit time charged" true (ns > 0.0)
      else if phase <> Obs.Attr.Other then
        check (Alcotest.float 0.0) (Obs.Attr.phase_name phase ^ " time") 0.0 ns)
    snap.Obs.Attr.op_phases

let test_range () =
  let _, ssd = make () in
  let es = entries 300 in
  let sst = Sstable.of_sorted_list ssd es in
  let start = Util.Keys.ycsb_key 100 and stop = Util.Keys.ycsb_key 200 in
  let expected = List.filter (fun (e : Util.Kv.entry) -> e.key >= start && e.key < stop) es in
  let got = ref [] in
  Sstable.range sst ~start ~stop (fun e -> got := e :: !got);
  check Alcotest.int "range count" (List.length expected) (List.length !got)

let test_metadata_and_overlap () =
  let _, ssd = make () in
  let es = entries 50 in
  let sst = Sstable.of_sorted_list ssd es in
  check Alcotest.string "min" (Util.Keys.ycsb_key 0) (Sstable.min_key sst);
  check Alcotest.string "max" (Util.Keys.ycsb_key 98) (Sstable.max_key sst);
  check Alcotest.bool "overlap inside" true
    (Sstable.overlaps sst ~min:(Util.Keys.ycsb_key 10) ~max:(Util.Keys.ycsb_key 20));
  check Alcotest.bool "overlap outside" false
    (Sstable.overlaps sst ~min:(Util.Keys.ycsb_key 99) ~max:(Util.Keys.ycsb_key 200));
  (* a table bigger than one block splits *)
  let big = Sstable.of_sorted_list ssd (entries 500) in
  check Alcotest.bool "multi-block" true (Sstable.block_count big > 1)

let test_versions_within_table () =
  let _, ssd = make () in
  let es =
    [
      Util.Kv.entry ~key:"k" ~seq:9 "newest";
      Util.Kv.entry ~key:"k" ~seq:5 "older";
      Util.Kv.tombstone ~key:"m" ~seq:7;
    ]
    |> List.sort Util.Kv.compare_entry
  in
  let sst = Sstable.of_sorted_list ssd es in
  (match Sstable.get sst "k" with
  | Some e -> check Alcotest.string "newest version" "newest" e.Util.Kv.value
  | None -> Alcotest.fail "lost k");
  match Sstable.get sst "m" with
  | Some e -> check Alcotest.bool "tombstone surfaced" true (e.Util.Kv.kind = Util.Kv.Delete)
  | None -> Alcotest.fail "tombstone must be visible to reads"

let test_empty_rejected () =
  let _, ssd = make () in
  let b = Sstable.create_builder ssd in
  check Alcotest.bool "empty raises" true
    (try ignore (Sstable.finish b); false with Invalid_argument _ -> true)

let test_write_charged () =
  let clock, ssd = make () in
  let t0 = Sim.Clock.now clock in
  ignore (Sstable.of_sorted_list ssd (entries 500));
  check Alcotest.bool "build charges device time" true (Sim.Clock.now clock > t0);
  check Alcotest.bool "bytes accounted" true ((Ssd.stats ssd).Ssd.bytes_written > 0)

let prop_model =
  QCheck.Test.make ~name:"sstable get = model" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 100) (pair (string_of_size Gen.(int_range 1 16)) (string_of_size Gen.(int_range 0 40))))
    (fun pairs ->
      let _, ssd = make () in
      let entries =
        List.mapi (fun seq (key, value) -> Util.Kv.entry ~key ~seq value) pairs
        |> List.sort Util.Kv.compare_entry
      in
      let sst = Sstable.of_sorted_list ssd entries in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (e : Util.Kv.entry) ->
          match Hashtbl.find_opt model e.key with
          | Some (p : Util.Kv.entry) when p.seq >= e.seq -> ()
          | _ -> Hashtbl.replace model e.key e)
        entries;
      Hashtbl.fold
        (fun key (expected : Util.Kv.entry) acc ->
          acc
          &&
          match Sstable.get sst key with
          | Some got -> got.Util.Kv.seq = expected.seq
          | None -> false)
        model true)


let test_checksum_detects_corruption () =
  let _, ssd = make () in
  let sst = Sstable.of_sorted_list ssd (entries 200) in
  (* healthy read first *)
  check Alcotest.bool "clean read works" true (Sstable.get sst (Util.Keys.ycsb_key 100) <> None);
  (* flip a byte inside the first data block *)
  let file = Option.get (Ssd.find_file ssd (Sstable.file_id sst)) in
  Ssd.corrupt_file ssd file ~off:10;
  check Alcotest.bool "corrupted block detected" true
    (try ignore (Sstable.get sst (Util.Keys.ycsb_key 0)); false
     with Sstable.Corrupted_block _ -> true);
  (* blocks further in are unaffected *)
  check Alcotest.bool "other blocks still readable" true
    (Sstable.get sst (Util.Keys.ycsb_key 398) <> None)

let test_versions_straddle_blocks () =
  (* Tiny blocks split one key's ten versions over several blocks; the
     block [get] locates must still hold the newest one. *)
  let _, ssd = make () in
  let es =
    Util.Kv.entry ~key:"a" ~seq:1 "first"
    :: Util.Kv.entry ~key:"z" ~seq:2 "last"
    :: List.init 10 (fun i ->
        Util.Kv.entry ~key:"k" ~seq:(i + 10) (Printf.sprintf "version-%02d-%s" i (String.make 20 'v')))
    |> List.sort Util.Kv.compare_entry
  in
  let sst = Sstable.of_sorted_list ~block_bytes:64 ssd es in
  check Alcotest.bool "versions span blocks" true (Sstable.block_count sst >= 3);
  match Sstable.get sst "k" with
  | Some e -> check Alcotest.int "newest version" 19 e.Util.Kv.seq
  | None -> Alcotest.fail "lost k"

let test_build_is_one_write () =
  let _, ssd = make () in
  let sst = Sstable.of_sorted_list ssd (entries 2000) in
  let s = Ssd.stats ssd in
  check Alcotest.bool "multi-block" true (Sstable.block_count sst > 4);
  check Alcotest.int "one write request" 1 s.Ssd.writes;
  check Alcotest.int "the whole table" (Sstable.byte_size sst) s.Ssd.bytes_written

let test_to_list_one_read_bypasses_cache () =
  let _, ssd = make () in
  let es = entries 2000 in
  let sst = Sstable.of_sorted_list ssd es in
  let cache = Cache.Block_cache.create ~capacity_bytes:(1 lsl 20) () in
  Sstable.attach_shared_cache sst cache;
  (* warm one block so the cache holds something to (not) hit *)
  ignore (Sstable.get sst (Util.Keys.ycsb_key 0));
  let hits = Cache.Block_cache.hits cache
  and misses = Cache.Block_cache.misses cache
  and resident = Cache.Block_cache.resident_bytes cache in
  Ssd.reset_stats ssd;
  let got = Sstable.to_list sst in
  check Alcotest.bool "entries intact" true (got = es);
  check Alcotest.int "one read request" 1 (Ssd.stats ssd).Ssd.reads;
  check Alcotest.int "cache hits unchanged" hits (Cache.Block_cache.hits cache);
  check Alcotest.int "cache misses unchanged" misses (Cache.Block_cache.misses cache);
  check Alcotest.int "cache residency unchanged" resident
    (Cache.Block_cache.resident_bytes cache)

let test_to_list_names_corrupted_block () =
  let _, ssd = make () in
  let sst = Sstable.of_sorted_list ssd (entries 2000) in
  (* mid-file lands in a data block past the first; the scrub walk names it *)
  let file = Option.get (Ssd.find_file ssd (Sstable.file_id sst)) in
  Ssd.corrupt_file ssd file ~off:(Sstable.byte_size sst / 2);
  let k =
    match Sstable.verify sst with
    | [ k ] when k > 0 -> k
    | bad ->
        Alcotest.failf "scrub should name one data block past the first, got [%s]"
          (String.concat "; " (List.map string_of_int bad))
  in
  match Sstable.to_list sst with
  | _ -> Alcotest.fail "corruption went undetected"
  | exception Sstable.Corrupted_block { block; _ } ->
      check Alcotest.int "failing block named" k block

(* --- Cursors ---------------------------------------------------------------- *)

(* Sorted entries with repeated keys (several versions each), values of
   varied length, and a block size small enough for many blocks. *)
let table_gen =
  QCheck.(
    pair (int_range 48 512)
      (list_of_size Gen.(int_range 1 120)
         (pair (string_gen_of_size Gen.(int_range 1 3) Gen.(char_range 'a' 'f'))
            (string_of_size Gen.(int_range 0 60)))))

let sorted_entries pairs =
  List.mapi (fun seq (key, value) -> Util.Kv.entry ~key ~seq value) pairs
  |> List.sort Util.Kv.compare_entry

let drain c =
  let rec go acc = match Sstable.next c with Some e -> go (e :: acc) | None -> List.rev acc in
  go []

(* A fresh device and table: the same inputs give the same absolute clock,
   so two setups compare bit for bit. *)
let fresh_table ~block_bytes es =
  let clock, ssd = make () in
  let sst = Sstable.of_sorted_list ~block_bytes ssd es in
  Ssd.reset_stats ssd;
  (clock, ssd, sst)

(* A cursor pays at open exactly what the list read pays, in the same
   order, and draining it charges nothing more: one read request, then one
   25 ns decode charge per entry. *)
let prop_cursor_matches_to_list =
  QCheck.Test.make ~name:"cursor drain = to_list, same clock" ~count:100 table_gen
    (fun (block_bytes, pairs) ->
      let es = sorted_entries pairs in
      let clock_a, _, a = fresh_table ~block_bytes es in
      let listed = Sstable.to_list a in
      let clock_b, ssd_b, b = fresh_table ~block_bytes es in
      let t0 = Sim.Clock.now clock_b in
      let c = Sstable.cursor b in
      let opened = Sim.Clock.now clock_b in
      let drained = drain c in
      let stats = Ssd.stats ssd_b in
      let model =
        stats.Ssd.reads = 1
        && opened
           = List.fold_left
               (fun acc _ -> acc +. 25.0)
               (t0 +. Ssd.service_time ssd_b Ssd.Read stats.Ssd.bytes_read)
               es
      in
      listed = es && drained = es
      && Sim.Clock.now clock_a = Sim.Clock.now clock_b
      && Sim.Clock.now clock_b = opened && model)

(* Damage anywhere in the file: the cursor refuses at open with the first
   data block the scrub walk names, and reads through damage to the meta
   block (its index is pinned in the handle). *)
let prop_cursor_names_corrupted_block =
  QCheck.Test.make ~name:"cursor names the corrupted block" ~count:100
    QCheck.(pair (int_range 0 1_000_000) table_gen)
    (fun (at, (block_bytes, pairs)) ->
      let es = sorted_entries pairs in
      let _, ssd, sst = fresh_table ~block_bytes es in
      let file = Option.get (Ssd.find_file ssd (Sstable.file_id sst)) in
      Ssd.corrupt_file ssd file ~off:(at mod Sstable.byte_size sst);
      match (List.filter (fun i -> i >= 0) (Sstable.verify sst), Sstable.cursor sst) with
      | [], c -> drain c = es
      | _ :: _, _ -> false
      | exception Sstable.Corrupted_block { block; _ } ->
          List.filter (fun i -> i >= 0) (Sstable.verify sst) = [ block ])

let () =
  Alcotest.run "sstable"
    [
      ( "sstable",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "absent keys" `Quick test_absent_keys;
          Alcotest.test_case "bloom saves reads" `Quick test_bloom_saves_reads;
          Alcotest.test_case "block cache latency" `Quick test_block_cache_latency;
          Alcotest.test_case "warmed cache serves gets from DRAM" `Quick
            test_warmed_cache_serves_gets;
          Alcotest.test_case "range" `Quick test_range;
          Alcotest.test_case "metadata + overlap" `Quick test_metadata_and_overlap;
          Alcotest.test_case "versions within table" `Quick test_versions_within_table;
          Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
          Alcotest.test_case "writes charged" `Quick test_write_charged;
          Alcotest.test_case "checksum detects corruption" `Quick test_checksum_detects_corruption;
          Alcotest.test_case "versions straddle blocks" `Quick test_versions_straddle_blocks;
          Alcotest.test_case "build is one write" `Quick test_build_is_one_write;
          Alcotest.test_case "to_list one read, cache untouched" `Quick
            test_to_list_one_read_bypasses_cache;
          Alcotest.test_case "to_list names corrupted block" `Quick
            test_to_list_names_corrupted_block;
          qtest prop_model;
          qtest prop_cursor_matches_to_list;
          qtest prop_cursor_names_corrupted_block;
        ] );
    ]
