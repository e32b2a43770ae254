(* Tests for the four level-0 table structures: model equivalence for every
   kind, ordering, ranges, version semantics, compression accounting, and
   the cost asymmetries the paper's Fig. 6 relies on. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let all_kinds =
  [
    ("pm", Pmtable.Table.Pm_compressed);
    ("array", Pmtable.Table.Array_plain);
    ("snappy", Pmtable.Table.Array_snappy);
    ("snappy-group", Pmtable.Table.Array_snappy_group);
  ]

let make_dev () =
  let clock = Sim.Clock.create () in
  (clock, Pmem.create clock)

(* Entries over mixed database/YCSB keys with duplicate keys (versions). *)
let make_entries n =
  let rng = Util.Xoshiro.create 71 in
  let entries = ref [] in
  for seq = 1 to n do
    let key =
      match Util.Xoshiro.int rng 3 with
      | 0 -> Util.Keys.record_key ~table_id:(Util.Xoshiro.int rng 3) ~row_id:(Util.Xoshiro.int rng (n / 2))
      | 1 ->
          Util.Keys.index_key ~table_id:(Util.Xoshiro.int rng 3) ~index_id:(Util.Xoshiro.int rng 2)
            ~column:("c" ^ Util.Keys.fixed_int ~width:4 (Util.Xoshiro.int rng 50))
            ~row_id:(Util.Xoshiro.int rng (n / 2))
      | _ -> Util.Keys.ycsb_key (Util.Xoshiro.int rng (n / 2))
    in
    let kind = if Util.Xoshiro.int rng 10 = 0 then Util.Kv.Delete else Util.Kv.Put in
    entries := { Util.Kv.key; seq; kind; value = Util.Xoshiro.string rng 24 } :: !entries
  done;
  List.sort Util.Kv.compare_entry !entries

(* Reference: newest version per key. *)
let newest_by_key entries =
  let model = Hashtbl.create 64 in
  List.iter
    (fun (e : Util.Kv.entry) ->
      match Hashtbl.find_opt model e.key with
      | Some (prev : Util.Kv.entry) when prev.seq >= e.seq -> ()
      | _ -> Hashtbl.replace model e.key e)
    entries;
  model

let test_model_equivalence (name, kind) () =
  let _, dev = make_dev () in
  let entries = make_entries 600 in
  let tbl = Pmtable.Table.of_sorted_list dev ~kind entries in
  let model = newest_by_key entries in
  Hashtbl.iter
    (fun key (expected : Util.Kv.entry) ->
      match Pmtable.Table.get tbl key with
      | Some got ->
          check Alcotest.int (name ^ " newest seq for " ^ key) expected.seq got.Util.Kv.seq
      | None -> Alcotest.failf "%s lost key %s" name key)
    model;
  check (Alcotest.option Alcotest.string) (name ^ " absent key") None
    (Option.map (fun (e : Util.Kv.entry) -> e.key) (Pmtable.Table.get tbl "zzz-absent"))

let test_iter_sorted_and_complete (name, kind) () =
  let _, dev = make_dev () in
  let entries = make_entries 400 in
  let tbl = Pmtable.Table.of_sorted_list dev ~kind entries in
  let got = Pmtable.Table.to_list tbl in
  check Alcotest.int (name ^ " count") (List.length entries) (List.length got);
  check Alcotest.bool (name ^ " identical stream") true
    (List.for_all2 (fun (a : Util.Kv.entry) b -> a = b) entries got)

let test_range (name, kind) () =
  let _, dev = make_dev () in
  let entries = make_entries 400 in
  let tbl = Pmtable.Table.of_sorted_list dev ~kind entries in
  let start = "t0001" and stop = "t0002" in
  let expected =
    List.filter (fun (e : Util.Kv.entry) -> e.key >= start && e.key < stop) entries
  in
  let got = ref [] in
  Pmtable.Table.range tbl ~start ~stop (fun e -> got := e :: !got);
  let got = List.rev !got in
  check Alcotest.int (name ^ " range count") (List.length expected) (List.length got);
  check Alcotest.bool (name ^ " range stream") true
    (List.for_all2 (fun (a : Util.Kv.entry) b -> a = b) expected got)

let test_metadata (name, kind) () =
  let _, dev = make_dev () in
  let entries = make_entries 100 in
  let tbl = Pmtable.Table.of_sorted_list dev ~kind entries in
  let first = List.hd entries and last = List.nth entries (List.length entries - 1) in
  check Alcotest.string (name ^ " min key") first.Util.Kv.key (Pmtable.Table.min_key tbl);
  check Alcotest.string (name ^ " max key") last.Util.Kv.key (Pmtable.Table.max_key tbl);
  check Alcotest.int (name ^ " count") (List.length entries) (Pmtable.Table.count tbl);
  let min_seq, max_seq = Pmtable.Table.seq_range tbl in
  check Alcotest.bool (name ^ " seq range sane") true (min_seq >= 1 && max_seq <= 600)

let test_free_releases (name, kind) () =
  let _, dev = make_dev () in
  let entries = make_entries 100 in
  let before = Pmem.used dev in
  let tbl = Pmtable.Table.of_sorted_list dev ~kind entries in
  check Alcotest.bool (name ^ " allocates") true (Pmem.used dev > before);
  Pmtable.Table.free tbl;
  check Alcotest.int (name ^ " frees") before (Pmem.used dev)

(* Version spill across group boundaries: many versions of one key. *)
let test_version_pileup (name, kind) () =
  let _, dev = make_dev () in
  let hot = Util.Keys.record_key ~table_id:1 ~row_id:42 in
  let entries =
    List.init 50 (fun i -> Util.Kv.entry ~key:hot ~seq:(50 - i) (Printf.sprintf "v%d" (50 - i)))
    @ [ Util.Kv.entry ~key:(Util.Keys.record_key ~table_id:1 ~row_id:100) ~seq:99 "other" ]
  in
  let entries = List.sort Util.Kv.compare_entry entries in
  let tbl = Pmtable.Table.of_sorted_list dev ~kind entries in
  (match Pmtable.Table.get tbl hot with
  | Some e -> check Alcotest.int (name ^ " newest of pileup") 50 e.Util.Kv.seq
  | None -> Alcotest.failf "%s lost hot key" name);
  match Pmtable.Table.get tbl (Util.Keys.record_key ~table_id:1 ~row_id:100) with
  | Some e -> check Alcotest.string (name ^ " other key") "other" e.Util.Kv.value
  | None -> Alcotest.failf "%s lost other key" name

let test_single_entry (name, kind) () =
  let _, dev = make_dev () in
  let e = Util.Kv.entry ~key:"only" ~seq:1 "v" in
  let tbl = Pmtable.Table.of_sorted_list dev ~kind [ e ] in
  check Alcotest.bool (name ^ " found") true (Pmtable.Table.get tbl "only" <> None);
  check Alcotest.bool (name ^ " absent below") true (Pmtable.Table.get tbl "aaa" = None);
  check Alcotest.bool (name ^ " absent above") true (Pmtable.Table.get tbl "zzz" = None)

let test_empty_rejected (name, kind) () =
  let _, dev = make_dev () in
  check Alcotest.bool (name ^ " empty raises") true
    (try ignore (Pmtable.Table.build dev ~kind [||]); false with Invalid_argument _ -> true)

(* --- Paper-specific properties ------------------------------------------- *)

let test_pm_table_compresses () =
  let _, dev = make_dev () in
  (* 120-byte index-style keys, like the paper's index-table dataset. *)
  let entries =
    List.init 512 (fun i ->
        Util.Kv.entry
          ~key:
            (Util.Keys.index_key ~table_id:1 ~index_id:1
               ~column:("city-shanghai-pudong-" ^ Util.Keys.fixed_int ~width:8 (i / 7) ^ String.make 80 'x')
               ~row_id:i)
          ~seq:(i + 1) (Util.Xoshiro.string (Util.Xoshiro.create i) 16))
    |> List.sort Util.Kv.compare_entry
  in
  let tbl = Pmtable.Table.of_sorted_list dev ~kind:Pmtable.Table.Pm_compressed entries in
  let ratio =
    float_of_int (Pmtable.Table.byte_size tbl) /. float_of_int (Pmtable.Table.payload_bytes tbl)
  in
  check Alcotest.bool (Printf.sprintf "compression ratio %.2f < 0.85" ratio) true (ratio < 0.85)

let test_pm_table_faster_build_than_array () =
  let clock, dev = make_dev () in
  let entries = make_entries 2000 in
  let t0 = Sim.Clock.now clock in
  let pm_tbl = Pmtable.Table.of_sorted_list dev ~kind:Pmtable.Table.Pm_compressed entries in
  let pm_build = Sim.Clock.now clock -. t0 in
  let t1 = Sim.Clock.now clock in
  let arr_tbl = Pmtable.Table.of_sorted_list dev ~kind:Pmtable.Table.Array_plain entries in
  let array_build = Sim.Clock.now clock -. t1 in
  check Alcotest.bool "compressed table builds faster (fewer PM bytes)" true
    (pm_build < array_build);
  Pmtable.Table.free pm_tbl;
  Pmtable.Table.free arr_tbl

let test_snappy_read_slower_than_array () =
  let clock, dev = make_dev () in
  let entries = make_entries 1000 in
  let arr = Pmtable.Table.of_sorted_list dev ~kind:Pmtable.Table.Array_plain entries in
  let snap = Pmtable.Table.of_sorted_list dev ~kind:Pmtable.Table.Array_snappy entries in
  let probe_keys =
    List.filteri (fun i _ -> i mod 7 = 0) entries
    |> List.map (fun (e : Util.Kv.entry) -> e.key)
  in
  let time_gets tbl =
    let t0 = Sim.Clock.now clock in
    List.iter (fun k -> ignore (Pmtable.Table.get tbl k)) probe_keys;
    Sim.Clock.now clock -. t0
  in
  let arr_time = time_gets arr in
  let snap_time = time_gets snap in
  check Alcotest.bool "snappy reads slower (decompression per probe)" true
    (snap_time > arr_time)

let test_snappy_group_builds_faster_than_per_pair () =
  let clock, dev = make_dev () in
  let entries = make_entries 2000 in
  let t0 = Sim.Clock.now clock in
  ignore (Pmtable.Table.of_sorted_list dev ~kind:Pmtable.Table.Array_snappy entries);
  let per_pair = Sim.Clock.now clock -. t0 in
  let t1 = Sim.Clock.now clock in
  ignore (Pmtable.Table.of_sorted_list dev ~kind:Pmtable.Table.Array_snappy_group entries);
  let grouped = Sim.Clock.now clock -. t1 in
  check Alcotest.bool "group compression builds faster" true (grouped < per_pair)

let prop_pm_table_model =
  QCheck.Test.make ~name:"pm table get = model over random keysets" ~count:60
    QCheck.(list_of_size Gen.(int_range 1 150) (pair (string_of_size Gen.(int_range 1 24)) (string_of_size Gen.(int_range 0 30))))
    (fun pairs ->
      let _, dev = make_dev () in
      let entries =
        List.mapi (fun seq (key, value) -> Util.Kv.entry ~key ~seq value) pairs
        |> List.sort Util.Kv.compare_entry
      in
      let tbl = Pmtable.Table.of_sorted_list dev ~kind:Pmtable.Table.Pm_compressed entries in
      let model = newest_by_key entries in
      Hashtbl.fold
        (fun key (expected : Util.Kv.entry) acc ->
          acc
          &&
          match Pmtable.Table.get tbl key with
          | Some got -> got.Util.Kv.seq = expected.seq
          | None -> false)
        model true)

(* --- Format v2: persisted Bloom filters ----------------------------------- *)

let sorted_ycsb n =
  Array.init n (fun i ->
      Util.Kv.entry ~key:(Util.Keys.ycsb_key i) ~seq:(i + 1) (Printf.sprintf "v%05d" i))

let reopen dev t =
  let region = Option.get (Pmem.find_region dev (Pmtable.Pm_table.region_id t)) in
  Pmtable.Pm_table.open_existing dev region

let test_v1_roundtrip_no_bloom () =
  let _, dev = make_dev () in
  let t = Pmtable.Pm_table.build ~bloom_bits_per_key:0 dev (sorted_ycsb 300) in
  check Alcotest.bool "v1 build carries no bloom" false (Pmtable.Pm_table.has_bloom t);
  let r = reopen dev t in
  check Alcotest.bool "v1 reopens without bloom" false (Pmtable.Pm_table.has_bloom r);
  check Alcotest.int "count survives" 300 (Pmtable.Pm_table.count r);
  for i = 0 to 299 do
    match Pmtable.Pm_table.get r (Util.Keys.ycsb_key i) with
    | Some e -> check Alcotest.int "seq" (i + 1) e.Util.Kv.seq
    | None -> Alcotest.failf "v1 reopen lost rank %d" i
  done

let test_v2_roundtrip_with_bloom () =
  let _, dev = make_dev () in
  let t = Pmtable.Pm_table.build dev (sorted_ycsb 300) in
  check Alcotest.bool "v2 build carries bloom" true (Pmtable.Pm_table.has_bloom t);
  check Alcotest.bool "clean table verifies" true (Pmtable.Pm_table.verify t = []);
  let r = reopen dev t in
  check Alcotest.bool "v2 reopens with bloom" true (Pmtable.Pm_table.has_bloom r);
  for i = 0 to 299 do
    match Pmtable.Pm_table.get r (Util.Keys.ycsb_key i) with
    | Some e -> check Alcotest.int "seq" (i + 1) e.Util.Kv.seq
    | None -> Alcotest.failf "v2 reopen lost rank %d" i
  done;
  (* absent keys inside the range never come back present *)
  for i = 0 to 298 do
    check Alcotest.bool "absent stays absent" true
      (Pmtable.Pm_table.get r (Util.Keys.ycsb_key i ^ "x") = None)
  done

let test_bloom_screens_pm_reads () =
  let _, dev = make_dev () in
  let t = Pmtable.Pm_table.build dev (sorted_ycsb 1000) in
  let stats = Pmem.stats dev in
  let miss use_bloom =
    let r0 = stats.Pmem.reads in
    for i = 0 to 499 do
      ignore (Pmtable.Pm_table.get ~use_bloom t (Util.Keys.ycsb_key i ^ "x"))
    done;
    stats.Pmem.reads - r0
  in
  let with_bloom = miss true in
  let without_bloom = miss false in
  check Alcotest.bool
    (Printf.sprintf "bloom suppresses PM reads (%d < %d)" with_bloom without_bloom)
    true
    (with_bloom < without_bloom / 5);
  check Alcotest.bool "probes counted" true (!Pmtable.Pm_table.bloom_probes > 0);
  check Alcotest.bool "negatives counted" true (!Pmtable.Pm_table.bloom_negatives > 0)

(* --- group invariants: one key's versions share a group, a group fits
   one SSD block, a point read decodes one group --- *)

let versions key ~from n ~value_bytes =
  List.init n (fun i ->
      Util.Kv.entry ~key ~seq:(from + n - i) (String.make value_bytes (Char.chr (97 + (i mod 26)))))

let test_version_run_one_group () =
  let _, dev = make_dev () in
  let single prefix i = Util.Kv.entry ~key:(Printf.sprintf "%s%02d" prefix i) ~seq:1 "v" in
  let entries =
    Array.of_list
      (List.init 10 (single "a") @ versions "k" ~from:100 20 ~value_bytes:8
      @ List.init 10 (single "z"))
  in
  let t = Pmtable.Pm_table.build ~group_size:8 dev entries in
  check Alcotest.bool "the 20 versions share one group" true
    (List.exists (fun (n, _) -> n = 20) (Pmtable.Pm_table.groups t));
  (match Pmtable.Pm_table.get t "k" with
  | Some e -> check Alcotest.int "get: newest version" 120 e.Util.Kv.seq
  | None -> Alcotest.fail "get lost the key");
  let from_range = ref [] in
  Pmtable.Pm_table.range t ~start:"k" ~stop:"k\000" (fun e -> from_range := e :: !from_range);
  (match List.rev !from_range with
  | e :: _ -> check Alcotest.int "range: newest version first" 120 e.Util.Kv.seq
  | [] -> Alcotest.fail "range lost the key");
  check Alcotest.int "range: every version" 20 (List.length !from_range)

let test_group_fits_one_block () =
  let _, dev = make_dev () in
  (* 1 KiB values: eight would fill two blocks; one key's 6 versions
     (6 KiB) cannot be split and may pass the block alone *)
  let entries =
    Array.of_list
      (List.concat
         (List.init 40 (fun i ->
              let key = Util.Keys.ycsb_key i in
              if i = 17 then versions key ~from:1000 6 ~value_bytes:1024
              else versions key ~from:(10 * i) (1 + (i mod 2)) ~value_bytes:1024)))
  in
  let t = Pmtable.Pm_table.build ~group_size:8 dev entries in
  let groups = Pmtable.Pm_table.groups t in
  let over = List.filter (fun (_, bytes) -> bytes > Pmtable.Pm_table.max_group_bytes) groups in
  check Alcotest.(list int) "only the 6-version run passes the block" [ 6 ] (List.map fst over);
  check Alcotest.bool "groups closed by bytes, not count" true
    (List.for_all (fun (n, _) -> n < 8) groups);
  check Alcotest.int "the block is the SSD's" Sstable.default_block_bytes
    Pmtable.Pm_table.max_group_bytes

let test_get_reads_one_group () =
  let _, dev = make_dev () in
  let t = Pmtable.Pm_table.build ~group_size:8 dev (sorted_ycsb 100) in
  for i = 0 to 99 do
    let reads0 = !Pmtable.Pm_table.group_reads in
    (match Pmtable.Pm_table.get t (Util.Keys.ycsb_key i) with
    | Some e -> check Alcotest.int "seq" (i + 1) e.Util.Kv.seq
    | None -> Alcotest.failf "lost rank %d" i);
    check Alcotest.int
      (Printf.sprintf "rank %d (%s a group): one group read" i
         (if i mod 8 = 0 then "opens" else "inside"))
      1
      (!Pmtable.Pm_table.group_reads - reads0)
  done

let per_kind name f =
  List.map (fun (kname, kind) -> Alcotest.test_case (name ^ " [" ^ kname ^ "]") `Quick (f (kname, kind))) all_kinds

let () =
  Alcotest.run "pmtable"
    [
      ( "all kinds",
        per_kind "model equivalence" test_model_equivalence
        @ per_kind "iter sorted+complete" test_iter_sorted_and_complete
        @ per_kind "range" test_range
        @ per_kind "metadata" test_metadata
        @ per_kind "free releases" test_free_releases
        @ per_kind "version pileup" test_version_pileup
        @ per_kind "single entry" test_single_entry
        @ per_kind "empty rejected" test_empty_rejected );
      ( "paper properties",
        [
          Alcotest.test_case "pm table compresses index keys" `Quick test_pm_table_compresses;
          Alcotest.test_case "pm table builds faster than array" `Quick test_pm_table_faster_build_than_array;
          Alcotest.test_case "snappy reads slower than array" `Quick test_snappy_read_slower_than_array;
          Alcotest.test_case "snappy-group builds faster" `Quick test_snappy_group_builds_faster_than_per_pair;
          qtest prop_pm_table_model;
        ] );
      ( "format & bloom",
        [
          Alcotest.test_case "v1 roundtrip (no bloom)" `Quick test_v1_roundtrip_no_bloom;
          Alcotest.test_case "v2 roundtrip (bloom persisted)" `Quick
            test_v2_roundtrip_with_bloom;
          Alcotest.test_case "bloom screens PM reads" `Quick test_bloom_screens_pm_reads;
        ] );
      ( "groups",
        [
          Alcotest.test_case "version run stays in one group" `Quick
            test_version_run_one_group;
          Alcotest.test_case "group fits one SSD block" `Quick test_group_fits_one_block;
          Alcotest.test_case "get reads one group" `Quick test_get_reads_one_group;
        ] );
    ]
