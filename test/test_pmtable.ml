(* Tests for the four PM table structures: model equivalence for every
   kind, ordering, ranges, version semantics, compression accounting, and
   the cost asymmetries the paper's Fig. 6 relies on. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* One built table behind the reads the shared cases make: the engine's two
   kinds through its handle, Fig. 6's snappy baselines directly. *)
type table = {
  get : string -> Util.Kv.entry option;
  iter : (Util.Kv.entry -> unit) -> unit;
  to_list : unit -> Util.Kv.entry list;
  range : start:string -> stop:string -> (Util.Kv.entry -> unit) -> unit;
  min_key : string;
  max_key : string;
  count : int;
  free : unit -> unit;
  region_id : int;
  salvage : unit -> Util.Kv.entry list * (string * string) option;
}

let handle kind dev entries =
  let t = Pmtable.Table.build dev ~kind entries in
  {
    get = Pmtable.Table.get t;
    iter = Pmtable.Table.iter t;
    to_list = (fun () -> Pmtable.Table.to_list t);
    range = Pmtable.Table.range t;
    min_key = Pmtable.Table.min_key t;
    max_key = Pmtable.Table.max_key t;
    count = Pmtable.Table.count t;
    free = (fun () -> Pmtable.Table.free t);
    region_id = Pmtable.Table.region_id t;
    salvage = (fun () -> Pmtable.Table.salvage_entries t);
  }

let snappy mode dev entries =
  let t = Pmtable.Snappy_table.build ~mode dev entries in
  {
    get = Pmtable.Snappy_table.get t;
    iter = Pmtable.Snappy_table.iter t;
    to_list = (fun () -> Pmtable.Snappy_table.to_list t);
    range = Pmtable.Snappy_table.range t;
    min_key = Pmtable.Snappy_table.min_key t;
    max_key = Pmtable.Snappy_table.max_key t;
    count = Pmtable.Snappy_table.count t;
    free = (fun () -> Pmtable.Snappy_table.free t);
    region_id = Pmtable.Snappy_table.region_id t;
    salvage = (fun () -> (Pmtable.Snappy_table.to_list t, None));
  }

let all_kinds =
  [
    ("pm", handle Pmtable.Table.Pm_compressed);
    ("array", handle Pmtable.Table.Array_plain);
    ("snappy", snappy Pmtable.Snappy_table.Per_pair);
    ("snappy-group", snappy (Pmtable.Snappy_table.Grouped 8));
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

let test_model_equivalence (name, build) () =
  let _, dev = make_dev () in
  let entries = make_entries 600 in
  let tbl = build dev (Array.of_list entries) in
  let model = newest_by_key entries in
  Hashtbl.iter
    (fun key (expected : Util.Kv.entry) ->
      match tbl.get key with
      | Some got ->
          check Alcotest.int (name ^ " newest seq for " ^ key) expected.seq got.Util.Kv.seq
      | None -> Alcotest.failf "%s lost key %s" name key)
    model;
  check (Alcotest.option Alcotest.string) (name ^ " absent key") None
    (Option.map (fun (e : Util.Kv.entry) -> e.key) (tbl.get "zzz-absent"))

let test_iter_sorted_and_complete (name, build) () =
  let _, dev = make_dev () in
  let entries = make_entries 400 in
  let tbl = build dev (Array.of_list entries) in
  let got = tbl.to_list () in
  check Alcotest.int (name ^ " count") (List.length entries) (List.length got);
  check Alcotest.bool (name ^ " identical stream") true
    (List.for_all2 (fun (a : Util.Kv.entry) b -> a = b) entries got)

let test_range (name, build) () =
  let _, dev = make_dev () in
  let entries = make_entries 400 in
  let tbl = build dev (Array.of_list entries) in
  let start = "t0001" and stop = "t0002" in
  let expected =
    List.filter (fun (e : Util.Kv.entry) -> e.key >= start && e.key < stop) entries
  in
  let got = ref [] in
  tbl.range ~start ~stop (fun e -> got := e :: !got);
  let got = List.rev !got in
  check Alcotest.int (name ^ " range count") (List.length expected) (List.length got);
  check Alcotest.bool (name ^ " range stream") true
    (List.for_all2 (fun (a : Util.Kv.entry) b -> a = b) expected got)

let test_metadata (name, build) () =
  let _, dev = make_dev () in
  let entries = make_entries 100 in
  let tbl = build dev (Array.of_list entries) in
  let first = List.hd entries and last = List.nth entries (List.length entries - 1) in
  check Alcotest.string (name ^ " min key") first.Util.Kv.key tbl.min_key;
  check Alcotest.string (name ^ " max key") last.Util.Kv.key tbl.max_key;
  check Alcotest.int (name ^ " count") (List.length entries) tbl.count

let test_free_releases (name, build) () =
  let _, dev = make_dev () in
  let entries = make_entries 100 in
  let before = Pmem.used dev in
  let tbl = build dev (Array.of_list entries) in
  check Alcotest.bool (name ^ " allocates") true (Pmem.used dev > before);
  tbl.free ();
  check Alcotest.int (name ^ " frees") before (Pmem.used dev)

(* Version spill across group boundaries: many versions of one key. *)
let test_version_pileup (name, build) () =
  let _, dev = make_dev () in
  let hot = Util.Keys.record_key ~table_id:1 ~row_id:42 in
  let entries =
    List.init 50 (fun i -> Util.Kv.entry ~key:hot ~seq:(50 - i) (Printf.sprintf "v%d" (50 - i)))
    @ [ Util.Kv.entry ~key:(Util.Keys.record_key ~table_id:1 ~row_id:100) ~seq:99 "other" ]
  in
  let entries = List.sort Util.Kv.compare_entry entries in
  let tbl = build dev (Array.of_list entries) in
  (match tbl.get hot with
  | Some e -> check Alcotest.int (name ^ " newest of pileup") 50 e.Util.Kv.seq
  | None -> Alcotest.failf "%s lost hot key" name);
  match tbl.get (Util.Keys.record_key ~table_id:1 ~row_id:100) with
  | Some e -> check Alcotest.string (name ^ " other key") "other" e.Util.Kv.value
  | None -> Alcotest.failf "%s lost other key" name

let test_single_entry (name, build) () =
  let _, dev = make_dev () in
  let e = Util.Kv.entry ~key:"only" ~seq:1 "v" in
  let tbl = build dev [| e |] in
  check Alcotest.bool (name ^ " found") true (tbl.get "only" <> None);
  check Alcotest.bool (name ^ " absent below") true (tbl.get "aaa" = None);
  check Alcotest.bool (name ^ " absent above") true (tbl.get "zzz" = None)

let test_empty_rejected (name, build) () =
  let _, dev = make_dev () in
  check Alcotest.bool (name ^ " empty raises") true
    (try ignore (build dev [||]); false with Invalid_argument _ -> true)

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
  let snap = Pmtable.Snappy_table.build dev (Array.of_list entries) in
  let probe_keys =
    List.filteri (fun i _ -> i mod 7 = 0) entries
    |> List.map (fun (e : Util.Kv.entry) -> e.key)
  in
  let time_gets get =
    let t0 = Sim.Clock.now clock in
    List.iter (fun k -> ignore (get k)) probe_keys;
    Sim.Clock.now clock -. t0
  in
  let arr_time = time_gets (Pmtable.Table.get arr) in
  let snap_time = time_gets (Pmtable.Snappy_table.get snap) in
  check Alcotest.bool "snappy reads slower (decompression per probe)" true
    (snap_time > arr_time)

let test_snappy_group_builds_faster_than_per_pair () =
  let clock, dev = make_dev () in
  let entries = make_entries 2000 in
  let t0 = Sim.Clock.now clock in
  let entries = Array.of_list entries in
  ignore (Pmtable.Snappy_table.build ~mode:Per_pair dev entries);
  let per_pair = Sim.Clock.now clock -. t0 in
  let t1 = Sim.Clock.now clock in
  ignore (Pmtable.Snappy_table.build ~mode:(Grouped 8) dev entries);
  let grouped = Sim.Clock.now clock -. t1 in
  check Alcotest.bool "group compression builds faster" true (grouped < per_pair)

(* Two inputs: arbitrary byte keys, and database-style keys "t0001r<n>"
   drawn from a small id space, so keys carry several versions and ids
   like r12 and r123 share a group prefix, differing only in suffix
   length. Besides every stored key, the probes include each key with a
   byte appended and with its last byte dropped; absent probes must come
   back absent. *)
let prop_pm_table_model =
  let with_value key = QCheck.Gen.(pair key (string_size (int_range 0 30))) in
  let keysets =
    QCheck.Gen.(
      oneof
        [
          list_size (int_range 1 150) (with_value (string_size (int_range 1 24)));
          list_size (int_range 1 150)
            (with_value (map (fun r -> "t0001r" ^ string_of_int r) (int_bound 200)));
        ])
  in
  QCheck.Test.make ~name:"pm table get = model over random keysets" ~count:60
    (QCheck.make ~print:QCheck.Print.(list (pair string string)) keysets)
    (fun pairs ->
      let _, dev = make_dev () in
      let entries =
        List.mapi (fun seq (key, value) -> Util.Kv.entry ~key ~seq value) pairs
        |> List.sort Util.Kv.compare_entry
      in
      let tbl = Pmtable.Table.of_sorted_list dev ~kind:Pmtable.Table.Pm_compressed entries in
      let model = newest_by_key entries in
      let agrees probe =
        match (Pmtable.Table.get tbl probe, Hashtbl.find_opt model probe) with
        | Some got, Some (expected : Util.Kv.entry) ->
            got.Util.Kv.key = probe && got.seq = expected.seq && got.value = expected.value
        | None, None -> true
        | _ -> false
      in
      Hashtbl.fold
        (fun key _ acc ->
          acc && agrees key && agrees (key ^ "3")
          && agrees (String.sub key 0 (String.length key - 1)))
        model true)

(* --- Persisted Bloom filters ------------------------------------------------ *)

let sorted_ycsb n =
  Array.init n (fun i ->
      Util.Kv.entry ~key:(Util.Keys.ycsb_key i) ~seq:(i + 1) (Printf.sprintf "v%05d" i))

let reopen dev t =
  let region = Option.get (Pmem.find_region dev (Pmtable.Pm_table.region_id t)) in
  Pmtable.Pm_table.open_existing dev region

let test_v2_roundtrip_with_bloom () =
  let _, dev = make_dev () in
  let t = Pmtable.Pm_table.build dev (sorted_ycsb 300) in
  check Alcotest.bool "clean table verifies" true (Pmtable.Pm_table.verify t = []);
  let r = reopen dev t in
  for i = 0 to 299 do
    match Pmtable.Pm_table.get r (Util.Keys.ycsb_key i) with
    | Some e -> check Alcotest.int "seq" (i + 1) e.Util.Kv.seq
    | None -> Alcotest.failf "v2 reopen lost rank %d" i
  done;
  (* absent keys inside the range never come back present, and the
     reopened bloom answers most of them *)
  let negatives = !Pmtable.Pm_table.bloom_negatives in
  for i = 0 to 298 do
    check Alcotest.bool "absent stays absent" true
      (Pmtable.Pm_table.get r (Util.Keys.ycsb_key i ^ "x") = None)
  done;
  check Alcotest.bool "v2 reopens with bloom" true
    (!Pmtable.Pm_table.bloom_negatives - negatives > 250)

let test_bloom_screens_pm_reads () =
  let _, dev = make_dev () in
  let t = Pmtable.Pm_table.build dev (sorted_ycsb 1000) in
  let stats = Pmem.stats dev in
  let reads_for keys =
    let r0 = stats.Pmem.reads in
    List.iter (fun k -> ignore (Pmtable.Pm_table.get t k)) keys;
    stats.Pmem.reads - r0
  in
  let absent = reads_for (List.init 500 (fun i -> Util.Keys.ycsb_key i ^ "x")) in
  let present = reads_for (List.init 500 Util.Keys.ycsb_key) in
  check Alcotest.bool
    (Printf.sprintf "bloom suppresses PM reads (%d absent < %d present)" absent present)
    true
    (absent < present / 5);
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

(* --- the one-image build writes what the staged build wrote ---------------

   [Staged] keeps the build as it was before tables were encoded into one
   image: every layer went through its own [Buffer] and was appended to a
   4 KiB staging buffer that spilled whenever it reached a chunk. The image
   build must leave the same region bytes, the same device statistics (so
   the same write requests, flushes and fences) and the same clock. *)

module Staged = struct
  type writer = {
    dev : Pmem.t;
    region : Pmem.region;
    staging : Buffer.t;
    mutable written : int;
    mutable flushed_upto : int;
  }

  let chunk = 4096

  let create dev region =
    { dev; region; staging = Buffer.create chunk; written = 0; flushed_upto = 0 }

  let flush_upto w upto =
    if upto > w.flushed_upto then
      Pmem.flush w.dev w.region ~off:w.flushed_upto ~len:(upto - w.flushed_upto);
    w.flushed_upto <- max w.flushed_upto upto

  let spill w =
    let data = Buffer.contents w.staging in
    if String.length data > 0 then begin
      Pmem.write w.dev w.region ~off:w.written data;
      w.written <- w.written + String.length data;
      Buffer.clear w.staging;
      flush_upto w (w.written land lnot 63)
    end

  let add_string w s =
    Buffer.add_string w.staging s;
    if Buffer.length w.staging >= chunk then spill w

  let add_char w c =
    Buffer.add_char w.staging c;
    if Buffer.length w.staging >= chunk then spill w

  let add_u32 w v =
    add_char w (Char.chr ((v lsr 24) land 0xff));
    add_char w (Char.chr ((v lsr 16) land 0xff));
    add_char w (Char.chr ((v lsr 8) land 0xff));
    add_char w (Char.chr (v land 0xff))

  let finish w =
    spill w;
    flush_upto w w.written;
    Pmem.drain w.dev;
    Pmem.commit_point w.dev "pmtable.seal";
    w.written

  let charge_cpu dev ns = Sim.Clock.advance (Pmem.clock dev) ns

  let buffer_u32 buf v =
    Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr (v land 0xff))

  let extract_tag key =
    let digit i = key.[i] >= '0' && key.[i] <= '9' in
    if String.length key >= 5 && key.[0] = 't' && digit 1 && digit 2 && digit 3 && digit 4
    then String.sub key 0 5
    else ""

  let prefix_len = 24

  let pad_slot s =
    if String.length s >= prefix_len then String.sub s 0 prefix_len
    else s ^ String.make (prefix_len - String.length s) '\000'

  let strip prefix key =
    String.sub key (String.length prefix) (String.length key - String.length prefix)

  (* Pm_table.build at group size 8, as it stood. *)
  let pm_table dev (entries : Util.Kv.entry array) =
    let group_size = 8 in
    let n = Array.length entries in
    let metas = ref [] and groups = ref [] and group_count = ref 0 in
    let i = ref 0 in
    while !i < n do
      let tag = extract_tag entries.(!i).key in
      let run_start = !i in
      while !i < n && extract_tag entries.(!i).key = tag do
        incr i
      done;
      let run_end = !i in
      let extended =
        let first = entries.(run_start).key and last = entries.(run_end - 1).key in
        let shared = Util.Keys.common_prefix_len first last in
        String.sub first 0 (min 40 (max (String.length tag) shared))
      in
      let meta_idx = List.length !metas in
      let g_lo = !group_count in
      let versions_end k =
        let k' = ref (k + 1) in
        while !k' < run_end && entries.(!k').key = entries.(k).key do
          incr k'
        done;
        !k'
      in
      let bytes lo hi =
        let b = ref 0 in
        for k = lo to hi - 1 do
          b := !b + Util.Kv.encoded_size entries.(k)
        done;
        !b
      in
      let j = ref run_start in
      while !j < run_end do
        let lo = !j in
        let hi = ref (versions_end lo) in
        let size = ref (bytes lo !hi) in
        let full = ref false in
        while (not !full) && !hi < run_end do
          let next = versions_end !hi in
          let b = bytes !hi next in
          if next - lo <= group_size && !size + b <= Pmtable.Pm_table.max_group_bytes then begin
            hi := next;
            size := !size + b
          end
          else full := true
        done;
        let hi = !hi in
        let stripped_first = strip extended entries.(lo).key in
        let stripped_last = strip extended entries.(hi - 1).key in
        let shared =
          min prefix_len (Util.Keys.common_prefix_len stripped_first stripped_last)
        in
        groups := (meta_idx, pad_slot stripped_first, shared, Array.sub entries lo (hi - lo))
                  :: !groups;
        incr group_count;
        j := hi
      done;
      metas := (extended, g_lo, !group_count) :: !metas
    done;
    let metas = Array.of_list (List.rev !metas) in
    let groups = Array.of_list (List.rev !groups) in
    let entry_layer = Buffer.create 4096 in
    let group_offsets = Array.make (Array.length groups) 0 in
    let min_seq = ref max_int and max_seq = ref min_int and payload = ref 0 in
    Array.iteri
      (fun g (meta, _, shared, members) ->
        group_offsets.(g) <- Buffer.length entry_layer;
        let tag, _, _ = metas.(meta) in
        let strip_len = String.length tag + shared in
        Array.iter
          (fun (e : Util.Kv.entry) ->
            Util.Varint.write_string entry_layer
              (String.sub e.key strip_len (String.length e.key - strip_len));
            Util.Varint.write entry_layer e.seq;
            Buffer.add_char entry_layer (match e.kind with Put -> '\001' | Delete -> '\000');
            Util.Varint.write_string entry_layer e.value;
            payload := !payload + Util.Kv.encoded_size e;
            if e.seq < !min_seq then min_seq := e.seq;
            if e.seq > !max_seq then max_seq := e.seq)
          members)
      groups;
    charge_cpu dev (float_of_int n *. 30.0);
    let entry_str = Buffer.contents entry_layer in
    let gcrcs =
      Array.init (Array.length groups) (fun g ->
          let start = group_offsets.(g) in
          let stop =
            if g + 1 < Array.length groups then group_offsets.(g + 1)
            else String.length entry_str
          in
          Util.Crc32.update 0 entry_str start (stop - start))
    in
    let prefix_layer = Buffer.create 1024 in
    Array.iteri
      (fun g (meta, slot, shared, members) ->
        let record = Buffer.create 64 in
        Buffer.add_string record slot;
        buffer_u32 record group_offsets.(g);
        Buffer.add_char record (Char.chr ((Array.length members lsr 8) land 0xff));
        Buffer.add_char record (Char.chr (Array.length members land 0xff));
        Buffer.add_char record (Char.chr shared);
        Buffer.add_char record (Char.chr ((meta lsr 8) land 0xff));
        Buffer.add_char record (Char.chr (meta land 0xff));
        buffer_u32 record (Util.Crc32.string (Buffer.contents record));
        Buffer.add_buffer prefix_layer record)
      groups;
    let gcrc_layer = Buffer.create 64 in
    Array.iter (buffer_u32 gcrc_layer) gcrcs;
    let meta_layer = Buffer.create 128 in
    Util.Varint.write meta_layer (Array.length metas);
    Array.iter
      (fun (tag, g_lo, g_hi) ->
        Util.Varint.write_string meta_layer tag;
        Util.Varint.write meta_layer g_lo;
        Util.Varint.write meta_layer g_hi)
      metas;
    Util.Varint.write meta_layer n;
    Util.Varint.write meta_layer !min_seq;
    Util.Varint.write meta_layer !max_seq;
    Util.Varint.write meta_layer !payload;
    Util.Varint.write_string meta_layer
      (Bloom.serialize
         (Bloom.of_keys ~bits_per_key:10
            (Array.to_list (Array.map (fun (e : Util.Kv.entry) -> e.key) entries))));
    let entry_len = Buffer.length entry_layer in
    let meta_off = entry_len + Buffer.length prefix_layer + Buffer.length gcrc_layer in
    let footer = Buffer.create 26 in
    buffer_u32 footer entry_len;
    buffer_u32 footer meta_off;
    buffer_u32 footer (Array.length groups);
    Buffer.add_char footer (Char.chr prefix_len);
    Buffer.add_char footer (Char.chr group_size);
    buffer_u32 footer (Util.Crc32.string (Buffer.contents meta_layer));
    buffer_u32 footer 0x504D4232;
    buffer_u32 footer (Util.Crc32.string (Buffer.contents footer));
    let total = meta_off + Buffer.length meta_layer + 26 in
    let region = Pmem.alloc dev total in
    let w = create dev region in
    List.iter
      (fun b -> add_string w (Buffer.contents b))
      [ entry_layer; prefix_layer; gcrc_layer; meta_layer; footer ];
    assert (finish w = total);
    region

  (* Array_table.build and Snappy_table.build, as they stood: the data
     staged whole, then one u32 slot per unit, staged byte by byte. *)
  let write_slotted dev data offsets =
    let region = Pmem.alloc dev (String.length data + (4 * Array.length offsets)) in
    let w = create dev region in
    add_string w data;
    Array.iter (add_u32 w) offsets;
    ignore (finish w : int);
    region

  let array_table dev (entries : Util.Kv.entry array) =
    let payload = Buffer.create 4096 in
    let offsets =
      Array.map
        (fun e ->
          let off = Buffer.length payload in
          Util.Kv.encode payload e;
          off)
        entries
    in
    charge_cpu dev (float_of_int (Array.length entries) *. 30.0);
    write_slotted dev (Buffer.contents payload) offsets

  let snappy_table ~members dev (entries : Util.Kv.entry array) =
    let n = Array.length entries in
    let chunks = (n + members - 1) / members in
    let data = Buffer.create 4096 in
    let offsets =
      Array.init chunks (fun c ->
          let off = Buffer.length data in
          let raw = Buffer.create 256 in
          for i = c * members to min n ((c + 1) * members) - 1 do
            Util.Kv.encode raw entries.(i)
          done;
          let raw = Buffer.contents raw in
          charge_cpu dev
            (Compress.Lz.compress_call_ns
            +. (float_of_int (String.length raw) *. Compress.Lz.compress_cost_ns_per_byte));
          Buffer.add_string data (Compress.Lz.compress raw);
          off)
    in
    charge_cpu dev (float_of_int n *. 30.0);
    write_slotted dev (Buffer.contents data) offsets
end

(* Entry sets for the comparison: several {tableID} tag runs and untagged
   keys, version runs, values from empty to past one SSD block (a group
   past [max_group_bytes]), and table sizes whose layers fall on both
   sides of the 4 KiB chunk. *)
let gen_build_input =
  let open QCheck.Gen in
  let key =
    oneof
      [
        map2 (fun t r -> Printf.sprintf "t%04dr%06d" t r) (int_bound 3) (int_bound 5000);
        map (fun r -> Util.Keys.ycsb_key r) (int_bound 5000);
        string_size ~gen:(char_range 'a' 'f') (int_range 1 30);
      ]
  in
  let value_len = frequency [ (12, int_bound 40); (3, int_range 40 600); (1, int_range 4000 6000) ] in
  let item = triple key (int_range 1 4) value_len in
  let size = frequency [ (3, int_range 1 60); (2, int_range 60 400); (1, int_range 700 2500) ] in
  pair (size >>= fun n -> list_size (return n) item) (int_bound 1_000_000)

let entries_of (items, salt) =
  let seq = ref salt in
  List.concat_map
    (fun (key, versions, value_len) ->
      List.init versions (fun v ->
          incr seq;
          let kind = if (!seq + v) mod 7 = 0 then Util.Kv.Delete else Util.Kv.Put in
          { Util.Kv.key; seq = !seq; kind; value = String.make value_len (Char.chr (97 + (!seq mod 26))) }))
    items
  |> List.sort_uniq Util.Kv.compare_entry
  |> Array.of_list

(* Build on two fresh devices; the regions, every device statistic and the
   clocks must agree. *)
let same_build ~staged ~image entries =
  let clock_a, dev_a = make_dev () and clock_b, dev_b = make_dev () in
  let region_a = staged dev_a entries in
  let region_b = Option.get (Pmem.find_region dev_b (image dev_b entries)) in
  let len = Pmem.region_len region_a in
  Pmem.region_len region_b = len
  && Pmem.unsafe_peek region_a ~off:0 ~len = Pmem.unsafe_peek region_b ~off:0 ~len
  && Pmem.stats dev_a = Pmem.stats dev_b
  && Sim.Clock.now clock_a = Sim.Clock.now clock_b

let prop_image_build_matches_staged =
  QCheck.Test.make ~name:"one-image build = staged build (bytes, stats, clock)" ~count:60
    (QCheck.make gen_build_input)
    (fun input ->
      let entries = entries_of input in
      let image build dev entries = (build dev entries).region_id in
      List.for_all2
        (fun staged (_, build) -> same_build entries ~staged ~image:(image build))
        [
          Staged.pm_table;
          Staged.array_table;
          Staged.snappy_table ~members:1;
          Staged.snappy_table ~members:8;
        ]
        all_kinds)

(* --- views never leak ---------------------------------------------------

   Reads decode the region's bytes in place; everything a table hands out
   must be a copy. Damage to the region after the reads must leave their
   results as they were, and a later get must see the damage (the handle
   keeps no view of old bytes). *)

let test_views_never_leak (name, build) () =
  let _, dev = make_dev () in
  let entries = make_entries 400 in
  let tbl = build dev (Array.of_list entries) in
  let model = newest_by_key entries in
  let keys = List.sort_uniq String.compare (List.map (fun (e : Util.Kv.entry) -> e.key) entries) in
  let got = List.map (tbl.get) keys in
  let ranged = ref [] and iterated = ref [] in
  tbl.range ~start:"" ~stop:"\255" (fun e -> ranged := e :: !ranged);
  tbl.iter (fun e -> iterated := e :: !iterated);
  let salvaged, lost = tbl.salvage () in
  check Alcotest.bool (name ^ ": nothing lost before the damage") true (lost = None);
  let expect_results what =
    check Alcotest.bool (name ^ ": gets " ^ what) true
      (got = List.map (fun k -> Hashtbl.find_opt model k) keys);
    check Alcotest.bool (name ^ ": range " ^ what) true (List.rev !ranged = entries);
    check Alcotest.bool (name ^ ": iter " ^ what) true (List.rev !iterated = entries);
    check Alcotest.bool (name ^ ": salvage " ^ what) true (salvaged = entries)
  in
  expect_results "read right";
  let region = Option.get (Pmem.find_region dev tbl.region_id) in
  Pmem.corrupt_region ~len:(Pmem.region_len region) ~mode:`Flip dev region ~off:0;
  expect_results "unchanged by later damage";
  if name = "pm" then
    List.iter
      (fun key ->
        match tbl.get key with
        | exception Pmtable.Integrity.Corrupted _ -> ()
        | _ -> Alcotest.failf "get %S after the damage did not raise Corrupted" key)
      keys

let per_kind name f =
  List.map (fun (kname, build) -> Alcotest.test_case (name ^ " [" ^ kname ^ "]") `Quick (f (kname, build))) all_kinds

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
        @ per_kind "empty rejected" test_empty_rejected
        @ per_kind "views never leak" test_views_never_leak );
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
      ("image build", [ qtest prop_image_build_matches_staged ]);
    ]
