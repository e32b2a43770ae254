(* Table I — query latency of a table on PM vs an SSTable in the DRAM cache
   vs an SSTable on SSD, for 1/2/4/8 overlapping tables.

   This reproduces the paper's motivating measurement (§I, Opportunity 2):
   "an array-based structure on PM that supports binary search" — here a
   fixed-stride record array binary-searched with one PM access per probe —
   against RocksDB SSTables read from the block cache and from the SSD.
   Lookups probe the tables in order until the key is found (unsorted
   level-0 semantics; the Bloom filter is off, as in the paper's simple
   structures), so latency grows roughly linearly with the table count.
   Scaled to 100k entries per table. *)

let entries_per_table = 100_000
let probes = 1_500
let record_bytes = 24 (* 16-byte key + 8-byte payload, fixed stride *)

let key_of ~table_idx ~i = Util.Keys.fixed_int ~width:16 ((i * 8) + table_idx)

(* The paper's structure: sorted fixed-size records on PM, binary search
   reading one record per probe in place, through the PM view the engine's
   own tables read with (built through the table builder so the flush cost
   is charged like any PM table). *)
module Pm_array = struct
  type t = { dev : Pmem.t; region : Pmem.region; count : int }

  let build dev ~table_idx =
    let image = Bytes.create (entries_per_table * record_bytes) in
    for i = 0 to entries_per_table - 1 do
      Bytes.blit_string (key_of ~table_idx ~i ^ "payload!") 0 image (i * record_bytes)
        record_bytes
    done;
    let region = Pmem.alloc dev (Bytes.length image) in
    let builder = Pmtable.Builder.create dev region (Bytes.unsafe_to_string image) in
    for _ = 1 to entries_per_table do
      Pmtable.Builder.stage builder record_bytes
    done;
    ignore (Pmtable.Builder.finish builder);
    { dev; region; count = entries_per_table }

  (* The 16-byte key at [off] in the view against [key], in place. *)
  let compare_at view off key =
    let rec go i =
      if i >= 16 then 0
      else
        let c = Char.compare view.[off + i] key.[i] in
        if c <> 0 then c else go (i + 1)
    in
    go 0

  let get t key =
    let lo = ref 0 and hi = ref (t.count - 1) in
    let found = ref None in
    while !found = None && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let off = mid * record_bytes in
      let view = Pmem.read_in_place t.dev t.region ~off ~len:record_bytes in
      let c = compare_at view off key in
      if c = 0 then found := Some (String.sub view (off + 16) 8)
      else if c < 0 then lo := mid + 1
      else hi := mid - 1
    done;
    !found
end

let dataset ~table_idx =
  Array.init entries_per_table (fun i ->
      Util.Kv.entry ~key:(key_of ~table_idx ~i) ~seq:(i + 1) "payload!")

(* Probe the tables in order until the key is found; the key lives in
   exactly one table, uniformly chosen, so on average (k+1)/2 tables are
   searched — the level-0 read-amplification pattern. *)
let measure_latency clock ~tables ~get =
  let rng = Util.Xoshiro.create 97 in
  let k = List.length tables in
  let total = ref 0.0 in
  for _ = 1 to probes do
    let owner = Util.Xoshiro.int rng k in
    let i = Util.Xoshiro.int rng entries_per_table in
    let key = key_of ~table_idx:owner ~i in
    let t0 = Sim.Clock.now clock in
    let found = List.exists (fun tbl -> get tbl key <> None) tables in
    assert found;
    total := !total +. (Sim.Clock.now clock -. t0)
  done;
  !total /. float_of_int probes

let run () =
  Report.heading "Table I: query latency by storage medium";
  let counts = [ 1; 2; 4; 8 ] in
  let pm_ns =
    List.map
      (fun k ->
        let clock = Sim.Clock.create () in
        let pm =
          Pmem.create ~params:{ Pmem.default_params with capacity = 256 * 1024 * 1024 } clock
        in
        let tables = List.init k (fun t -> Pm_array.build pm ~table_idx:t) in
        measure_latency clock ~tables ~get:Pm_array.get)
      counts
  in
  let sstables ssd k = List.init k (fun t -> Sstable.build ssd (dataset ~table_idx:t)) in
  let sst_get t key = Sstable.get ~use_bloom:false t key in
  (* The cache row: the tables share one block cache with room for all of
     them, warmed by one full-range read each, so every probe is a hit.
     PMB_PLANT=cache_off leaves them unattached, so the row reads from the
     SSD and the ordering floors must fail. *)
  let cache_ns =
    List.map
      (fun k ->
        let clock = Sim.Clock.create () in
        let ssd = Ssd.create clock in
        let tables = sstables ssd k in
        let table_bytes = List.fold_left (fun acc t -> acc + Sstable.byte_size t) 0 tables in
        let cache = Cache.Block_cache.create ~clock ~capacity_bytes:(2 * table_bytes) () in
        if Sys.getenv_opt "PMB_PLANT" <> Some "cache_off" then
          List.iter (fun t -> Sstable.attach_shared_cache t cache) tables;
        List.iter (fun t -> Sstable.range t ~start:"" ~stop:"\255" ignore) tables;
        assert (Cache.Block_cache.evictions cache = 0 && Cache.Block_cache.rejections cache = 0);
        measure_latency clock ~tables ~get:sst_get)
      counts
  in
  let ssd_ns =
    List.map
      (fun k ->
        let clock = Sim.Clock.create () in
        let ssd = Ssd.create clock in
        let tables = sstables ssd k in
        measure_latency clock ~tables ~get:sst_get)
      counts
  in
  Report.table
    ~header:("The number of tables" :: List.map string_of_int counts)
    [
      "Table on PM" :: List.map Report.us pm_ns;
      "SSTable in cache" :: List.map Report.us cache_ns;
      "SSTable in SSD" :: List.map Report.us ssd_ns;
    ];
  Report.note "paper: PM 3.3-14.5us, cache 2.6-10.7us, SSD 22.3-100.2us;";
  Report.note "shape: PM close to cache, SSD ~7-10x slower, ~linear in table count.";
  List.iteri
    (fun i k ->
      let pm = List.nth pm_ns i and cache = List.nth cache_ns i and ssd = List.nth ssd_ns i in
      Report.require (Printf.sprintf "table1 cache < PM < SSD at %d table(s)" k)
        (cache < pm && pm < ssd))
    counts
