(* Read-path acceleration benchmark (BENCH_readpath).

   Three phases over a dataset larger than the PM level-0 budget, so a
   meaningful share of the keyspace lives in the SSD levels:

   - zipf:     YCSB-C style Zipfian point gets, run twice on identically
               loaded engines — block cache off vs on — comparing p50/p99
               get latency, simulated SSD block reads per get, and the
               cache hit ratio.
   - negative: uniform lookups of keys that were never written (each sorts
               just after an existing key, so min/max screens cannot answer
               them); measures how many complete without a single PM group
               read or SSD block read, and the PM-table bloom filter rate.
   - scan:     short Zipfian-start bounded scans, cache off vs on.

     dune exec bench/main.exe -- readpath --json BENCH_readpath.json

   The scalar metrics ([readpath.*]) are what scripts/check_bench.sh
   gates against the committed BENCH_readpath.json, and the run fails
   its own floors when the cache hit ratio or the bloom filter rate reads
   zero. PMB_PLANT=cache_off runs the cache-on leg with the block cache
   disabled while stamping the nominal config fingerprint — a planted
   regression the hit-ratio floor and the gate must catch. *)

let value_bytes = 512
let keyspace = 20_000 (* ~10 MB of values, > the 6 MB PM budget *)
let zipf_ops = 30_000
let negative_ops = 10_000
let scan_ops = 1_000
let scan_len = 10
let cache_mb = 16

let pm_budget = 6 * 1024 * 1024
let tau_m = 5 * 1024 * 1024
let tau_t = 3 * 1024 * 1024

let config ~cache_mb =
  let cfg = Core.Config.pmblade in
  {
    cfg with
    Core.Config.name = Printf.sprintf "readpath-cache%d" cache_mb;
    l0_capacity = pm_budget;
    pm_params = { Pmem.default_params with capacity = pm_budget + (4 * 1024 * 1024) };
    l0_strategy =
      (match cfg.Core.Config.l0_strategy with
      | Core.Config.Cost_based p ->
          Core.Config.Cost_based { p with Compaction.Cost_model.tau_m; tau_t }
      | s -> s);
    block_cache_mb = cache_mb;
  }

let planted () =
  match Sys.getenv_opt "PMB_PLANT" with Some "cache_off" -> true | _ -> false

(* Deterministic load shared by the off/on engines: every rank written once,
   then the level-0 stack merged into the sorted runs. The dataset exceeds
   the PM budget, so the load's own major compactions leave the cold
   partitions on SSD while the warm sorted runs stay in PM — both the SSD
   block cache and the PM-table blooms have something to do. *)
let load cfg =
  Report.note_config cfg;
  let cfg = if planted () then { cfg with Core.Config.block_cache_mb = 0 } else cfg in
  let eng = Core.Engine.create cfg in
  let rng = Util.Xoshiro.create 71 in
  for rank = 0 to keyspace - 1 do
    Core.Engine.put eng ~key:(Util.Keys.ycsb_key rank) (Util.Xoshiro.string rng value_bytes)
  done;
  Core.Engine.flush eng;
  Core.Engine.force_internal_compaction eng;
  eng

let zipf_ranks () =
  let rng = Util.Xoshiro.create 97 in
  let zipf = Util.Zipf.create ~theta:0.99 ~n:keyspace rng in
  Array.init zipf_ops (fun _ -> Util.Zipf.next_scrambled zipf)

(* One Zipfian get phase; returns (p50_ns, p99_ns, ssd_reads, cache_hit_ratio). *)
let run_gets eng ranks =
  let clock = Core.Engine.clock eng in
  let ssd_stats = Ssd.stats (Core.Engine.ssd eng) in
  let h = Util.Histogram.create () in
  let ssd0 = ssd_stats.Ssd.reads in
  Array.iter
    (fun rank ->
      let t0 = Sim.Clock.now clock in
      ignore (Core.Engine.get eng (Util.Keys.ycsb_key rank));
      Util.Histogram.record h (Sim.Clock.now clock -. t0))
    ranks;
  let hit_ratio =
    match Core.Engine.block_cache eng with
    | Some c -> Cache.Block_cache.hit_ratio c
    | None -> 0.0
  in
  (Util.Histogram.percentile h 50.0, Util.Histogram.percentile h 99.0,
   ssd_stats.Ssd.reads - ssd0, hit_ratio)

(* Uniform lookups of absent keys on [eng]; returns
   (device_free_fraction, bloom_filter_rate). *)
let run_negatives eng =
  let rng = Util.Xoshiro.create 131 in
  let pm_stats = Pmem.stats (Core.Engine.pm eng) in
  let ssd_stats = Ssd.stats (Core.Engine.ssd eng) in
  let probes0 = !Pmtable.Pm_table.bloom_probes in
  let negs0 = !Pmtable.Pm_table.bloom_negatives in
  let device_free = ref 0 in
  for _ = 1 to negative_ops do
    let key = Util.Keys.ycsb_key (Util.Xoshiro.int rng keyspace) ^ "x" in
    let pr = pm_stats.Pmem.reads and sr = ssd_stats.Ssd.reads in
    (match Core.Engine.get eng key with
    | Some _ -> failwith "readpath: negative key unexpectedly present"
    | None -> ());
    if pm_stats.Pmem.reads = pr && ssd_stats.Ssd.reads = sr then incr device_free
  done;
  let probes = !Pmtable.Pm_table.bloom_probes - probes0 in
  let negs = !Pmtable.Pm_table.bloom_negatives - negs0 in
  ( float_of_int !device_free /. float_of_int negative_ops,
    if probes = 0 then 0.0 else float_of_int negs /. float_of_int probes )

(* Short scans from Zipfian start ranks; returns (p50_ns, p99_ns). *)
let run_scans eng =
  let rng = Util.Xoshiro.create 173 in
  let zipf = Util.Zipf.create ~theta:0.99 ~n:keyspace rng in
  let clock = Core.Engine.clock eng in
  let h = Util.Histogram.create () in
  for _ = 1 to scan_ops do
    let start = Util.Keys.ycsb_key (Util.Zipf.next_scrambled zipf) in
    let t0 = Sim.Clock.now clock in
    ignore (Core.Engine.scan eng ~start ~limit:scan_len);
    Util.Histogram.record h (Sim.Clock.now clock -. t0)
  done;
  (Util.Histogram.percentile h 50.0, Util.Histogram.percentile h 99.0)

let run () =
  Report.heading "Read path: block cache + PM blooms + fence pruning";
  let ranks = zipf_ranks () in
  let off = load (config ~cache_mb:0) in
  let on = load (config ~cache_mb) in

  let off_p50, off_p99, off_ssd, _ = run_gets off ranks in
  let on_p50, on_p99, on_ssd, hit_ratio = run_gets on ranks in
  let per_get reads = float_of_int reads /. float_of_int zipf_ops in
  Report.table
    ~header:[ "phase"; "cache"; "p50 get"; "p99 get"; "SSD reads/get"; "cache hits" ]
    [
      [ "zipf"; "off"; Report.us off_p50; Report.us off_p99;
        Printf.sprintf "%.3f" (per_get off_ssd); "-" ];
      [ "zipf"; "on"; Report.us on_p50; Report.us on_p99;
        Printf.sprintf "%.3f" (per_get on_ssd); Report.pct hit_ratio ];
    ];
  let reduction =
    if off_ssd = 0 then 0.0
    else 1.0 -. (float_of_int on_ssd /. float_of_int off_ssd)
  in
  Report.note "zipf gets: %d SSD block reads cache-off vs %d cache-on (%.0f%% fewer)"
    off_ssd on_ssd (reduction *. 100.0);

  let device_free, filter_rate = run_negatives on in
  Report.table
    ~header:[ "phase"; "device-free"; "bloom filter rate" ]
    [ [ "negative"; Report.pct device_free; Report.pct filter_rate ] ];
  Report.note "negative lookups answered from DRAM alone: %.1f%% (PM blooms screen %.1f%%)"
    (device_free *. 100.0) (filter_rate *. 100.0);

  let soff_p50, soff_p99 = run_scans off in
  let son_p50, son_p99 = run_scans on in
  Report.table
    ~header:[ "phase"; "cache"; "p50 scan"; "p99 scan" ]
    [
      [ "scan"; "off"; Report.us soff_p50; Report.us soff_p99 ];
      [ "scan"; "on"; Report.us son_p50; Report.us son_p99 ];
    ];

  List.iter
    (fun (name, v) -> Report.record_metric ("readpath." ^ name) v)
    [ ("zipf.cache_off.p50_ns", off_p50); ("zipf.cache_off.p99_ns", off_p99);
      ("zipf.cache_on.p50_ns", on_p50); ("zipf.cache_on.p99_ns", on_p99);
      ("zipf.cache_on.ssd_reads_per_get", per_get on_ssd); ("ssd_read_reduction", reduction);
      ("cache_hit_ratio", hit_ratio); ("bloom_filter_rate", filter_rate);
      ("device_free_negatives", device_free);
      ("scan.cache_off.p50_ns", soff_p50); ("scan.cache_off.p99_ns", soff_p99);
      ("scan.cache_on.p50_ns", son_p50); ("scan.cache_on.p99_ns", son_p99) ];
  (* Liveness: a dead block cache or dead blooms read under 0.0005 (0.000). *)
  Report.require
    (Printf.sprintf "Zipfian-get cache hit ratio %.3f >= 0.0005" hit_ratio)
    (hit_ratio >= 0.0005);
  Report.require
    (Printf.sprintf "negative-lookup bloom filter rate %.3f >= 0.0005" filter_rate)
    (filter_rate >= 0.0005)
