(* Wall-clock micro-benchmarks (Bechamel) of the in-memory primitives, as a
   sanity layer under the simulated-time experiments: the three-layer PM
   table lookup, the plain array-table lookup, the LZ codec, the Bloom
   filter, and the host kernels every run pays for (the CRC-32 over one
   SSD-block-sized extent, the PRNG's value strings). These measure real
   host nanoseconds, not simulated time. *)

open Bechamel
open Toolkit

let make_pm_fixture () =
  let clock = Sim.Clock.create () in
  let pm = Pmem.create ~params:{ Pmem.default_params with capacity = 64 * 1024 * 1024 } clock in
  let rng = Util.Xoshiro.create 9 in
  let entries =
    Array.init 4096 (fun i ->
        Util.Kv.entry
          ~key:(Util.Keys.record_key ~table_id:(i mod 4) ~row_id:(i * 2))
          ~seq:(i + 1)
          (Util.Xoshiro.string rng 64))
  in
  Array.sort Util.Kv.compare_entry entries;
  let pm_tbl = Pmtable.Pm_table.build pm entries in
  let arr_tbl = Pmtable.Array_table.build pm entries in
  (entries, pm_tbl, arr_tbl)

let tests () =
  let entries, pm_tbl, arr_tbl = make_pm_fixture () in
  let rng = Util.Xoshiro.create 17 in
  let key () = entries.(Util.Xoshiro.int rng 4096).Util.Kv.key in
  let sample = String.concat "" (List.init 64 (fun i -> Printf.sprintf "key%06d=value" i)) in
  let compressed = Compress.Lz.compress sample in
  let extent = Util.Xoshiro.string rng Sstable.default_block_bytes in
  let bloom = Bloom.of_keys ~bits_per_key:10 (Array.to_list (Array.map (fun e -> e.Util.Kv.key) entries)) in
  [
    Test.make ~name:"pm_table.get" (Staged.stage (fun () -> ignore (Pmtable.Pm_table.get pm_tbl (key ()))));
    Test.make ~name:"array_table.get" (Staged.stage (fun () -> ignore (Pmtable.Array_table.get arr_tbl (key ()))));
    Test.make ~name:"lz.compress-1KB" (Staged.stage (fun () -> ignore (Compress.Lz.compress sample)));
    Test.make ~name:"lz.decompress-1KB" (Staged.stage (fun () -> ignore (Compress.Lz.decompress compressed)));
    Test.make ~name:"bloom.mem" (Staged.stage (fun () -> ignore (Bloom.mem bloom (key ()))));
    Test.make ~name:"crc32-4KB" (Staged.stage (fun () -> ignore (Util.Crc32.string extent)));
    Test.make ~name:"xoshiro.string-1KB" (Staged.stage (fun () -> ignore (Util.Xoshiro.string rng 1024)));
  ]

let run () =
  Report.heading "Micro: wall-clock cost of core primitives (Bechamel)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
  in
  let rows =
    List.map
      (fun test ->
        let results = Benchmark.all cfg instances test in
        let name = Test.Elt.name (List.hd (Test.elements test)) in
        let analysis = Analyze.all ols Instance.monotonic_clock results in
        let estimate =
          Hashtbl.fold
            (fun _ v acc ->
              match Analyze.OLS.estimates v with
              | Some [ e ] -> e
              | _ -> acc)
            analysis 0.0
        in
        [ name; Printf.sprintf "%.0f ns/op" estimate ])
      (tests ())
  in
  Report.table ~header:[ "primitive"; "wall-clock cost" ] rows
