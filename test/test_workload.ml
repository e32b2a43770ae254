(* Workload generator tests: YCSB mixes, key choosers, the retail
   transaction mix, and the measurement driver. *)

let check = Alcotest.check

let small_engine () =
  Core.Engine.create
    {
      Core.Config.pmblade with
      Core.Config.memtable_bytes = 8 * 1024;
      l0_run_table_bytes = 16 * 1024;
    }

let test_load_inserts_records () =
  let eng = small_engine () in
  let sink = Workload.Sink.of_engine eng in
  let y = Workload.Ycsb.create ~value_bytes:64 () in
  Workload.Ycsb.load_sink y sink ~records:200;
  check Alcotest.int "record count" 200 (Workload.Ycsb.record_count y);
  (* all loaded keys readable *)
  let missing = ref 0 in
  for i = 0 to 199 do
    if Core.Engine.get eng (Util.Keys.ycsb_key i) = None then incr missing
  done;
  check Alcotest.int "none missing" 0 !missing

let test_workload_c_read_only () =
  let eng = small_engine () in
  let sink = Workload.Sink.of_engine eng in
  let y = Workload.Ycsb.create ~value_bytes:64 () in
  Workload.Ycsb.load_sink y sink ~records:300;
  let writes_before = (Core.Engine.metrics eng).Core.Metrics.writes in
  Workload.Ycsb.run_sink y sink Workload.Ycsb.C ~ops:200;
  check Alcotest.int "C adds no writes" writes_before (Core.Engine.metrics eng).Core.Metrics.writes;
  check Alcotest.bool "C adds reads" true ((Core.Engine.metrics eng).Core.Metrics.reads >= 200)

let test_workload_a_mix () =
  let eng = small_engine () in
  let sink = Workload.Sink.of_engine eng in
  let y = Workload.Ycsb.create ~value_bytes:64 () in
  Workload.Ycsb.load_sink y sink ~records:300;
  let m = Core.Engine.metrics eng in
  let w0 = m.Core.Metrics.writes and r0 = m.Core.Metrics.reads in
  Workload.Ycsb.run_sink y sink Workload.Ycsb.A ~ops:1000;
  let dw = m.Core.Metrics.writes - w0 and dr = m.Core.Metrics.reads - r0 in
  check Alcotest.int "ops conserved" 1000 (dw + dr);
  (* 50/50 within generous tolerance *)
  check Alcotest.bool (Printf.sprintf "balanced mix r=%d w=%d" dr dw) true
    (abs (dw - dr) < 200)

let test_workload_e_scans () =
  let eng = small_engine () in
  let sink = Workload.Sink.of_engine eng in
  let y = Workload.Ycsb.create ~value_bytes:64 () in
  Workload.Ycsb.load_sink y sink ~records:300;
  let s0 = (Core.Engine.metrics eng).Core.Metrics.scans in
  Workload.Ycsb.run_sink y sink Workload.Ycsb.E ~ops:100;
  check Alcotest.bool "E mostly scans" true
    ((Core.Engine.metrics eng).Core.Metrics.scans - s0 > 80)

let test_workload_d_inserts_grow_keyspace () =
  let eng = small_engine () in
  let sink = Workload.Sink.of_engine eng in
  let y = Workload.Ycsb.create ~value_bytes:64 () in
  Workload.Ycsb.load_sink y sink ~records:100;
  Workload.Ycsb.run_sink y sink Workload.Ycsb.D ~ops:500;
  check Alcotest.bool "D inserted some records" true (Workload.Ycsb.record_count y > 100)

let test_of_string () =
  check Alcotest.bool "parse" true (Workload.Ycsb.of_string "a" = Workload.Ycsb.A);
  check Alcotest.bool "parse load" true (Workload.Ycsb.of_string "Load" = Workload.Ycsb.Load);
  check Alcotest.bool "unknown raises" true
    (try ignore (Workload.Ycsb.of_string "z"); false with Invalid_argument _ -> true)

(* --- Retail ---------------------------------------------------------------- *)

let test_retail_order_lifecycle () =
  let eng = small_engine () in
  let sink = Workload.Sink.of_engine eng in
  let r = Workload.Retail.create ~row_bytes:64 () in
  Workload.Retail.new_order_sink r sink;
  check Alcotest.int "one order" 1 (Workload.Retail.order_count r);
  (* the order's main row and its index entries must be readable *)
  check Alcotest.bool "row present" true
    (Core.Engine.get eng (Util.Keys.record_key ~table_id:0 ~row_id:0) <> None);
  let hits = Core.Engine.scan_range eng ~start:"t0000i" ~stop:"t0000j" in
  check Alcotest.bool "index entries present" true (List.length hits >= 3)

let test_retail_index_query_reads_rows () =
  let eng = small_engine () in
  let sink = Workload.Sink.of_engine eng in
  let r = Workload.Retail.create ~row_bytes:64 () in
  Workload.Retail.load_sink r sink ~orders:50;
  let m = Core.Engine.metrics eng in
  let r0 = m.Core.Metrics.reads in
  Workload.Retail.index_query_sink r sink;
  check Alcotest.bool "index query performs point reads" true (m.Core.Metrics.reads > r0)

let test_retail_updates_are_marked () =
  let eng = small_engine () in
  let sink = Workload.Sink.of_engine eng in
  let r = Workload.Retail.create ~row_bytes:64 () in
  Workload.Retail.load_sink r sink ~orders:30;
  Workload.Retail.run_sink r sink ~transactions:200;
  check Alcotest.bool "transactions executed" true (Workload.Retail.order_count r > 30)

let test_retail_deterministic () =
  let run () =
    let eng = small_engine () in
    let sink = Workload.Sink.of_engine eng in
    let r = Workload.Retail.create ~row_bytes:64 () in
    Workload.Retail.load_sink r sink ~orders:40;
    Workload.Retail.run_sink r sink ~transactions:100;
    (Core.Engine.user_bytes eng, (Core.Engine.metrics eng).Core.Metrics.reads)
  in
  check (Alcotest.pair Alcotest.int Alcotest.int) "two runs identical" (run ()) (run ())

(* --- Driver ----------------------------------------------------------------- *)

let test_driver_measures () =
  let eng = small_engine () in
  let sink = Workload.Sink.of_engine eng in
  let y = Workload.Ycsb.create ~value_bytes:64 () in
  Workload.Ycsb.load_sink y sink ~records:200;
  let s = Workload.Driver.measure eng ~ops:300 (fun _ -> Workload.Ycsb.step_sink y sink Workload.Ycsb.A) in
  check Alcotest.int "ops recorded" 300 s.Workload.Driver.ops;
  check Alcotest.bool "throughput positive" true (s.throughput > 0.0);
  check Alcotest.bool "sim time advanced" true (s.sim_seconds > 0.0);
  check Alcotest.bool "latencies populated" true (s.read_avg_ns > 0.0 && s.write_avg_ns > 0.0);
  check Alcotest.bool "user bytes counted" true (s.user_bytes > 0)

let () =
  Alcotest.run "workload"
    [
      ( "ycsb",
        [
          Alcotest.test_case "load inserts" `Quick test_load_inserts_records;
          Alcotest.test_case "C read-only" `Quick test_workload_c_read_only;
          Alcotest.test_case "A mix" `Quick test_workload_a_mix;
          Alcotest.test_case "E scans" `Quick test_workload_e_scans;
          Alcotest.test_case "D grows keyspace" `Quick test_workload_d_inserts_grow_keyspace;
          Alcotest.test_case "of_string" `Quick test_of_string;
        ] );
      ( "retail",
        [
          Alcotest.test_case "order lifecycle" `Quick test_retail_order_lifecycle;
          Alcotest.test_case "index query" `Quick test_retail_index_query_reads_rows;
          Alcotest.test_case "transaction mix" `Quick test_retail_updates_are_marked;
          Alcotest.test_case "deterministic" `Quick test_retail_deterministic;
        ] );
      ("driver", [ Alcotest.test_case "measures" `Quick test_driver_measures ]);
    ]
