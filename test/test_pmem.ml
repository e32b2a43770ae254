(* Tests for the persistent-memory device simulator. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let make () =
  let clock = Sim.Clock.create () in
  (clock, Pmem.create clock)

let test_alloc_free_accounting () =
  let _, dev = make () in
  let r1 = Pmem.alloc dev 1000 in
  let r2 = Pmem.alloc dev 2000 in
  check Alcotest.int "used" 3000 (Pmem.used dev);
  Pmem.free dev r1;
  check Alcotest.int "freed" 2000 (Pmem.used dev);
  Pmem.free dev r1;
  check Alcotest.int "double free is idempotent" 2000 (Pmem.used dev);
  Pmem.free dev r2;
  check Alcotest.int "all freed" 0 (Pmem.used dev)

let test_out_of_space () =
  let clock = Sim.Clock.create () in
  let dev = Pmem.create ~params:{ Pmem.default_params with capacity = 100 } clock in
  let _ = Pmem.alloc dev 80 in
  check Alcotest.bool "over-capacity raises" true
    (try ignore (Pmem.alloc dev 30); false with Pmem.Out_of_space _ -> true);
  (* and the failed alloc must not leak accounting *)
  check Alcotest.int "used unchanged" 80 (Pmem.used dev)

let test_write_read_roundtrip () =
  let _, dev = make () in
  let r = Pmem.alloc dev 64 in
  Pmem.write dev r ~off:10 "hello";
  let view = Pmem.read_in_place dev r ~off:10 ~len:5 in
  check Alcotest.string "readback" "hello" (String.sub view 10 5);
  Pmem.write dev r ~off:20 ~src_off:1 ~len:3 "hello";
  check Alcotest.string "a slice of the source" "ell"
    (String.sub (Pmem.read_in_place dev r ~off:20 ~len:3) 20 3)

let test_bounds_checked () =
  let _, dev = make () in
  let r = Pmem.alloc dev 16 in
  check Alcotest.bool "oob write raises" true
    (try Pmem.write dev r ~off:10 "longer than six"; false with Invalid_argument _ -> true);
  check Alcotest.bool "oob read raises" true
    (try ignore (Pmem.read_in_place dev r ~off:12 ~len:8); false
     with Invalid_argument _ -> true);
  check Alcotest.bool "oob source slice raises" true
    (try Pmem.write dev r ~off:0 ~src_off:3 ~len:4 "hello"; false
     with Invalid_argument _ -> true);
  Pmem.free dev r;
  check Alcotest.bool "use after free raises" true
    (try ignore (Pmem.read_in_place dev r ~off:0 ~len:1); false
     with Invalid_argument _ -> true)

let test_latency_charged () =
  let clock, dev = make () in
  let r = Pmem.alloc dev 4096 in
  let t0 = Sim.Clock.now clock in
  ignore (Pmem.read_in_place dev r ~off:0 ~len:64);
  let read_cost = Sim.Clock.now clock -. t0 in
  check Alcotest.bool "read charges access + bytes" true
    (read_cost >= Pmem.default_params.read_access_ns);
  let t1 = Sim.Clock.now clock in
  Pmem.write dev r ~off:0 (String.make 64 'x');
  let write_cost = Sim.Clock.now clock -. t1 in
  check Alcotest.bool "write slower than read" true (write_cost > read_cost)

(* A view costs what a copying read did: one access plus the bytes, on the
   clock and in every counter. *)
let test_read_in_place_charges_a_read () =
  let clock, dev = make () in
  let r = Pmem.alloc dev 4096 in
  Pmem.write dev r ~off:0 (String.init 4096 (fun i -> Char.chr (i land 0xff)));
  Pmem.reset_stats dev;
  let t0 = Sim.Clock.now clock in
  let view = Pmem.read_in_place dev r ~off:100 ~len:300 in
  let p = Pmem.default_params in
  let dt = p.read_access_ns +. (300.0 *. p.read_byte_ns) in
  check (Alcotest.float 0.0) "clock advanced by one read" (t0 +. dt) (Sim.Clock.now clock);
  let s = Pmem.stats dev in
  check Alcotest.(list int) "reads, bytes read, nothing else"
    [ 1; 300; 0; 0; 0; 0 ]
    [ s.Pmem.reads; s.bytes_read; s.writes; s.bytes_written; s.flushes; s.drains ];
  check (Alcotest.float 0.0) "read time" dt s.Pmem.read_time;
  check Alcotest.string "the bytes at their region offsets"
    (String.init 300 (fun i -> Char.chr ((100 + i) land 0xff)))
    (String.sub view 100 300)

let test_read_write_asymmetry_matches_optane () =
  (* The calibration must keep writes ~3x reads at small sizes. *)
  let p = Pmem.default_params in
  let read = p.read_access_ns +. (64.0 *. p.read_byte_ns) in
  let write = p.write_access_ns +. (64.0 *. p.write_byte_ns) in
  check Alcotest.bool "write/read between 2x and 5x" true
    (write /. read > 2.0 && write /. read < 5.0)

let test_stats_counters () =
  let _, dev = make () in
  let r = Pmem.alloc dev 1024 in
  Pmem.write dev r ~off:0 (String.make 100 'a');
  ignore (Pmem.read_in_place dev r ~off:0 ~len:50);
  ignore (Pmem.read_in_place dev r ~off:50 ~len:25);
  let s = Pmem.stats dev in
  check Alcotest.int "writes" 1 s.Pmem.writes;
  check Alcotest.int "bytes written" 100 s.Pmem.bytes_written;
  check Alcotest.int "reads" 2 s.Pmem.reads;
  check Alcotest.int "bytes read" 75 s.Pmem.bytes_read;
  Pmem.reset_stats dev;
  check Alcotest.int "reset" 0 (Pmem.stats dev).Pmem.reads

let test_crash_discards_unflushed () =
  let clock = Sim.Clock.create () in
  let dev = Pmem.create clock in
  Pmem.enable_crash_mode dev;
  let r = Pmem.alloc dev 32 in
  Pmem.write dev r ~off:0 "durable!";
  Pmem.flush dev r ~off:0 ~len:8;
  Pmem.drain dev;
  Pmem.write dev r ~off:8 "volatile";
  Pmem.crash dev;
  check Alcotest.string "flushed bytes survive" "durable!" (Pmem.unsafe_peek r ~off:0 ~len:8);
  check Alcotest.bool "unflushed bytes reverted" true
    (Pmem.unsafe_peek r ~off:8 ~len:8 <> "volatile");
  check Alcotest.int "durable watermark" 8 (Pmem.durable_upto r)

let prop_roundtrip_random =
  QCheck.Test.make ~name:"write/read roundtrip at random offsets" ~count:200
    QCheck.(pair (string_of_size Gen.(int_range 1 64)) (int_range 0 100))
    (fun (data, off) ->
      let _, dev = make () in
      let r = Pmem.alloc dev 256 in
      if off + String.length data > 256 then true
      else begin
        Pmem.write dev r ~off data;
        String.sub (Pmem.read_in_place dev r ~off ~len:(String.length data)) off
          (String.length data)
        = data
      end)

let () =
  Alcotest.run "pmem"
    [
      ( "pmem",
        [
          Alcotest.test_case "alloc/free accounting" `Quick test_alloc_free_accounting;
          Alcotest.test_case "out of space" `Quick test_out_of_space;
          Alcotest.test_case "write/read roundtrip" `Quick test_write_read_roundtrip;
          Alcotest.test_case "bounds checked" `Quick test_bounds_checked;
          Alcotest.test_case "latency charged" `Quick test_latency_charged;
          Alcotest.test_case "read_in_place charges a read" `Quick
            test_read_in_place_charges_a_read;
          Alcotest.test_case "optane asymmetry" `Quick test_read_write_asymmetry_matches_optane;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
          Alcotest.test_case "crash discards unflushed" `Quick test_crash_discards_unflushed;
          qtest prop_roundtrip_random;
        ] );
    ]
