(* Tests for the SSD device simulator: file namespace, synchronous cost
   charging, and the queue-depth behaviour of the asynchronous interface. *)

let check = Alcotest.check

let make () =
  let clock = Sim.Clock.create () in
  (clock, Ssd.create clock)

let test_file_roundtrip () =
  let _, ssd = make () in
  let f = Ssd.create_file ssd in
  Ssd.append ssd f "hello ";
  Ssd.append ssd f "world";
  check Alcotest.int "size" 11 (Ssd.file_size f);
  check Alcotest.string "pread" "world" (Ssd.pread ssd f ~off:6 ~len:5);
  Ssd.seal ssd f;
  check Alcotest.bool "append after seal raises" true
    (try Ssd.append ssd f "x"; false with Invalid_argument _ -> true)

let test_pread_bounds () =
  let _, ssd = make () in
  let f = Ssd.create_file ssd in
  Ssd.append ssd f "0123456789";
  check Alcotest.bool "oob raises" true
    (try ignore (Ssd.pread ssd f ~off:8 ~len:5); false with Invalid_argument _ -> true)

let test_delete_file () =
  let _, ssd = make () in
  let f = Ssd.create_file ssd in
  let id = Ssd.file_id f in
  check Alcotest.bool "findable" true (Ssd.find_file ssd id <> None);
  Ssd.delete_file ssd f;
  check Alcotest.bool "gone" true (Ssd.find_file ssd id = None)

let test_latency_model () =
  let clock, ssd = make () in
  let f = Ssd.create_file ssd in
  Ssd.append ssd f (String.make 4096 'x');
  let t0 = Sim.Clock.now clock in
  ignore (Ssd.pread ssd f ~off:0 ~len:4096);
  let read_4k = Sim.Clock.now clock -. t0 in
  check Alcotest.bool "4K read near 20us" true
    (read_4k > Sim.Clock.us 15.0 && read_4k < Sim.Clock.us 40.0)

let test_ssd_much_slower_than_pm () =
  (* The DRAM < PM << SSD ordering every experiment depends on. *)
  let pm = Pmem.default_params and ssd = Ssd.default_params in
  let pm_4k = pm.Pmem.read_access_ns +. (4096.0 *. pm.Pmem.read_byte_ns) in
  let ssd_4k = ssd.Ssd.read_latency_ns +. (4096.0 *. ssd.Ssd.read_byte_ns) in
  check Alcotest.bool "SSD >= 5x PM on 4K reads" true (ssd_4k /. pm_4k > 5.0)

let test_stats_accumulate () =
  let _, ssd = make () in
  let f = Ssd.create_file ssd in
  Ssd.append ssd f (String.make 1000 'a');
  ignore (Ssd.pread ssd f ~off:0 ~len:500);
  let s = Ssd.stats ssd in
  check Alcotest.int "bytes written" 1000 s.Ssd.bytes_written;
  check Alcotest.int "bytes read" 500 s.Ssd.bytes_read;
  check Alcotest.int "writes" 1 s.Ssd.writes;
  check Alcotest.int "reads" 1 s.Ssd.reads

(* --- Requests: one per call, whatever its length --- *)

(* An SSTable build writes its whole multi-block image as one request and
   a compaction input reads its blocks as one span: the fault hooks see
   each request once, with its total length. *)
let test_vectored_hooks_fire_once () =
  let _, ssd = make () in
  let f = Ssd.create_file ssd in
  let writes = ref [] and reads = ref [] in
  Ssd.set_write_hook ssd (Some (fun ~file_id:_ ~len -> writes := len :: !writes; Ssd.Io_ok));
  Ssd.set_read_hook ssd (Some (fun ~file_id:_ ~len -> reads := len :: !reads; Ssd.Io_ok));
  Ssd.append_owned ssd f (Bytes.of_string "abcdefghi");
  ignore (Ssd.read_in_place ssd f ~off:1 ~len:7);
  Ssd.set_write_hook ssd None;
  Ssd.set_read_hook ssd None;
  check Alcotest.(list int) "write hook once, total length" [ 9 ] !writes;
  check Alcotest.(list int) "read hook once, span length" [ 7 ] !reads

let test_failed_append_writes_nothing () =
  let _, ssd = make () in
  let f = Ssd.create_file ssd in
  Ssd.append ssd f "head";
  Ssd.set_write_hook ssd (Some (fun ~file_id:_ ~len:_ -> Ssd.Io_fail));
  check Alcotest.bool "append raises Io_error" true
    (try Ssd.append ssd f "block0block1meta"; false with Ssd.Io_error _ -> true);
  check Alcotest.bool "append_owned raises Io_error" true
    (try Ssd.append_owned ssd f (Bytes.of_string "image"); false
     with Ssd.Io_error _ -> true);
  Ssd.set_write_hook ssd None;
  check Alcotest.int "size unchanged" 4 (Ssd.file_size f);
  check Alcotest.string "content unchanged" "head" (Ssd.pread ssd f ~off:0 ~len:4)

(* --- Exact-size files -------------------------------------------------------- *)

(* The block cache keeps what [pread] returns, so it must be a copy: damage
   done to the file in place afterwards must not reach it. *)
let test_pread_copy_survives_corruption () =
  let _, ssd = make () in
  let f = Ssd.create_file ssd in
  Ssd.append ssd f "abcdef";
  let before = Ssd.pread ssd f ~off:0 ~len:6 in
  Ssd.corrupt_file ~len:6 ~mode:`Zero ssd f ~off:0;
  check Alcotest.string "earlier read unchanged" "abcdef" before;
  check Alcotest.string "the file is damaged" (String.make 6 '\000')
    (Ssd.pread ssd f ~off:0 ~len:6)

(* A crash only moves the size back; the next append must overwrite the
   stale tail that is still in the file's storage. *)
let test_crash_then_reappend () =
  let _, ssd = make () in
  Ssd.enable_crash_mode ssd;
  let f = Ssd.create_file ssd in
  Ssd.append ssd f "durable";
  Ssd.fsync ssd f;
  Ssd.append ssd f "-lost-tail";
  Ssd.crash ssd;
  check Alcotest.int "cut to the watermark" 7 (Ssd.file_size f);
  Ssd.append ssd f "+again";
  check Alcotest.int "size after re-append" 13 (Ssd.file_size f);
  check Alcotest.string "reads back the new tail" "durable+again"
    (Ssd.pread ssd f ~off:0 ~len:13);
  Ssd.append ssd f (String.make 100 'z');
  check Alcotest.string "grows past its first size" ("durable+again" ^ String.make 100 'z')
    (Ssd.pread ssd f ~off:0 ~len:113)

let test_write_image_one_request () =
  let clock, ssd = make () in
  let b = Sstable.create_builder ~block_bytes:256 ssd in
  for i = 0 to 199 do
    Sstable.add b (Util.Kv.entry ~key:(Util.Keys.ycsb_key i) ~seq:(i + 1) (String.make 40 'v'))
  done;
  let t0 = Sim.Clock.now clock in
  let img = Sstable.finish_image b in
  check (Alcotest.float 0.0) "encoding charges nothing" t0 (Sim.Clock.now clock);
  check Alcotest.int "no file yet" 0 (List.length (Ssd.live_file_ids ssd));
  let sst = Sstable.write_image img in
  let s = Ssd.stats ssd in
  check Alcotest.int "one write request" 1 s.Ssd.writes;
  check Alcotest.int "exactly the file" (Sstable.byte_size sst) s.Ssd.bytes_written;
  check Alcotest.int "one file" 1 (List.length (Ssd.live_file_ids ssd));
  check Alcotest.int "every entry" 200 (List.length (Sstable.to_list sst))

(* --- Async interface ----------------------------------------------------- *)

let test_async_completion_order_and_latency () =
  let clock = Sim.Clock.create () in
  let des = Sim.Des.create clock in
  let ssd = Ssd.create clock in
  Ssd.attach_des ssd des;
  let completed = ref [] in
  for i = 1 to 4 do
    Ssd.submit ssd Ssd.Read ~bytes:4096 (fun latency -> completed := (i, latency) :: !completed)
  done;
  check Alcotest.int "all in flight" 4 (Ssd.in_flight ssd);
  Sim.Des.run des;
  let completed = List.rev !completed in
  check Alcotest.int "all completed" 4 (List.length completed);
  check Alcotest.int "drained" 0 (Ssd.in_flight ssd);
  (* with channels=2, the 3rd and 4th requests queue behind the first two *)
  let lat i = List.assoc i completed in
  check Alcotest.bool "queued requests observe higher latency" true
    (lat 3 > lat 1 && lat 4 > lat 2)

let test_async_latency_grows_with_depth () =
  let mean_latency depth =
    let clock = Sim.Clock.create () in
    let des = Sim.Des.create clock in
    let ssd = Ssd.create clock in
    Ssd.attach_des ssd des;
    let total = ref 0.0 and n = ref 0 in
    for _ = 1 to depth do
      Ssd.submit ssd Ssd.Write ~bytes:65536 (fun latency ->
          total := !total +. latency;
          incr n)
    done;
    Sim.Des.run des;
    !total /. float_of_int !n
  in
  check Alcotest.bool "deeper queue, higher mean latency" true
    (mean_latency 8 > mean_latency 2 && mean_latency 2 >= mean_latency 1)

let test_async_busy_tracker () =
  let clock = Sim.Clock.create () in
  let des = Sim.Des.create clock in
  let ssd = Ssd.create clock in
  Ssd.attach_des ssd des;
  Ssd.submit ssd Ssd.Read ~bytes:4096 (fun _ -> ());
  Sim.Des.run des;
  let busy = Sim.Resource.busy_time (Ssd.busy_tracker ssd) in
  check Alcotest.bool "device busy while serving" true
    (Float.abs (busy -. Ssd.service_time ssd Ssd.Read 4096) < 1.0)

let test_submit_without_des_raises () =
  let _, ssd = make () in
  check Alcotest.bool "raises" true
    (try Ssd.submit ssd Ssd.Read ~bytes:1 ignore; false with Invalid_argument _ -> true)

(* --- crash mode: durability watermarks, torn tails, resurrection --- *)

let test_crash_truncates_to_durable () =
  let _, ssd = make () in
  Ssd.enable_crash_mode ssd;
  let f = Ssd.create_file ssd in
  Ssd.append ssd f "durable!";
  Ssd.fsync ssd f;
  Ssd.append ssd f "volatile";
  check Alcotest.int "durable watermark" 8 (Ssd.durable_size f);
  Ssd.crash ssd;
  check Alcotest.int "size cut to watermark" 8 (Ssd.file_size f);
  check Alcotest.string "synced bytes survive" "durable!"
    (Ssd.pread ssd f ~off:0 ~len:8)

let test_crash_torn_tail () =
  let _, ssd = make () in
  Ssd.enable_crash_mode ssd;
  let f = Ssd.create_file ssd in
  Ssd.append ssd f "AAAA";
  Ssd.fsync ssd f;
  Ssd.append ssd f "BBBBBBBB";
  Ssd.crash ~keep:(fun ~file_id:_ ~durable:_ ~size:_ -> 3) ssd;
  check Alcotest.int "torn size" 7 (Ssd.file_size f);
  check Alcotest.string "torn prefix survives" "AAAABBB"
    (Ssd.pread ssd f ~off:0 ~len:7);
  (* the torn bytes are on the medium now: a second crash keeps them *)
  check Alcotest.int "torn tail is durable after crash" 7 (Ssd.durable_size f)

let test_seal_implies_durability () =
  let _, ssd = make () in
  Ssd.enable_crash_mode ssd;
  let f = Ssd.create_file ssd in
  Ssd.append ssd f "sealed-table";
  Ssd.seal ssd f;
  Ssd.crash ssd;
  check Alcotest.string "sealed content survives" "sealed-table"
    (Ssd.pread ssd f ~off:0 ~len:12)

let test_enable_marks_existing_durable () =
  let _, ssd = make () in
  let f = Ssd.create_file ssd in
  Ssd.append ssd f "pre-existing";
  Ssd.enable_crash_mode ssd;
  Ssd.crash ssd;
  check Alcotest.int "pre-existing content durable" 12 (Ssd.file_size f)

let test_delete_resurrected_on_crash () =
  let _, ssd = make () in
  Ssd.enable_crash_mode ssd;
  let f = Ssd.create_file ssd in
  Ssd.append ssd f "still-on-medium";
  Ssd.fsync ssd f;
  Ssd.delete_file ssd f;
  check Alcotest.bool "gone while running" true
    (Ssd.find_file ssd (Ssd.file_id f) = None);
  Ssd.crash ssd;
  (match Ssd.find_file ssd (Ssd.file_id f) with
  | None -> Alcotest.fail "deleted file not resurrected by crash"
  | Some f' ->
      check Alcotest.string "resurrected content" "still-on-medium"
        (Ssd.pread ssd f' ~off:0 ~len:15));
  check Alcotest.bool "resurrected file is listed live" true
    (List.mem (Ssd.file_id f) (Ssd.live_file_ids ssd))

let test_write_hook_io_error () =
  let _, ssd = make () in
  let f = Ssd.create_file ssd in
  let armed = ref true in
  Ssd.set_write_hook ssd
    (Some (fun ~file_id:_ ~len:_ -> if !armed then Ssd.Io_fail else Ssd.Io_ok));
  check Alcotest.bool "append raises Io_error" true
    (try Ssd.append ssd f "lost"; false with Ssd.Io_error _ -> true);
  check Alcotest.int "nothing written on failure" 0 (Ssd.file_size f);
  armed := false;
  Ssd.append ssd f "ok";
  Ssd.set_write_hook ssd None;
  check Alcotest.int "retry after transient error" 2 (Ssd.file_size f)

let test_fsync_hook_swallows_barrier () =
  let _, ssd = make () in
  Ssd.enable_crash_mode ssd;
  let f = Ssd.create_file ssd in
  Ssd.append ssd f "never-durable";
  Ssd.set_fsync_hook ssd (Some (fun ~file_id:_ -> Ssd.Io_fail));
  Ssd.fsync ssd f;
  check Alcotest.int "watermark did not advance" 0 (Ssd.durable_size f);
  Ssd.set_fsync_hook ssd None;
  Ssd.crash ssd;
  check Alcotest.int "unsynced bytes lost" 0 (Ssd.file_size f)

let () =
  Alcotest.run "ssd"
    [
      ( "files",
        [
          Alcotest.test_case "roundtrip" `Quick test_file_roundtrip;
          Alcotest.test_case "pread bounds" `Quick test_pread_bounds;
          Alcotest.test_case "delete" `Quick test_delete_file;
          Alcotest.test_case "pread copy survives corruption" `Quick
            test_pread_copy_survives_corruption;
        ] );
      ( "costs",
        [
          Alcotest.test_case "latency model" `Quick test_latency_model;
          Alcotest.test_case "SSD slower than PM" `Quick test_ssd_much_slower_than_pm;
          Alcotest.test_case "stats accumulate" `Quick test_stats_accumulate;
          Alcotest.test_case "vectored hooks fire once" `Quick test_vectored_hooks_fire_once;
          Alcotest.test_case "failed append writes nothing" `Quick
            test_failed_append_writes_nothing;
          Alcotest.test_case "write_image is one request" `Quick test_write_image_one_request;
        ] );
      ( "crash",
        [
          Alcotest.test_case "truncate to durable" `Quick test_crash_truncates_to_durable;
          Alcotest.test_case "torn tail" `Quick test_crash_torn_tail;
          Alcotest.test_case "re-append after truncation" `Quick test_crash_then_reappend;
          Alcotest.test_case "seal implies durability" `Quick test_seal_implies_durability;
          Alcotest.test_case "pre-existing durable" `Quick test_enable_marks_existing_durable;
          Alcotest.test_case "delete resurrection" `Quick test_delete_resurrected_on_crash;
          Alcotest.test_case "write hook Io_error" `Quick test_write_hook_io_error;
          Alcotest.test_case "fsync hook sync loss" `Quick test_fsync_hook_swallows_barrier;
        ] );
      ( "async",
        [
          Alcotest.test_case "completion + queueing" `Quick test_async_completion_order_and_latency;
          Alcotest.test_case "latency grows with depth" `Quick test_async_latency_grows_with_depth;
          Alcotest.test_case "busy tracker" `Quick test_async_busy_tracker;
          Alcotest.test_case "submit without DES" `Quick test_submit_without_des_raises;
        ] );
    ]
