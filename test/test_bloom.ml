(* Bloom filter tests: never a false negative, reasonable false-positive
   rate at the RocksDB-standard 10 bits/key. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let prop_no_false_negatives =
  QCheck.Test.make ~name:"no false negatives" ~count:300
    QCheck.(list_of_size Gen.(int_range 0 200) (string_of_size Gen.(int_range 0 30)))
    (fun keys ->
      let t = Bloom.of_keys ~bits_per_key:10 keys in
      List.for_all (Bloom.mem t) keys)

let test_false_positive_rate () =
  let n = 10_000 in
  let t = Bloom.create ~bits_per_key:10 n in
  for i = 0 to n - 1 do
    Bloom.add t (Printf.sprintf "present-%d" i)
  done;
  let fp = ref 0 in
  let probes = 10_000 in
  for i = 0 to probes - 1 do
    if Bloom.mem t (Printf.sprintf "absent-%d" i) then incr fp
  done;
  (* 10 bits/key gives ~1% theoretical; allow generous slack. *)
  let rate = float_of_int !fp /. float_of_int probes in
  check Alcotest.bool (Printf.sprintf "fp rate %.4f < 0.03" rate) true (rate < 0.03)

(* The read-path acceptance bound: at 10 bits/key the false-positive rate
   stays under 2% even at 100k random keys (theory ~1.2%). *)
let test_false_positive_rate_100k () =
  let n = 100_000 in
  let rng = Util.Xoshiro.create 7 in
  let keys = Array.init n (fun _ -> Util.Xoshiro.string rng 16) in
  let t = Bloom.of_keys ~bits_per_key:10 (Array.to_list keys) in
  Array.iter
    (fun k -> if not (Bloom.mem t k) then Alcotest.failf "false negative for %S" k)
    keys;
  let fp = ref 0 in
  let probes = 100_000 in
  for _ = 1 to probes do
    (* 24-byte probes cannot collide with the 16-byte members *)
    if Bloom.mem t (Util.Xoshiro.string rng 24) then incr fp
  done;
  let rate = float_of_int !fp /. float_of_int probes in
  check Alcotest.bool (Printf.sprintf "fp rate %.4f < 0.02 at 100k keys" rate) true
    (rate < 0.02)

let test_more_bits_fewer_false_positives () =
  let build bits =
    let t = Bloom.create ~bits_per_key:bits 2000 in
    for i = 0 to 1999 do
      Bloom.add t (Printf.sprintf "k%d" i)
    done;
    let fp = ref 0 in
    for i = 0 to 9999 do
      if Bloom.mem t (Printf.sprintf "miss%d" i) then incr fp
    done;
    !fp
  in
  check Alcotest.bool "16 bits beats 4 bits" true (build 16 < build 4)

let test_empty_filter_rejects () =
  let t = Bloom.create ~bits_per_key:10 100 in
  check Alcotest.bool "nothing matches" false (Bloom.mem t "anything")

let test_size_scales () =
  let small = Bloom.create ~bits_per_key:10 100 in
  let large = Bloom.create ~bits_per_key:10 10_000 in
  check Alcotest.bool "bigger n, bigger filter" true
    (Bloom.size_bytes large > Bloom.size_bytes small)

(* Filters persist in SSTable meta blocks and PM meta layers and are
   reopened at recovery, so their bits are a format: a hashing or probing
   change that moves one bit fails the recorded CRC-32 of some serialized
   filter below. *)
let known_answers =
  [
    ("one key", [ "k" ], [ (1, 0x6D42D349); (10, 0xDD1A41E1); (20, 0xBE20702E) ]);
    ( "100 formatted keys",
      List.init 100 (fun i -> Printf.sprintf "user%08d" (i * 7919)),
      [ (1, 0x90962DF7); (10, 0x9C6155D0); (20, 0x8B1B1619) ] );
    ( "2000 random keys",
      (let rng = Util.Xoshiro.create 5 in
       List.init 2000 (fun i -> Util.Xoshiro.string rng (i mod 41))),
      [ (1, 0x86D10D7B); (10, 0xBDD3BEEA); (20, 0x78D18FC8) ] );
  ]

let test_known_answers () =
  List.iter
    (fun (name, keys, answers) ->
      List.iter
        (fun (bits_per_key, expect) ->
          let t = Bloom.of_keys ~bits_per_key keys in
          let label = Printf.sprintf "%s at %d bits/key" name bits_per_key in
          check Alcotest.int (label ^ ": serialized crc") expect
            (Util.Crc32.string (Bloom.serialize t));
          check Alcotest.bool (label ^ ": every key present") true (List.for_all (Bloom.mem t) keys))
        answers)
    known_answers

let () =
  Alcotest.run "bloom"
    [
      ( "bloom",
        [
          qtest prop_no_false_negatives;
          Alcotest.test_case "false positive rate" `Quick test_false_positive_rate;
          Alcotest.test_case "false positive rate at 100k keys" `Quick
            test_false_positive_rate_100k;
          Alcotest.test_case "bits/key tradeoff" `Quick test_more_bits_fewer_false_positives;
          Alcotest.test_case "empty filter" `Quick test_empty_filter_rejects;
          Alcotest.test_case "size scales" `Quick test_size_scales;
          Alcotest.test_case "serialized known answers" `Quick test_known_answers;
        ] );
    ]
