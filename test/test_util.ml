(* Unit and property tests for the util library. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Xoshiro ---------------------------------------------------------- *)

let test_xoshiro_deterministic () =
  let a = Util.Xoshiro.create 42 and b = Util.Xoshiro.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Util.Xoshiro.next_int64 a) (Util.Xoshiro.next_int64 b)
  done

let test_xoshiro_seed_sensitivity () =
  let a = Util.Xoshiro.create 1 and b = Util.Xoshiro.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Util.Xoshiro.next_int64 a <> Util.Xoshiro.next_int64 b then differs := true
  done;
  check Alcotest.bool "streams differ" true !differs

let test_xoshiro_bounds () =
  let rng = Util.Xoshiro.create 7 in
  for _ = 1 to 1000 do
    let v = Util.Xoshiro.int rng 17 in
    check Alcotest.bool "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let f = Util.Xoshiro.float rng 3.5 in
    check Alcotest.bool "float in range" true (f >= 0.0 && f < 3.5)
  done

let test_xoshiro_uniformity () =
  (* Coarse chi-square-ish check: all buckets populated near expectation. *)
  let rng = Util.Xoshiro.create 3 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Util.Xoshiro.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      check Alcotest.bool "bucket near uniform" true
        (abs (c - (n / 10)) < n / 50))
    buckets

let test_shuffle_permutes () =
  let rng = Util.Xoshiro.create 5 in
  let arr = Array.init 50 Fun.id in
  Util.Xoshiro.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "is a permutation" (Array.init 50 Fun.id) sorted

(* The first draws of two seeds, recorded from the boxed-record
   implementation: any change to the state layout must reproduce the
   sequence exactly, or every seeded experiment moves. *)
let test_xoshiro_golden () =
  let golden seed ~int64s ~f ~i ~s =
    let rng = Util.Xoshiro.create seed in
    List.iter
      (fun v -> check Alcotest.int64 "next_int64" v (Util.Xoshiro.next_int64 rng))
      int64s;
    check (Alcotest.float 0.0) "float" f (Util.Xoshiro.float rng 1.0);
    check Alcotest.int "int" i (Util.Xoshiro.int rng 1000003);
    check Alcotest.string "string" s (Util.Xoshiro.string rng 32)
  in
  golden 11
    ~int64s:
      [ 4118682332196087775L; 1609190652402573441L; 4524261822856303789L;
        8186203469158895160L ]
    ~f:0x1.5d312ce905ff8p-4 ~i:80651 ~s:"msgjchydyvvcmorgesdmfmfiaqzjfuen";
  golden 23
    ~int64s:
      [ 7889123170269411831L; 7363167145166557910L; 4292875625481518021L;
        3958597402998653822L ]
    ~f:0x1.3b86967132838p-4 ~i:556714 ~s:"ysxxqdlwrvlkoxnkplepmogjvyctrlik"

(* --- Zipf ------------------------------------------------------------- *)

let test_zipf_zeta () =
  check (Alcotest.float 1e-9) "zeta(1,x)=1" 1.0 (Util.Zipf.zeta 1 0.99);
  check (Alcotest.float 1e-6) "zeta(2,0)=2" 2.0 (Util.Zipf.zeta 2 0.0)

let test_zipf_skew_orders_ranks () =
  let rng = Util.Xoshiro.create 13 in
  let z = Util.Zipf.create ~theta:0.99 ~n:1000 rng in
  let counts = Array.make 1000 0 in
  for _ = 1 to 50_000 do
    let r = Util.Zipf.next z in
    counts.(r) <- counts.(r) + 1
  done;
  check Alcotest.bool "rank 0 dominates rank 100" true (counts.(0) > counts.(100));
  check Alcotest.bool "rank 0 gets a large share" true (counts.(0) > 50_000 / 20)

let test_zipf_uniform_theta0 () =
  let rng = Util.Xoshiro.create 17 in
  let z = Util.Zipf.create ~theta:0.0 ~n:100 rng in
  let counts = Array.make 100 0 in
  let n = 100_000 in
  for _ = 1 to n do
    counts.(Util.Zipf.next z) <- counts.(Util.Zipf.next z) + 1
  done;
  (* two draws per loop, so 2n total *)
  Array.iter
    (fun c -> check Alcotest.bool "near uniform" true (abs (c - (2 * n / 100)) < n / 25))
    counts

let prop_zipf_in_range =
  QCheck.Test.make ~name:"zipf ranks within [0,n)" ~count:200
    QCheck.(pair (int_range 1 500) (float_range 0.0 0.99))
    (fun (n, theta) ->
      let rng = Util.Xoshiro.create 29 in
      let z = Util.Zipf.create ~theta ~n rng in
      let ok = ref true in
      for _ = 1 to 100 do
        let r = Util.Zipf.next z in
        if r < 0 || r >= n then ok := false;
        let s = Util.Zipf.next_scrambled z in
        if s < 0 || s >= n then ok := false
      done;
      !ok)

(* --- Varint ----------------------------------------------------------- *)

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:500
    QCheck.(int_bound max_int)
    (fun v ->
      let buf = Buffer.create 10 in
      Util.Varint.write buf v;
      let decoded, next = Util.Varint.read (Buffer.contents buf) 0 in
      decoded = v && next = Buffer.length buf && Util.Varint.size v = next)

let prop_varint_string_roundtrip =
  QCheck.Test.make ~name:"varint string roundtrip" ~count:500 QCheck.string (fun s ->
      let buf = Buffer.create 10 in
      Util.Varint.write_string buf s;
      let decoded, next = Util.Varint.read_string (Buffer.contents buf) 0 in
      decoded = s && next = Buffer.length buf)

let test_varint_negative_rejected () =
  check Alcotest.bool "negative raises" true
    (try
       Util.Varint.write (Buffer.create 1) (-1);
       false
     with Invalid_argument _ -> true)

let test_varint_truncated () =
  let buf = Buffer.create 4 in
  Util.Varint.write buf 300;
  let s = Buffer.contents buf in
  let truncated = String.sub s 0 (String.length s - 1) in
  check Alcotest.bool "truncated raises" true
    (try
       ignore (Util.Varint.read truncated 0);
       false
     with Failure _ -> true)

let test_varint_multibyte_concat () =
  let buf = Buffer.create 16 in
  List.iter (Util.Varint.write buf) [ 0; 1; 127; 128; 16384; 1 lsl 40 ];
  let s = Buffer.contents buf in
  let pos = ref 0 in
  List.iter
    (fun expected ->
      let v, next = Util.Varint.read s !pos in
      pos := next;
      check Alcotest.int "sequence value" expected v)
    [ 0; 1; 127; 128; 16384; 1 lsl 40 ]

let test_varint_read_at () =
  let buf = Buffer.create 16 in
  List.iter (Util.Varint.write buf) [ 5; 300; 1 lsl 40 ];
  let s = Buffer.contents buf in
  let cur = ref 0 in
  List.iter
    (fun expected ->
      let v, next = Util.Varint.read s !cur in
      check Alcotest.int "read_at value" v (Util.Varint.read_at s cur);
      check Alcotest.int "value" expected v;
      check Alcotest.int "cursor advanced" next !cur)
    [ 5; 300; 1 lsl 40 ];
  check Alcotest.bool "truncated raises" true
    (try
       ignore (Util.Varint.read_at s cur);
       false
     with Failure _ -> true)

(* --- Crc32 ------------------------------------------------------------ *)

(* The classic byte-at-a-time CRC-32, the reference the sliced kernel must
   match bit for bit. *)
let crc32_reference =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
        done;
        !c)
  in
  fun crc s pos len ->
    let c = ref (crc lxor 0xFFFFFFFF) in
    for i = pos to pos + len - 1 do
      c := table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
    done;
    !c lxor 0xFFFFFFFF

(* Every start 0-9 (aligned or not) and, from each, every tail length 0-7
   short of the string's end, with an arbitrary incoming crc. *)
let prop_crc32_matches_reference =
  QCheck.Test.make ~name:"update = byte-at-a-time reference" ~count:300
    QCheck.(pair (string_of_size Gen.(int_range 0 300)) int)
    (fun (s, crc) ->
      let n = String.length s in
      let ok = ref true in
      for pos = 0 to min 9 n do
        for cut = 0 to min 7 (n - pos) do
          let len = n - pos - cut in
          if Util.Crc32.update crc s pos len <> crc32_reference crc s pos len then ok := false;
          if Util.Crc32.update 0 s pos len <> crc32_reference 0 s pos len then ok := false
        done
      done;
      !ok)

let test_crc32_rejects_bad_range () =
  let raises pos len =
    try
      ignore (Util.Crc32.update 0 "0123456789" pos len);
      false
    with Invalid_argument _ -> true
  in
  List.iter
    (fun (pos, len) ->
      check Alcotest.bool (Printf.sprintf "pos %d len %d raises" pos len) true (raises pos len))
    [ (-1, 2); (0, 11); (3, 8); (10, 1); (11, 0); (0, -1) ];
  check Alcotest.int "empty tail is fine" 0 (Util.Crc32.update 0 "0123456789" 10 0)


let test_crc32_known_value () =
  (* Standard test vector: crc32("123456789") = 0xCBF43926. *)
  check Alcotest.int "known vector" 0xCBF43926 (Util.Crc32.string "123456789")

(* The full CRC-32/ISO-HDLC answer set: an implementation that gets any of
   these right by accident does not exist. *)
let test_crc32_known_vectors () =
  List.iter
    (fun (s, expect) ->
      check Alcotest.int (Printf.sprintf "crc32(%S)" s) expect (Util.Crc32.string s))
    [
      ("", 0x00000000);
      ("a", 0xE8B7BE43);
      ("abc", 0x352441C2);
      ("message digest", 0x20159D7F);
      ("The quick brown fox jumps over the lazy dog", 0x414FA339);
    ]

(* CRC-32 detects every single-bit error regardless of message length —
   the guarantee the storage formats' per-block checksums lean on. *)
let prop_crc32_single_bit_flip =
  QCheck.Test.make ~name:"any single-bit flip changes the crc" ~count:300
    QCheck.(pair (string_of_size Gen.(int_range 1 64)) (pair small_nat small_nat))
    (fun (s, (byte, bit)) ->
      let byte = byte mod String.length s and bit = bit mod 8 in
      let b = Bytes.of_string s in
      Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
      Util.Crc32.string s <> Util.Crc32.string (Bytes.to_string b))

let test_crc32_detects_flip () =
  let s = "hello, persistent memory" in
  let crc = Util.Crc32.string s in
  let corrupted = Bytes.of_string s in
  Bytes.set corrupted 3 'X';
  check Alcotest.bool "flip detected" true
    (crc <> Util.Crc32.string (Bytes.to_string corrupted))

let prop_crc32_incremental =
  QCheck.Test.make ~name:"crc of concatenation via update" ~count:200
    QCheck.(pair string string)
    (fun (a, b) ->
      (* update is not a streaming API across calls (it finalises), so
         check it honours pos/len slicing instead. *)
      let s = a ^ b in
      Util.Crc32.update 0 s 0 (String.length a) = Util.Crc32.string a)

(* --- Histogram ---------------------------------------------------------- *)

let test_histogram_mean_minmax () =
  let h = Util.Histogram.create () in
  List.iter (Util.Histogram.record h) [ 100.0; 200.0; 300.0 ];
  check (Alcotest.float 1e-9) "mean" 200.0 (Util.Histogram.mean h);
  check (Alcotest.float 1e-9) "min" 100.0 (Util.Histogram.min h);
  check (Alcotest.float 1e-9) "max" 300.0 (Util.Histogram.max h);
  check Alcotest.int "count" 3 (Util.Histogram.count h)

let test_histogram_percentile_accuracy () =
  let h = Util.Histogram.create () in
  for i = 1 to 10_000 do
    Util.Histogram.record h (float_of_int i)
  done;
  let p50 = Util.Histogram.percentile h 50.0 in
  let p999 = Util.Histogram.percentile h 99.9 in
  check Alcotest.bool "p50 within 5%" true (Float.abs (p50 -. 5000.0) /. 5000.0 < 0.05);
  check Alcotest.bool "p99.9 within 5%" true (Float.abs (p999 -. 9990.0) /. 9990.0 < 0.05)

let test_histogram_merge () =
  let a = Util.Histogram.create () and b = Util.Histogram.create () in
  Util.Histogram.record a 10.0;
  Util.Histogram.record b 1000.0;
  Util.Histogram.merge a b;
  check Alcotest.int "merged count" 2 (Util.Histogram.count a);
  check (Alcotest.float 1e-9) "merged max" 1000.0 (Util.Histogram.max a);
  check Alcotest.int "source unchanged" 1 (Util.Histogram.count b)

let test_histogram_empty () =
  let h = Util.Histogram.create () in
  check (Alcotest.float 1e-9) "empty mean" 0.0 (Util.Histogram.mean h);
  check (Alcotest.float 1e-9) "empty percentile" 0.0 (Util.Histogram.percentile h 99.0)

let prop_histogram_percentile_bounded =
  QCheck.Test.make ~name:"percentiles within [min,max]" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 100) (float_range 1.0 1e9))
    (fun values ->
      let h = Util.Histogram.create () in
      List.iter (Util.Histogram.record h) values;
      List.for_all
        (fun q ->
          let p = Util.Histogram.percentile h q in
          p >= Util.Histogram.min h -. 1e-9 && p <= Util.Histogram.max h +. 1e-9)
        [ 0.0; 50.0; 90.0; 99.0; 99.9; 100.0 ])

let test_histogram_stddev () =
  let h = Util.Histogram.create () in
  check (Alcotest.float 1e-9) "empty stddev" 0.0 (Util.Histogram.stddev h);
  (* 100,100,100 has zero spread; 0,10,20 has population stddev sqrt(200/3). *)
  List.iter (Util.Histogram.record h) [ 100.0; 100.0; 100.0 ];
  check (Alcotest.float 1e-6) "constant stddev" 0.0 (Util.Histogram.stddev h);
  let g = Util.Histogram.create () in
  List.iter (Util.Histogram.record g) [ 0.0; 10.0; 20.0 ];
  check (Alcotest.float 1e-6) "known stddev" (sqrt (200.0 /. 3.0)) (Util.Histogram.stddev g)

let test_histogram_buckets () =
  let h = Util.Histogram.create () in
  check Alcotest.int "empty has no buckets" 0 (List.length (Util.Histogram.buckets h));
  for i = 1 to 1000 do
    Util.Histogram.record h (float_of_int i)
  done;
  let buckets = Util.Histogram.buckets h in
  check Alcotest.int "bucket counts total the samples" 1000
    (List.fold_left (fun acc (_, c) -> acc + c) 0 buckets);
  let bounds = List.map fst buckets in
  check Alcotest.bool "upper bounds strictly ascending" true
    (List.for_all2 (fun a b -> a < b) (List.filteri (fun i _ -> i < List.length bounds - 1) bounds)
       (List.tl bounds));
  check Alcotest.bool "all counts positive" true (List.for_all (fun (_, c) -> c > 0) buckets);
  check Alcotest.bool "last bound covers max" true
    (List.nth bounds (List.length bounds - 1) >= Util.Histogram.max h)

let prop_histogram_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in q" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 200) (float_range 1.0 1e9))
    (fun values ->
      let h = Util.Histogram.create () in
      List.iter (Util.Histogram.record h) values;
      let qs = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 99.9; 100.0 ] in
      let ps = List.map (Util.Histogram.percentile h) qs in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && nondecreasing rest
        | _ -> true
      in
      nondecreasing ps)

let prop_histogram_merge_preserves_percentiles =
  QCheck.Test.make ~name:"merge equals recording the union" ~count:100
    QCheck.(pair
              (list_of_size Gen.(int_range 1 100) (float_range 1.0 1e9))
              (list_of_size Gen.(int_range 1 100) (float_range 1.0 1e9)))
    (fun (xs, ys) ->
      let a = Util.Histogram.create () and b = Util.Histogram.create () in
      let u = Util.Histogram.create () in
      List.iter (Util.Histogram.record a) xs;
      List.iter (Util.Histogram.record b) ys;
      List.iter (Util.Histogram.record u) (xs @ ys);
      Util.Histogram.merge a b;
      List.for_all
        (fun q ->
          Float.abs (Util.Histogram.percentile a q -. Util.Histogram.percentile u q)
          <= 1e-9 *. Float.abs (Util.Histogram.percentile u q))
        [ 0.0; 50.0; 99.0; 100.0 ]
      && Float.abs (Util.Histogram.stddev a -. Util.Histogram.stddev u)
         <= 1e-6 *. Float.max 1.0 (Util.Histogram.stddev u))

(* --- Kv ----------------------------------------------------------------- *)

let entry_gen =
  QCheck.Gen.(
    map3
      (fun key seq (kind, value) ->
        { Util.Kv.key; seq; kind = (if kind then Util.Kv.Put else Util.Kv.Delete); value })
      (string_size (int_range 1 40))
      (int_range 0 1_000_000)
      (pair bool (string_size (int_range 0 200))))

let entry_arb = QCheck.make ~print:(Fmt.to_to_string Util.Kv.pp) entry_gen

let prop_kv_roundtrip =
  QCheck.Test.make ~name:"kv encode/decode roundtrip" ~count:500 entry_arb (fun e ->
      let buf = Buffer.create 64 in
      Util.Kv.encode buf e;
      let decoded, next = Util.Kv.decode (Buffer.contents buf) 0 in
      decoded = e && next = Buffer.length buf && Util.Kv.encoded_size e = next)

let prop_kv_order_newest_first =
  QCheck.Test.make ~name:"same key orders by seq descending" ~count:200
    QCheck.(pair (int_range 0 1000) (int_range 0 1000))
    (fun (s1, s2) ->
      let a = Util.Kv.entry ~key:"k" ~seq:s1 "x" in
      let b = Util.Kv.entry ~key:"k" ~seq:s2 "y" in
      let c = Util.Kv.compare_entry a b in
      if s1 = s2 then c = 0 else if s1 > s2 then c < 0 else c > 0)

let test_kv_order_key_major () =
  let a = Util.Kv.entry ~key:"a" ~seq:1 "" in
  let b = Util.Kv.entry ~key:"b" ~seq:999 "" in
  check Alcotest.bool "key dominates" true (Util.Kv.compare_entry a b < 0)

(* --- Keys ----------------------------------------------------------------- *)

let test_keys_fixed_int () =
  check Alcotest.string "padded" "0042" (Util.Keys.fixed_int ~width:4 42);
  check Alcotest.bool "overflow raises" true
    (try ignore (Util.Keys.fixed_int ~width:2 1234); false with Invalid_argument _ -> true)

let test_keys_order_preserved () =
  let k1 = Util.Keys.record_key ~table_id:1 ~row_id:99 in
  let k2 = Util.Keys.record_key ~table_id:1 ~row_id:100 in
  let k3 = Util.Keys.record_key ~table_id:2 ~row_id:0 in
  check Alcotest.bool "row order" true (String.compare k1 k2 < 0);
  check Alcotest.bool "table order" true (String.compare k2 k3 < 0)

let test_keys_index_prefix () =
  let k = Util.Keys.index_key ~table_id:3 ~index_id:1 ~column:"cityX" ~row_id:7 in
  let p = Util.Keys.index_scan_prefix ~table_id:3 ~index_id:1 ~column:"cityX" in
  check Alcotest.bool "scan prefix matches" true (Util.Keys.is_prefix ~prefix:p k)

let test_keys_prefix_successor () =
  let p = "abc" in
  let succ = Util.Keys.prefix_successor p in
  check Alcotest.bool "successor above prefix range" true
    (String.compare succ (p ^ "\xff\xff\xff") > 0);
  check Alcotest.bool "successor tight" true (String.compare succ "abd" <= 0);
  check Alcotest.bool "all-0xff raises" true
    (try ignore (Util.Keys.prefix_successor "\xff"); false with Invalid_argument _ -> true)

let prop_common_prefix =
  QCheck.Test.make ~name:"common_prefix_len is a common prefix" ~count:300
    QCheck.(pair string string)
    (fun (a, b) ->
      let n = Util.Keys.common_prefix_len a b in
      n <= min (String.length a) (String.length b)
      && String.sub a 0 n = String.sub b 0 n
      && (n = min (String.length a) (String.length b) || a.[n] <> b.[n]))

let () =
  Alcotest.run "util"
    [
      ( "xoshiro",
        [
          Alcotest.test_case "deterministic" `Quick test_xoshiro_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_xoshiro_seed_sensitivity;
          Alcotest.test_case "bounds" `Quick test_xoshiro_bounds;
          Alcotest.test_case "uniformity" `Quick test_xoshiro_uniformity;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutes;
          Alcotest.test_case "golden draws" `Quick test_xoshiro_golden;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "zeta" `Quick test_zipf_zeta;
          Alcotest.test_case "skew orders ranks" `Quick test_zipf_skew_orders_ranks;
          Alcotest.test_case "theta=0 uniform" `Quick test_zipf_uniform_theta0;
          qtest prop_zipf_in_range;
        ] );
      ( "varint",
        [
          qtest prop_varint_roundtrip;
          qtest prop_varint_string_roundtrip;
          Alcotest.test_case "negative rejected" `Quick test_varint_negative_rejected;
          Alcotest.test_case "truncated input" `Quick test_varint_truncated;
          Alcotest.test_case "multibyte concat" `Quick test_varint_multibyte_concat;
          Alcotest.test_case "read_at cursor" `Quick test_varint_read_at;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known vector" `Quick test_crc32_known_value;
          Alcotest.test_case "known vector set" `Quick test_crc32_known_vectors;
          Alcotest.test_case "detects bit flip" `Quick test_crc32_detects_flip;
          qtest prop_crc32_incremental;
          qtest prop_crc32_single_bit_flip;
          qtest prop_crc32_matches_reference;
          Alcotest.test_case "bad range rejected" `Quick test_crc32_rejects_bad_range;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "mean/min/max" `Quick test_histogram_mean_minmax;
          Alcotest.test_case "percentile accuracy" `Quick test_histogram_percentile_accuracy;
          Alcotest.test_case "merge" `Quick test_histogram_merge;
          Alcotest.test_case "empty histogram" `Quick test_histogram_empty;
          Alcotest.test_case "stddev" `Quick test_histogram_stddev;
          Alcotest.test_case "buckets" `Quick test_histogram_buckets;
          qtest prop_histogram_percentile_bounded;
          qtest prop_histogram_percentile_monotone;
          qtest prop_histogram_merge_preserves_percentiles;
        ] );
      ( "kv",
        [
          qtest prop_kv_roundtrip;
          qtest prop_kv_order_newest_first;
          Alcotest.test_case "key-major order" `Quick test_kv_order_key_major;
        ] );
      ( "keys",
        [
          Alcotest.test_case "fixed_int" `Quick test_keys_fixed_int;
          Alcotest.test_case "order preserved" `Quick test_keys_order_preserved;
          Alcotest.test_case "index prefix" `Quick test_keys_index_prefix;
          Alcotest.test_case "prefix successor" `Quick test_keys_prefix_successor;
          qtest prop_common_prefix;
        ] );
    ]
