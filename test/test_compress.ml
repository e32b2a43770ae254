(* Tests for the LZ (snappy-like) codec. The store's prefix compression
   is Pm_table's own planner, tested in test_pmtable. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* --- Lz ------------------------------------------------------------------ *)

let prop_lz_roundtrip =
  QCheck.Test.make ~name:"lz roundtrip on arbitrary bytes" ~count:500
    QCheck.(string_of_size Gen.(int_range 0 2000))
    (fun s -> Compress.Lz.decompress (Compress.Lz.compress s) = s)

let prop_lz_roundtrip_repetitive =
  QCheck.Test.make ~name:"lz roundtrip on repetitive input" ~count:200
    QCheck.(pair (string_of_size Gen.(int_range 1 20)) (int_range 1 200))
    (fun (unit, reps) ->
      let s = String.concat "" (List.init reps (fun _ -> unit)) in
      Compress.Lz.decompress (Compress.Lz.compress s) = s)

let test_lz_compresses_redundancy () =
  let s = String.concat "" (List.init 200 (fun i -> Printf.sprintf "key%06d-value" i)) in
  let c = Compress.Lz.compress s in
  check Alcotest.bool "smaller than input" true (String.length c < String.length s)

let test_lz_incompressible_bounded_expansion () =
  let rng = Util.Xoshiro.create 99 in
  let s = String.init 1000 (fun _ -> Char.chr (Util.Xoshiro.int rng 256)) in
  let c = Compress.Lz.compress s in
  (* Worst case adds tag+length bytes per literal run; must stay modest. *)
  check Alcotest.bool "expansion < 10%" true
    (String.length c < String.length s + (String.length s / 10) + 16)

let test_lz_empty_and_tiny () =
  check Alcotest.string "empty" "" (Compress.Lz.decompress (Compress.Lz.compress ""));
  check Alcotest.string "one byte" "a" (Compress.Lz.decompress (Compress.Lz.compress "a"));
  check Alcotest.string "three bytes" "abc" (Compress.Lz.decompress (Compress.Lz.compress "abc"))

let test_lz_overlapping_copy () =
  (* RLE-style: copy that overlaps its own output. *)
  let s = String.make 500 'z' in
  check Alcotest.string "rle" s (Compress.Lz.decompress (Compress.Lz.compress s))

let test_lz_rejects_garbage () =
  check Alcotest.bool "garbage raises" true
    (try ignore (Compress.Lz.decompress "\x05Qxxxx"); false with Failure _ -> true)

let () =
  Alcotest.run "compress"
    [
      ( "lz",
        [
          qtest prop_lz_roundtrip;
          qtest prop_lz_roundtrip_repetitive;
          Alcotest.test_case "compresses redundancy" `Quick test_lz_compresses_redundancy;
          Alcotest.test_case "bounded expansion" `Quick test_lz_incompressible_bounded_expansion;
          Alcotest.test_case "empty and tiny" `Quick test_lz_empty_and_tiny;
          Alcotest.test_case "overlapping copy" `Quick test_lz_overlapping_copy;
          Alcotest.test_case "rejects garbage" `Quick test_lz_rejects_garbage;
        ] );
    ]
