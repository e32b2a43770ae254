(* Memtable tests: equivalence with a model map under random operations,
   version semantics, ordering, range queries, and cost charging. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let make () =
  let clock = Sim.Clock.create () in
  (clock, Memtable.create clock)

let test_insert_get () =
  let _, mt = make () in
  Memtable.insert mt (Util.Kv.entry ~key:"a" ~seq:1 "v1");
  Memtable.insert mt (Util.Kv.entry ~key:"b" ~seq:2 "v2");
  check (Alcotest.option Alcotest.string) "a" (Some "v1") (Memtable.get mt "a");
  check (Alcotest.option Alcotest.string) "b" (Some "v2") (Memtable.get mt "b");
  check (Alcotest.option Alcotest.string) "missing" None (Memtable.get mt "c")

let test_newest_version_wins () =
  let _, mt = make () in
  Memtable.insert mt (Util.Kv.entry ~key:"k" ~seq:1 "old");
  Memtable.insert mt (Util.Kv.entry ~key:"k" ~seq:5 "new");
  Memtable.insert mt (Util.Kv.entry ~key:"k" ~seq:3 "middle");
  check (Alcotest.option Alcotest.string) "newest" (Some "new") (Memtable.get mt "k")

let test_tombstone_hides () =
  let _, mt = make () in
  Memtable.insert mt (Util.Kv.entry ~key:"k" ~seq:1 "v");
  Memtable.insert mt (Util.Kv.tombstone ~key:"k" ~seq:2);
  check (Alcotest.option Alcotest.string) "deleted" None (Memtable.get mt "k");
  (* find still surfaces the tombstone for the merge path *)
  match Memtable.find mt "k" with
  | Some e -> check Alcotest.bool "tombstone visible to find" true (e.Util.Kv.kind = Util.Kv.Delete)
  | None -> Alcotest.fail "find lost the tombstone"

let test_to_list_sorted () =
  let _, mt = make () in
  List.iter
    (fun (k, s) -> Memtable.insert mt (Util.Kv.entry ~key:k ~seq:s "v"))
    [ ("c", 1); ("a", 2); ("b", 3); ("a", 9); ("c", 4) ];
  let l = Memtable.to_list mt in
  check Alcotest.int "all entries" 5 (List.length l);
  let sorted = List.sort Util.Kv.compare_entry l in
  check Alcotest.bool "sorted by (key asc, seq desc)" true (l = sorted)

let test_range () =
  let _, mt = make () in
  for i = 0 to 9 do
    Memtable.insert mt (Util.Kv.entry ~key:(Printf.sprintf "k%02d" i) ~seq:i "v")
  done;
  let r = Memtable.range mt ~start:"k03" ~stop:"k07" in
  check
    (Alcotest.list Alcotest.string)
    "range keys" [ "k03"; "k04"; "k05"; "k06" ]
    (List.map (fun e -> e.Util.Kv.key) r)

let test_byte_size_tracks () =
  let _, mt = make () in
  check Alcotest.int "empty" 0 (Memtable.byte_size mt);
  let e = Util.Kv.entry ~key:"key" ~seq:1 (String.make 100 'v') in
  Memtable.insert mt e;
  check Alcotest.int "tracks encoded size" (Util.Kv.encoded_size e) (Memtable.byte_size mt)

let test_charges_clock () =
  let clock, mt = make () in
  let t0 = Sim.Clock.now clock in
  for i = 0 to 99 do
    Memtable.insert mt (Util.Kv.entry ~key:(string_of_int i) ~seq:i "v")
  done;
  check Alcotest.bool "inserts charge time" true (Sim.Clock.now clock > t0);
  let t1 = Sim.Clock.now clock in
  ignore (Memtable.get mt "50");
  check Alcotest.bool "reads charge time" true (Sim.Clock.now clock > t1)

(* Model-based property: a random op sequence agrees with a reference map
   keyed on newest-seq-wins. *)
let prop_model_equivalence =
  let op_gen =
    QCheck.Gen.(
      pair (string_size ~gen:(char_range 'a' 'f') (int_range 1 3)) (option (string_size (int_range 0 8))))
  in
  QCheck.Test.make ~name:"model equivalence with deletes" ~count:200
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 120) op_gen))
    (fun ops ->
      let _, mt = make () in
      let model = Hashtbl.create 16 in
      List.iteri
        (fun seq (key, value) ->
          match value with
          | Some v ->
              Hashtbl.replace model key (Some v);
              Memtable.insert mt (Util.Kv.entry ~key ~seq v)
          | None ->
              Hashtbl.replace model key None;
              Memtable.insert mt (Util.Kv.tombstone ~key ~seq))
        ops;
      Hashtbl.fold
        (fun key expected acc -> acc && Memtable.get mt key = expected)
        model true)

let prop_to_list_count =
  QCheck.Test.make ~name:"to_list preserves every version" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 80) (string_gen_of_size Gen.(int_range 1 2) Gen.(char_range 'a' 'd')))
    (fun keys ->
      let _, mt = make () in
      List.iteri (fun seq key -> Memtable.insert mt (Util.Kv.entry ~key ~seq "v")) keys;
      List.length (Memtable.to_list mt) = List.length keys)

let () =
  Alcotest.run "memtable"
    [
      ( "memtable",
        [
          Alcotest.test_case "insert/get" `Quick test_insert_get;
          Alcotest.test_case "newest version wins" `Quick test_newest_version_wins;
          Alcotest.test_case "tombstone hides" `Quick test_tombstone_hides;
          Alcotest.test_case "to_list sorted" `Quick test_to_list_sorted;
          Alcotest.test_case "range" `Quick test_range;
          Alcotest.test_case "byte size" `Quick test_byte_size_tracks;
          Alcotest.test_case "charges clock" `Quick test_charges_clock;
          qtest prop_model_equivalence;
          qtest prop_to_list_count;
        ] );
    ]
