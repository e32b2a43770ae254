(* Tests for the merge machinery and the three cost models. *)

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let clock () = Sim.Clock.create ()

let e key seq value = Util.Kv.entry ~key ~seq value
let d key seq = Util.Kv.tombstone ~key ~seq

(* --- Merge ------------------------------------------------------------- *)

let test_merge_two_runs () =
  let run1 = [ e "a" 1 "a1"; e "c" 3 "c3" ] in
  let run2 = [ e "b" 2 "b2"; e "d" 4 "d4" ] in
  let merged, stats = Compaction.Merge.merge ~clock:(clock ()) [ run1; run2 ] in
  check (Alcotest.list Alcotest.string) "interleaved" [ "a"; "b"; "c"; "d" ]
    (List.map (fun (x : Util.Kv.entry) -> x.key) merged);
  check Alcotest.int "inputs" 4 stats.Compaction.Merge.input_entries;
  check Alcotest.int "outputs" 4 stats.output_entries

let test_merge_shadows_old_versions () =
  let run1 = [ e "k" 5 "new" ] in
  let run2 = [ e "k" 2 "old"; e "k" 1 "older" ] in
  let merged, stats = Compaction.Merge.merge ~clock:(clock ()) [ run1; run2 ] in
  check Alcotest.int "one survivor" 1 (List.length merged);
  check Alcotest.string "newest survives" "new" (List.hd merged).Util.Kv.value;
  check Alcotest.int "dropped versions" 2 stats.Compaction.Merge.dropped_versions

let test_merge_tombstones_kept_by_default () =
  let merged, _ = Compaction.Merge.merge ~clock:(clock ()) [ [ d "k" 5 ]; [ e "k" 2 "v" ] ] in
  check Alcotest.int "tombstone survives" 1 (List.length merged);
  check Alcotest.bool "is a tombstone" true ((List.hd merged).Util.Kv.kind = Util.Kv.Delete)

let test_merge_tombstones_dropped_at_bottom () =
  let merged, stats =
    Compaction.Merge.merge ~drop_tombstones:true ~clock:(clock ())
      [ [ d "k" 5 ]; [ e "k" 2 "v"; e "live" 1 "x" ] ]
  in
  check (Alcotest.list Alcotest.string) "only live key" [ "live" ]
    (List.map (fun (x : Util.Kv.entry) -> x.key) merged);
  check Alcotest.int "tombstone dropped" 1 stats.Compaction.Merge.dropped_tombstones

let test_merge_charges_cpu () =
  let c = clock () in
  let t0 = Sim.Clock.now c in
  ignore (Compaction.Merge.merge ~clock:c [ List.init 100 (fun i -> e (Printf.sprintf "%03d" i) i "v") ]);
  check Alcotest.bool "cpu charged" true (Sim.Clock.now c > t0)

let test_merge_empty_inputs () =
  let merged, stats = Compaction.Merge.merge ~clock:(clock ()) [ []; []; [] ] in
  check Alcotest.int "empty" 0 (List.length merged);
  check Alcotest.int "no inputs" 0 stats.Compaction.Merge.input_entries

(* Model: merge = sort entries, keep max-seq per key. *)
let prop_merge_model =
  let run_gen =
    QCheck.Gen.(
      list_size (int_range 0 40)
        (pair (string_size ~gen:(char_range 'a' 'e') (int_range 1 2)) (int_range 0 1000)))
  in
  QCheck.Test.make ~name:"merge = model (newest per key)" ~count:200
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 0 5) run_gen))
    (fun raw_runs ->
      (* give entries globally unique seqs so 'newest' is well-defined *)
      let seq = ref 0 in
      let runs =
        List.map
          (fun pairs ->
            List.map
              (fun (key, _) ->
                incr seq;
                e key !seq "v")
              pairs
            |> List.sort Util.Kv.compare_entry)
          raw_runs
      in
      let merged, _ = Compaction.Merge.merge ~clock:(clock ()) runs in
      let model = Hashtbl.create 16 in
      List.iter
        (fun run ->
          List.iter
            (fun (x : Util.Kv.entry) ->
              match Hashtbl.find_opt model x.key with
              | Some (p : Util.Kv.entry) when p.seq >= x.seq -> ()
              | _ -> Hashtbl.replace model x.key x)
            run)
        runs;
      List.length merged = Hashtbl.length model
      && List.for_all
           (fun (x : Util.Kv.entry) ->
             match Hashtbl.find_opt model x.key with
             | Some m -> m.seq = x.seq
             | None -> false)
           merged
      && merged = List.sort Util.Kv.compare_entry merged)

(* The streamed data plane against the list one: SSTables read through
   cursors and merged into a callback give the list merge's output, stats
   and clock, bit for bit. Each side runs on its own fresh device so both
   start from the same absolute time. *)
let prop_merge_stream_matches_merge =
  let run_gen =
    QCheck.Gen.(
      list_size (int_range 1 40)
        (pair (string_size ~gen:(char_range 'a' 'h') (int_range 1 2)) (string_size (int_range 0 30))))
  in
  QCheck.Test.make ~name:"merge_stream on cursors = list merge" ~count:100
    (QCheck.make QCheck.Gen.(pair bool (list_size (int_range 0 5) run_gen)))
    (fun (drop_tombstones, raw_runs) ->
      let seq = ref 0 in
      let runs =
        List.map
          (fun pairs ->
            List.map
              (fun (key, value) ->
                incr seq;
                if !seq mod 7 = 0 then d key !seq else e key !seq value)
              pairs
            |> List.sort Util.Kv.compare_entry)
          raw_runs
      in
      let setup () =
        let clock = Sim.Clock.create () in
        let ssd = Ssd.create clock in
        (clock, List.map (Sstable.of_sorted_list ~block_bytes:64 ssd) runs)
      in
      let clock_a, tables_a = setup () in
      let merged, stats_a =
        Compaction.Merge.merge ~drop_tombstones ~clock:clock_a (List.map Sstable.to_list tables_a)
      in
      let clock_b, tables_b = setup () in
      let sources =
        List.map
          (fun sst ->
            let c = Sstable.cursor sst in
            fun () -> Sstable.next c)
          tables_b
      in
      let out = ref [] in
      let stats_b =
        Compaction.Merge.merge_stream ~drop_tombstones ~clock:clock_b sources (fun x ->
            out := x :: !out)
      in
      merged = List.rev !out && stats_a = stats_b
      && Sim.Clock.now clock_a = Sim.Clock.now clock_b)

(* --- split_run -------------------------------------------------------- *)

let test_split_run_sizes () =
  let entries = List.init 100 (fun i -> e (Printf.sprintf "%03d" i) i (String.make 50 'v')) in
  let slices = Compaction.Merge.split_run ~target_bytes:300 entries in
  check Alcotest.bool "several slices" true (List.length slices > 1);
  check Alcotest.int "no entry lost" 100 (List.fold_left (fun a s -> a + List.length s) 0 slices);
  (* concatenation preserves order *)
  check Alcotest.bool "order preserved" true (List.concat slices = entries)

let test_split_run_never_splits_key_versions () =
  let entries =
    [ e "a" 9 (String.make 100 'x'); e "a" 8 (String.make 100 'x'); e "a" 7 (String.make 100 'x');
      e "b" 1 "small" ]
  in
  let slices = Compaction.Merge.split_run ~target_bytes:150 entries in
  (* all three versions of "a" must stay in one slice *)
  let slice_of_a =
    List.filter (fun s -> List.exists (fun (x : Util.Kv.entry) -> x.key = "a") s) slices
  in
  check Alcotest.int "one slice holds every version of a" 1 (List.length slice_of_a);
  check Alcotest.int "all versions together" 3
    (List.length (List.filter (fun (x : Util.Kv.entry) -> x.key = "a") (List.hd slice_of_a)))

let prop_split_concat_identity =
  QCheck.Test.make ~name:"split_run concat = input" ~count:200
    QCheck.(pair (int_range 50 500) (list_of_size Gen.(int_range 0 60) (string_of_size Gen.(int_range 1 4))))
    (fun (target, keys) ->
      let entries =
        List.mapi (fun i k -> e k i "value") (List.sort compare keys)
        |> List.sort Util.Kv.compare_entry
      in
      List.concat (Compaction.Merge.split_run ~target_bytes:target entries) = entries)

(* The cut rule as the list code stated it before the cutter existed. *)
let reference_split ~target_bytes entries =
  let rec loop acc current current_bytes = function
    | [] -> List.rev (if current = [] then acc else List.rev current :: acc)
    | x :: rest ->
        let size = Util.Kv.encoded_size x in
        let same_key =
          match current with
          | (prev : Util.Kv.entry) :: _ -> prev.key = x.Util.Kv.key
          | [] -> false
        in
        if current <> [] && current_bytes + size > target_bytes && not same_key then
          loop (List.rev current :: acc) [ x ] size rest
        else loop acc (x :: current) (current_bytes + size) rest
  in
  loop [] [] 0 entries

let prop_cutter_matches_split_rule =
  QCheck.Test.make ~name:"cutter slices = split_run rule" ~count:200
    QCheck.(
      pair (int_range 1 300)
        (list_of_size Gen.(int_range 0 80)
           (pair (string_gen_of_size Gen.(int_range 1 2) Gen.(char_range 'a' 'f'))
              (string_of_size Gen.(int_range 0 50)))))
    (fun (target_bytes, pairs) ->
      let entries =
        List.mapi (fun i (k, v) -> e k i v) pairs |> List.sort Util.Kv.compare_entry
      in
      let cut = Compaction.Merge.cutter ~target_bytes in
      let slices =
        List.fold_left
          (fun acc x ->
            match (Compaction.Merge.starts_slice cut x, acc) with
            | false, current :: done_ -> (x :: current) :: done_
            | _ -> [ x ] :: acc)
          [] entries
        |> List.rev_map List.rev
      in
      let expected = reference_split ~target_bytes entries in
      slices = expected && Compaction.Merge.split_run ~target_bytes entries = expected)

(* --- Cost models -------------------------------------------------------- *)

let params = Compaction.Cost_model.default

let test_eq1_hot_partition_triggers () =
  (* many unsorted tables + hot reads -> compact *)
  check Alcotest.bool "hot triggers" true
    (Compaction.Cost_model.should_internal_compact_rf params ~reads_per_sec:1e6 ~unsorted:8);
  (* cold partition: no reads -> never *)
  check Alcotest.bool "cold never triggers" false
    (Compaction.Cost_model.should_internal_compact_rf params ~reads_per_sec:0.0 ~unsorted:100);
  (* no unsorted tables -> nothing to do *)
  check Alcotest.bool "sorted-only never triggers" false
    (Compaction.Cost_model.should_internal_compact_rf params ~reads_per_sec:1e9 ~unsorted:0)

let test_eq1_monotone_in_unsorted () =
  let d n = Compaction.Cost_model.delta_cost_rf params ~reads_per_sec:1e5 ~unsorted:n in
  check Alcotest.bool "more unsorted, more benefit" true (d 10 > d 2)

let test_eq2_update_heavy_triggers () =
  check Alcotest.bool "update-heavy triggers" true
    (Compaction.Cost_model.should_internal_compact_wf params ~size:params.tau_w
       ~l0_records:1000 ~updates:900);
  check Alcotest.bool "insert-only never triggers" false
    (Compaction.Cost_model.should_internal_compact_wf params ~size:params.tau_w
       ~l0_records:1000 ~updates:0);
  check Alcotest.bool "small partition gated by tau_w" false
    (Compaction.Cost_model.should_internal_compact_wf params ~size:(params.tau_w - 1)
       ~l0_records:1000 ~updates:900)

let test_eq3_greedy_respects_capacity () =
  let p = { params with tau_t = 100 } in
  let chosen =
    Compaction.Cost_model.select_preserved p
      [ (0, 1000, 60); (1, 900, 60); (2, 10, 30); (3, 800, 39) ]
  in
  let total =
    List.fold_left
      (fun acc id -> acc + List.assoc id [ (0, 60); (1, 60); (2, 30); (3, 39) ])
      0 chosen
  in
  check Alcotest.bool "capacity respected" true (total <= 100);
  check Alcotest.bool "hottest density first" true (List.mem 3 chosen)

let test_eq3_prefers_read_density () =
  let p = { params with tau_t = 50 } in
  (* id 1 has fewer reads but much better reads/size density *)
  let chosen = Compaction.Cost_model.select_preserved p [ (0, 1000, 200); (1, 400, 40) ] in
  check (Alcotest.list Alcotest.int) "density winner" [ 1 ] chosen

let prop_eq3_feasible =
  QCheck.Test.make ~name:"greedy knapsack always feasible" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 20) (pair (int_range 0 10000) (int_range 1 10_000_000)))
    (fun cands ->
      let cands = List.mapi (fun i (r, s) -> (i, r, s)) cands in
      let chosen = Compaction.Cost_model.select_preserved params cands in
      let size_of id = List.find_map (fun (i, _, s) -> if i = id then Some s else None) cands in
      let total = List.fold_left (fun acc id -> acc + Option.get (size_of id)) 0 chosen in
      total <= params.tau_m + params.tau_t && total <= params.tau_t)

let test_major_threshold () =
  check Alcotest.bool "under" false
    (Compaction.Cost_model.should_major_compact params ~l0_bytes:(params.tau_m - 1));
  check Alcotest.bool "at" true
    (Compaction.Cost_model.should_major_compact params ~l0_bytes:params.tau_m)

let () =
  Alcotest.run "compaction"
    [
      ( "merge",
        [
          Alcotest.test_case "two runs" `Quick test_merge_two_runs;
          Alcotest.test_case "shadows old versions" `Quick test_merge_shadows_old_versions;
          Alcotest.test_case "tombstones kept" `Quick test_merge_tombstones_kept_by_default;
          Alcotest.test_case "tombstones dropped at bottom" `Quick test_merge_tombstones_dropped_at_bottom;
          Alcotest.test_case "charges cpu" `Quick test_merge_charges_cpu;
          Alcotest.test_case "empty inputs" `Quick test_merge_empty_inputs;
          qtest prop_merge_model;
          qtest prop_merge_stream_matches_merge;
        ] );
      ( "split_run",
        [
          Alcotest.test_case "sizes" `Quick test_split_run_sizes;
          Alcotest.test_case "keeps key versions together" `Quick test_split_run_never_splits_key_versions;
          qtest prop_split_concat_identity;
          qtest prop_cutter_matches_split_rule;
        ] );
      ( "cost models",
        [
          Alcotest.test_case "eq1 hot/cold" `Quick test_eq1_hot_partition_triggers;
          Alcotest.test_case "eq1 monotone" `Quick test_eq1_monotone_in_unsorted;
          Alcotest.test_case "eq2 updates" `Quick test_eq2_update_heavy_triggers;
          Alcotest.test_case "eq3 capacity" `Quick test_eq3_greedy_respects_capacity;
          Alcotest.test_case "eq3 density" `Quick test_eq3_prefers_read_density;
          qtest prop_eq3_feasible;
          Alcotest.test_case "major threshold" `Quick test_major_threshold;
        ] );
    ]
