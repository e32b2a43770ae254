(* Smoke test of the front-door benchmark: every workload at 1/50 scale
   with every check on, the traced run reproducing the untraced
   virtual-clock metrics, every metric BENCHMARK.json names being
   reported, and a planted bug the shadow check must catch. *)

open Pmbench

let small w = Workloads.scaled w ~divisor:50
let spec = lazy (Spec.load "../../BENCHMARK.json")
let names l = List.map (fun (m : Spec.metric) -> m.name) l

let test_checks_pass (w : Workloads.t) () =
  List.iter
    (fun seed ->
      let r = Run.run (small w) ~seed in
      Alcotest.(check int) (Printf.sprintf "violations at seed %d" seed) 0 (fst r.violations);
      Alcotest.(check int) "failed steps" 0 r.failed)
    [ w.seed; w.seed + 1 ]

(* One untraced and one traced repetition: the traced one must reproduce
   every virtual-clock metric, survive crash and recovery, and keep Attr
   coverage; both together must report every metric BENCHMARK.json names. *)
let test_traced_matches (w : Workloads.t) () =
  let spec = Lazy.force spec in
  let plain = Bench.run ~trace:false ~seconds:0.0 (small w) ~seed:w.seed in
  let traced = Bench.run ~trace:true ~seconds:0.0 (small w) ~seed:w.seed in
  Alcotest.(check (list string)) "untraced problems" [] plain.problems;
  Alcotest.(check (list string)) "traced problems" [] traced.problems;
  let missing wanted (o : Bench.outcome) =
    List.filter (fun n -> Bench.find n o.metrics = None) (names wanted)
  in
  Alcotest.(check (list string)) "end-to-end metrics reported" [] (missing spec.end_to_end plain);
  Alcotest.(check (list string)) "per-layer metrics reported" [] (missing spec.per_layer traced)

let test_spec_names_workloads () =
  Alcotest.(check (list string))
    "BENCHMARK.json workloads"
    (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)
    (List.map fst (Lazy.force spec).workloads)

(* The store never sees the run's last put although the client was told it
   succeeded (nothing can overwrite it later): the shadow check must
   notice. *)
let test_dropped_put_caught () =
  let w = small Workloads.ycsb_a_spill in
  let clean = Run.run w ~seed:w.seed in
  let planted = Run.run ~drop_put:clean.puts w ~seed:w.seed in
  Alcotest.(check int) "clean run" 0 (fst clean.violations);
  Alcotest.(check bool) "violations found" true (fst planted.violations > 0)

let () =
  let per_workload f =
    List.map (fun (w : Workloads.t) -> Alcotest.test_case w.name `Quick (f w)) Workloads.all
  in
  Alcotest.run "benchmark"
    [
      ("checks pass", per_workload test_checks_pass);
      ("traced run", per_workload test_traced_matches);
      ( "definition",
        [ Alcotest.test_case "BENCHMARK.json workloads" `Quick test_spec_names_workloads ] );
      ( "planted",
        [ Alcotest.test_case "dropped acked put is caught" `Quick test_dropped_put_caught ] );
    ]
