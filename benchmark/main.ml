(* The front-door benchmark.

     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
     main.exe agree DIR_A DIR_B
     main.exe list

   A run prints every metric as "workload metric value unit", then, as its
   last line, one JSON object with the metrics BENCHMARK.json names: the
   end-to-end ones, or with --trace 1 the per-layer ones. It exits 1 when
   a correctness check fails. *)

open Pmbench

let usage =
  "main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]\n\
   main.exe agree DIR_A DIR_B\n\
   main.exe list"

(* Run from the repository root. *)
let spec_path = "BENCHMARK.json"
let trace_dir = Filename.concat "benchmark" "out"

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let json_result ~correct ~attempted ~failed metrics =
  Obs.Json.(
    to_string
      (Obj
         [
           ("correct", Bool correct);
           ("attempted", Int attempted);
           ("failed", Int failed);
           ( "metrics",
             Obj
               (List.map
                  (fun (m : Run.metric) ->
                    (m.name, Obj [ ("value", Float m.value); ("unit", String m.unit_) ]))
                  metrics) );
         ]))

let run_cmd args =
  let workload = ref "" and seed = ref None and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse_argv ~current:(ref 0) args
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun n -> seed := Some n), "N input seed (default: the workload's)");
      ("--seconds", Arg.Set_float seconds, "S host seconds to spend repeating the workload");
      ("--trace", Arg.Set_int trace, "0|1 also run traced and report per-layer metrics");
    ]
    (fun a -> die "unexpected argument %S\n%s" a usage)
    usage;
  let spec = Spec.load spec_path in
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None -> die "unknown workload %S; see main.exe list" !workload
  in
  let seed = Option.value !seed ~default:w.seed in
  let trace = !trace = 1 in
  let trace_file =
    if trace then begin
      if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
      Some (Filename.concat trace_dir (w.name ^ ".trace.json"))
    end
    else None
  in
  let o = Bench.run ?trace_file ~trace ~seconds:!seconds w ~seed in
  List.iter
    (fun (m : Run.metric) -> Printf.printf "%s %s %.17g %s\n" w.name m.name m.value m.unit_)
    o.metrics;
  Printf.printf "%s repetitions %d count\n" w.name o.reps;
  let wanted = if trace then spec.per_layer else spec.end_to_end in
  let picked =
    List.map
      (fun (s : Spec.metric) ->
        match Bench.find s.name o.metrics with
        | Some m when m.unit_ = s.unit_ && Float.is_finite m.value -> m
        | Some m ->
            die "%s: metric %s is %g %s, BENCHMARK.json says unit %s" w.name s.name m.value
              m.unit_ s.unit_
        | None -> die "%s: no metric %s" w.name s.name)
      wanted
  in
  List.iter (fun p -> Printf.eprintf "%s: CHECK FAILED: %s\n" w.name p) o.problems;
  let correct = o.problems = [] in
  print_endline (json_result ~correct ~attempted:o.attempted ~failed:o.failed picked);
  if not correct then exit 1

let agree_cmd = function
  | [ a; b ] -> if not (Agree.run (Spec.load spec_path) a b) then exit 1
  | _ -> die "%s" usage

let () =
  try
    match Array.to_list Sys.argv with
    | _ :: "agree" :: dirs -> agree_cmd dirs
    | _ :: "list" :: _ ->
        let spec = Spec.load spec_path in
        List.iter
          (fun (w : Workloads.t) ->
            Printf.printf "%s (seed %d): %s\n" w.name w.seed
              (Option.value ~default:"" (List.assoc_opt w.name spec.workloads)))
          Workloads.all
    | _ -> run_cmd Sys.argv
  with
  | Arg.Bad msg -> die "%s" msg
  | Arg.Help msg -> print_string msg
  | Failure msg | Sys_error msg -> die "%s" msg
