(* A benchmark run: repetitions of one workload at one seed until the time
   budget is spent. Every repetition rebuilds the store from scratch, so
   set-up is timed several times per run, and every repetition must
   reproduce the first one's virtual-clock metrics exactly. Host-clock
   metrics are the median over repetitions.

   A traced run spends half its budget on untraced repetitions and half on
   traced ones. The traced ones must reproduce the untraced virtual-clock
   metrics exactly; their host time over the untraced host time, minus
   one, is the tracing overhead. *)

type outcome = {
  metrics : Run.metric list;
  attempted : int;
  failed : int;
  problems : string list;  (** empty when every check passed *)
  reps : int;
}

let min_reps = 3

(* Run [f] at least [min] times, then again while another run of the
   last one's length still fits in [budget_s] host seconds. *)
let repeat ~min ~budget_s f =
  let t0 = Spans.host_ns () in
  let rec go acc n last_s =
    let elapsed = (Spans.host_ns () -. t0) /. 1e9 in
    if n >= min && elapsed +. last_s > budget_s then List.rev acc
    else
      let s0 = Spans.host_ns () in
      let r = f () in
      go (r :: acc) (n + 1) ((Spans.host_ns () -. s0) /. 1e9)
  in
  go [] 0 0.0

let find name (ms : Run.metric list) = List.find_opt (fun (m : Run.metric) -> m.name = name) ms

(* Virtual-clock metrics of [r] that differ from [first]'s, over the names
   both report. *)
let virtual_diffs ~what (first : Run.result) (r : Run.result) =
  List.filter_map
    (fun (m : Run.metric) ->
      match (m.clock, find m.name first.metrics) with
      | Run.Virtual, Some b when not (Float.equal b.value m.value) ->
          Some (Printf.sprintf "%s: %s = %.17g, first repetition %.17g" what m.name m.value b.value)
      | _ -> None)
    r.metrics

(* The first repetition's metrics, each host-clock one replaced by its
   median over all repetitions. *)
let aggregate = function
  | [] -> []
  | (first : Run.result) :: _ as rs ->
      List.map
        (fun (m : Run.metric) ->
          match m.clock with
          | Run.Virtual -> m
          | Run.Host ->
              let vs =
                List.filter_map
                  (fun (r : Run.result) ->
                    Option.map (fun (x : Run.metric) -> x.value) (find m.name r.metrics))
                  rs
              in
              { m with value = Samples.median vs })
        first.metrics

let violations what (r : Run.result) =
  match r.violations with
  | 0, _ -> []
  | n, shown -> Printf.sprintf "%s: %d check violations" what n :: shown

let coverage_tolerance = 0.05

let run ?drop_put ?trace_file ~trace ~seconds (w : Workloads.t) ~seed =
  let untraced =
    repeat ~min:(if trace then 1 else min_reps)
      ~budget_s:(if trace then seconds /. 2.0 else seconds)
      (fun () -> Run.run ?drop_put w ~seed)
  in
  let traced =
    if trace then
      repeat ~min:1 ~budget_s:(seconds /. 2.0) (fun () -> Run.run ~trace:true ?drop_put w ~seed)
    else []
  in
  let first = List.hd untraced in
  let plain = aggregate untraced in
  let metrics =
    if not trace then plain
    else
      let ms = aggregate traced in
      match (find "host.measure_s" ms, find "host.measure_s" plain) with
      | Some t, Some p ->
          let overhead = (t.value /. p.value) -. 1.0 in
          ms @ [ { t with name = "host.trace_overhead"; value = overhead; unit_ = "ratio" } ]
      | _ -> ms
  in
  (match (trace_file, traced) with
  | Some path, { spans = Some sp; _ } :: _ -> Spans.write_chrome sp path
  | _ -> ());
  let coverage =
    match find "attr.coverage" metrics with
    | Some c when Float.abs (c.value -. 1.0) > coverage_tolerance ->
        [ Printf.sprintf "attr op phases cover %.4f of measured call time" c.value ]
    | _ -> []
  in
  {
    metrics;
    attempted = first.attempted;
    failed = first.failed;
    problems =
      List.concat_map (violations "untraced") untraced
      @ List.concat_map (violations "traced") traced
      @ List.concat_map (virtual_diffs ~what:"untraced repetition" first) (List.tl untraced)
      @ List.concat_map (virtual_diffs ~what:"traced run" first) traced
      @ coverage;
    reps = List.length untraced + List.length traced;
  }
