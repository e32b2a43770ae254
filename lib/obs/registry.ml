(* Pull-based metrics registry.

   Subsystems register readouts under stable dotted namespaces — the
   engine and its devices ("engine.", "pmem.", "ssd."), the coroutine
   scheduler ("sched."), the compaction pipeline ("pipeline.", including
   the per-stage queue-depth gauges), per-op latency attribution
   ("attr."), the sharded front door ("shard."), fault-injection plans
   ("fault.") and the sanitizers ("sanitize."). Exporters sample every
   readout at exposition time, so the registry adds zero cost to the hot
   paths — the counters themselves already exist in each subsystem's
   stats record. Two expositions: Prometheus text format (dots mapped to
   underscores, histograms as cumulative [le] buckets) and a JSON
   snapshot. *)

type kind = Counter | Gauge

type metric =
  | Int_metric of { kind : kind; help : string; get : unit -> int }
  | Float_metric of { kind : kind; help : string; get : unit -> float }
  | Histogram_metric of { help : string; get : unit -> Util.Histogram.t }

type t = { mutable metrics : (string * metric) list (* newest first *) }

let create () = { metrics = [] }

let check_fresh t ~help name =
  if help = "" then
    invalid_arg (Printf.sprintf "Obs.Registry: metric %S has no help" name);
  if List.mem_assoc name t.metrics then
    invalid_arg (Printf.sprintf "Obs.Registry: duplicate metric %S" name)

let register_int t ?(kind = Counter) ~help name get =
  check_fresh t ~help name;
  t.metrics <- (name, Int_metric { kind; help; get }) :: t.metrics

let register_float t ?(kind = Gauge) ~help name get =
  check_fresh t ~help name;
  t.metrics <- (name, Float_metric { kind; help; get }) :: t.metrics

let register_histogram t ~help name get =
  check_fresh t ~help name;
  t.metrics <- (name, Histogram_metric { help; get }) :: t.metrics

let names t = List.rev_map fst t.metrics

(* --- JSON snapshot ------------------------------------------------------ *)

let histogram_json h =
  Json.Obj
    [
      ("count", Json.Int (Util.Histogram.count h));
      ("mean", Json.Float (Util.Histogram.mean h));
      ("stddev", Json.Float (Util.Histogram.stddev h));
      ("min", Json.Float (Util.Histogram.min h));
      ("max", Json.Float (Util.Histogram.max h));
      ("p50", Json.Float (Util.Histogram.percentile h 50.0));
      ("p99", Json.Float (Util.Histogram.percentile h 99.0));
      ("p999", Json.Float (Util.Histogram.percentile h 99.9));
    ]

let snapshot_json t =
  Json.Obj
    (List.rev_map
       (fun (name, metric) ->
         ( name,
           match metric with
           | Int_metric { get; _ } -> Json.Int (get ())
           | Float_metric { get; _ } -> Json.Float (get ())
           | Histogram_metric { get; _ } -> histogram_json (get ()) ))
       t.metrics)

(* --- Prometheus text exposition ----------------------------------------- *)

let prom_name name =
  String.map (fun c -> match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c | _ -> '_') name

let prom_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.9g" x

(* Prometheus text-format escaping. HELP text escapes backslash and
   newline; label values additionally escape the double quote. *)
let escape_into buf ~quote s =
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '"' when quote -> Buffer.add_string buf "\\\""
      | c -> Buffer.add_char buf c)
    s

let escape_help s =
  let buf = Buffer.create (String.length s) in
  escape_into buf ~quote:false s;
  Buffer.contents buf

let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  escape_into buf ~quote:true s;
  Buffer.contents buf

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let header name help kind =
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name (escape_help help));
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  let kind_str = function Counter -> "counter" | Gauge -> "gauge" in
  List.iter
    (fun (raw_name, metric) ->
      let name = prom_name raw_name in
      match metric with
      | Int_metric { kind; help; get } ->
          header name help (kind_str kind);
          Buffer.add_string buf (Printf.sprintf "%s %d\n" name (get ()))
      | Float_metric { kind; help; get } ->
          header name help (kind_str kind);
          Buffer.add_string buf (Printf.sprintf "%s %s\n" name (prom_float (get ())))
      | Histogram_metric { help; get } ->
          let h = get () in
          header name help "histogram";
          let cumulative = ref 0 in
          List.iter
            (fun (upper, count) ->
              cumulative := !cumulative + count;
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name
                   (escape_label_value (prom_float upper))
                   !cumulative))
            (Util.Histogram.buckets h);
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name (Util.Histogram.count h));
          Buffer.add_string buf
            (Printf.sprintf "%s_sum %s\n" name
               (prom_float (Util.Histogram.mean h *. float_of_int (Util.Histogram.count h))));
          Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name (Util.Histogram.count h)))
    (List.rev t.metrics);
  Buffer.contents buf
