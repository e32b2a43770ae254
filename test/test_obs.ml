(* Tests for the observability layer: tracer span discipline, JSONL
   round-trips, the zero-cost disabled path, the metrics registry and the
   time-series sampler. The tracer is process-global, so every test that
   enables it must disable it before returning. *)

let check = Alcotest.check

let with_tracer ?io clock f =
  let sink, events = Obs.Trace.memory_sink () in
  Obs.Trace.enable ?io ~clock sink;
  Fun.protect ~finally:Obs.Trace.disable (fun () -> f events)

(* --- Json --------------------------------------------------------------- *)

let test_json_print () =
  let j =
    Obs.Json.Obj
      [
        ("s", Obs.Json.String "a\"b\n\tc");
        ("i", Obs.Json.Int (-42));
        ("f", Obs.Json.Float 1.5);
        ("whole", Obs.Json.Float 3.0);
        ("nan", Obs.Json.Float Float.nan);
        ("b", Obs.Json.Bool true);
        ("n", Obs.Json.Null);
        ("l", Obs.Json.List [ Obs.Json.Int 1; Obs.Json.Int 2 ]);
      ]
  in
  check Alcotest.string "printed form"
    {|{"s":"a\"b\n\tc","i":-42,"f":1.5,"whole":3.0,"nan":null,"b":true,"n":null,"l":[1,2]}|}
    (Obs.Json.to_string j)

let test_json_print_backslash () =
  check Alcotest.string "backslash escaped" {|"a\\c"|}
    (Obs.Json.to_string (Obs.Json.String "a\\c"))

let test_json_parse_roundtrip () =
  let cases =
    [
      {|null|};
      {|true|};
      {|[1,2.5,-3,"x",{"k":[]},null]|};
      {|{"a":{"b":{"c":"deep A unicode"}}}|};
      {|"tab\there"|};
    ]
  in
  List.iter
    (fun src ->
      let j = Obs.Json.parse src in
      let j' = Obs.Json.parse (Obs.Json.to_string j) in
      check Alcotest.bool (Printf.sprintf "parse/print fixpoint for %s" src) true (j = j'))
    cases

let test_json_parse_errors () =
  List.iter
    (fun src ->
      match Obs.Json.parse src with
      | exception Obs.Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "expected Parse_error for %S" src)
    [ ""; "{"; "[1,]"; "tru"; {|{"a" 1}|}; {|"unterminated|}; "1 2" ]

(* --- Trace -------------------------------------------------------------- *)

let test_trace_disabled_noop () =
  check Alcotest.bool "disabled by default" false (Obs.Trace.is_enabled ());
  (* None of these may raise or emit without an attached sink. *)
  Obs.Trace.span_begin "x";
  Obs.Trace.span_end "x";
  Obs.Trace.instant "x";
  Obs.Trace.counter "x" 1.0;
  check Alcotest.int "with_span passes through" 7 (Obs.Trace.with_span "x" (fun () -> 7))

let test_trace_disabled_no_alloc () =
  (* The disabled fast path must not materialise anything: attribute thunks
     are never invoked, and the plain emitters allocate nothing (the only
     caller-side cost of [~attrs:] is the [Some] cell for the thunk). *)
  let calls = ref 0 in
  let counting_attrs () = incr calls; [] in
  Obs.Trace.instant "x" ~attrs:counting_attrs;
  Obs.Trace.span_begin "x" ~attrs:counting_attrs;
  Obs.Trace.with_span "x" ~attrs:counting_attrs (fun () -> ());
  check Alcotest.int "attr thunks never invoked when disabled" 0 !calls;
  Obs.Trace.instant "warm";
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    Obs.Trace.instant "hot";
    Obs.Trace.counter "hot" 2.0;
    Obs.Trace.span_begin "hot";
    Obs.Trace.span_end "hot"
  done;
  let words = Gc.minor_words () -. before in
  check Alcotest.bool
    (Printf.sprintf "allocated %.0f minor words across 4000 disabled calls" words)
    true (words <= 64.0)

let test_trace_span_nesting () =
  let clock = Sim.Clock.create () in
  with_tracer clock (fun events ->
      Obs.Trace.with_span "outer" (fun () ->
          Sim.Clock.advance clock 10.0;
          Obs.Trace.with_span "inner" (fun () -> Sim.Clock.advance clock 5.0);
          Obs.Trace.instant "mark");
      (* Emission order must be stack-disciplined: every End matches the
         most recent open Begin. *)
      let stack = ref [] in
      List.iter
        (fun (e : Obs.Trace.event) ->
          match e with
          | Begin { name; _ } -> stack := name :: !stack
          | End { name; _ } -> (
              match !stack with
              | top :: rest ->
                  check Alcotest.string "end matches innermost begin" top name;
                  stack := rest
              | [] -> Alcotest.fail "End without Begin")
          | _ -> ())
        (events ());
      check Alcotest.int "all spans closed" 0 (List.length !stack);
      match events () with
      | [
       Begin { name = outer; ts = outer_ts; _ };
       Begin { name = inner; ts = inner_ts; _ };
       End { name = inner_end; ts = inner_end_ts; _ };
       Instant { name = mark; _ };
       End { name = outer_end; _ };
      ] ->
          check Alcotest.string "outer first" "outer" outer;
          check Alcotest.string "inner nested" "inner" inner;
          check Alcotest.string "inner closes first" "inner" inner_end;
          check Alcotest.string "instant inside outer" "mark" mark;
          check Alcotest.string "outer closes last" "outer" outer_end;
          check (Alcotest.float 1e-9) "begin at t0" 0.0 outer_ts;
          check (Alcotest.float 1e-9) "inner begins at +10ns" 10.0 inner_ts;
          check (Alcotest.float 1e-9) "inner ends at +15ns" 15.0 inner_end_ts
      | es -> Alcotest.failf "unexpected event shape (%d events)" (List.length es))

let test_trace_span_end_on_exception () =
  let clock = Sim.Clock.create () in
  with_tracer clock (fun events ->
      (try Obs.Trace.with_span "boom" (fun () -> failwith "kaboom") with Failure _ -> ());
      match events () with
      | [ Begin _; End { name; _ } ] ->
          check Alcotest.string "end emitted on raise" "boom" name
      | _ -> Alcotest.fail "expected Begin/End pair")

let test_trace_io_gate () =
  let clock = Sim.Clock.create () in
  with_tracer ~io:false clock (fun events ->
      check Alcotest.bool "io category off" false (Obs.Trace.io_enabled ());
      Obs.Trace.io_event "ssd.write" ~ts:0.0 ~dur:1.0 ~bytes:512;
      Obs.Trace.instant "still-on";
      check Alcotest.int "io event dropped, instant kept" 1 (List.length (events ())))

let test_trace_engine_workload_spans () =
  (* Drive a real engine with tracing on: flush and internal-compaction
     spans must appear, stamped with the engine's own virtual clock. *)
  let engine = Core.Engine.create Core.Config.pmblade in
  let clock = Core.Engine.clock engine in
  (* [io:false]: the memory sink need not hold every simulated device read;
     the structural spans are what this test is about. *)
  with_tracer ~io:false clock (fun events ->
      let y = Workload.Ycsb.create ~value_bytes:512 () in
      let sink = Workload.Sink.of_engine engine in
      Workload.Ycsb.load_sink y sink ~records:3_000;
      Workload.Ycsb.run_sink y sink Workload.Ycsb.A ~ops:3_000;
      let names =
        List.filter_map
          (function
            | Obs.Trace.Begin { name; _ } -> Some name
            | Obs.Trace.Complete { name; _ } -> Some name
            | _ -> None)
          (events ())
      in
      check Alcotest.bool "flush spans present" true (List.mem "flush" names);
      check Alcotest.bool "internal compaction spans present" true
        (List.mem "internal_compaction" names);
      check Alcotest.bool "merge spans present" true (List.mem "compaction.merge" names);
      let max_ts =
        List.fold_left
          (fun acc (e : Obs.Trace.event) ->
            match e with
            | Begin { ts; _ } | End { ts; _ } | Complete { ts; _ }
            | Instant { ts; _ } | Counter { ts; _ } -> Float.max acc ts)
          0.0 (events ())
      in
      (* Overlap rebates rewind the clock after compaction spans were
         stamped, so the frontier is the final clock plus the cumulative
         pipeline rebate. *)
      let rebate =
        (Core.Engine.pipeline_stats engine).Compaction.Pipeline.rebate_total_ns
      in
      check Alcotest.bool "timestamps within the virtual-clock run" true
        (max_ts > 0.0 && max_ts <= Sim.Clock.now clock +. rebate))

let test_trace_jsonl_roundtrip () =
  let events =
    [
      Obs.Trace.Begin
        { name = "flush"; tid = 0; ts = 100.5; attrs = [ ("bytes", Obs.Trace.Int 4096) ] };
      Obs.Trace.End { name = "flush"; tid = 0; ts = 250.0 };
      Obs.Trace.Complete
        {
          name = "pm.write";
          tid = 3;
          ts = 10.0;
          dur = 65.25;
          attrs =
            [
              ("bytes", Obs.Trace.Int 512);
              ("device", Obs.Trace.Str "pm0");
              ("hit", Obs.Trace.Bool false);
              ("ratio", Obs.Trace.Float 0.75);
            ];
        };
      Obs.Trace.Instant { name = "sched.switch"; tid = 2; ts = 7.0; attrs = [] };
      Obs.Trace.Counter { name = "sched.q_flush"; tid = 1; ts = 9.0; value = 6.0 };
    ]
  in
  List.iter
    (fun e ->
      let line = Obs.Json.to_string (Obs.Trace.json_of_event e) in
      let e' = Obs.Trace.event_of_json (Obs.Json.parse line) in
      check Alcotest.bool (Printf.sprintf "round-trip %s" line) true (e = e'))
    events

let test_trace_jsonl_sink_file () =
  let path = Filename.temp_file "pm_blade_trace" ".jsonl" in
  let clock = Sim.Clock.create () in
  let oc = open_out path in
  Obs.Trace.enable ~clock (Obs.Trace.jsonl_sink oc);
  Obs.Trace.with_span "a" ~attrs:(fun () -> [ ("n", Obs.Trace.Int 1) ]) (fun () ->
      Sim.Clock.advance clock 1000.0;
      Obs.Trace.instant "b");
  Obs.Trace.disable ();
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let lines = List.rev !lines in
  check Alcotest.int "three JSONL lines" 3 (List.length lines);
  List.iter
    (fun line -> ignore (Obs.Trace.event_of_json (Obs.Json.parse line)))
    lines

(* --- Registry ----------------------------------------------------------- *)

let test_registry_basics () =
  let reg = Obs.Registry.create () in
  let n = ref 5 in
  Obs.Registry.register_int reg ~help:"reads" "engine.reads" (fun () -> !n);
  Obs.Registry.register_float reg ~kind:Obs.Registry.Gauge ~help:"a ratio" "engine.ratio"
    (fun () -> 0.5);
  check (Alcotest.list Alcotest.string) "registration order"
    [ "engine.reads"; "engine.ratio" ] (Obs.Registry.names reg);
  (match Obs.Registry.register_int reg ~help:"reads" "engine.reads" (fun () -> 0) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate name accepted");
  (match Obs.Registry.register_int reg ~help:"" "engine.writes" (fun () -> 0) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "empty help accepted");
  check (Alcotest.list Alcotest.string) "refused registrations leave no trace"
    [ "engine.reads"; "engine.ratio" ] (Obs.Registry.names reg);
  n := 9;
  let snap = Obs.Json.to_string (Obs.Registry.snapshot_json reg) in
  check Alcotest.bool "snapshot reads at exposition time" true
    (let j = Obs.Json.parse snap in
     Obs.Json.member "engine.reads" j = Some (Obs.Json.Int 9))

let test_registry_prometheus () =
  let reg = Obs.Registry.create () in
  Obs.Registry.register_int reg ~help:"total reads" "engine.reads" (fun () -> 3);
  let h = Util.Histogram.create () in
  List.iter (Util.Histogram.record h) [ 10.0; 100.0; 1000.0 ];
  Obs.Registry.register_histogram reg ~help:"get latency" "engine.read_latency_ns"
    (fun () -> h);
  let text = Obs.Registry.to_prometheus reg in
  let has s =
    let n = String.length s and m = String.length text in
    let rec scan i = i + n <= m && (String.sub text i n = s || scan (i + 1)) in
    scan 0
  in
  check Alcotest.bool "help line" true (has "# HELP engine_reads total reads");
  check Alcotest.bool "type line" true (has "# TYPE engine_reads counter");
  check Alcotest.bool "value line" true (has "engine_reads 3");
  check Alcotest.bool "histogram type" true (has "# TYPE engine_read_latency_ns histogram");
  check Alcotest.bool "inf bucket" true (has {|le="+Inf"|});
  check Alcotest.bool "histogram count" true (has "engine_read_latency_ns_count 3")

let test_registry_engine_namespaces () =
  (* The full wiring: a router (engine + devices) + a monitoring
     scheduler must cover the four namespaces the exporters promise. The
     second input puts every module's names in one registry: a block
     cache and pmsan add cache. and sanitize., a fault plan adds fault.,
     and registering raises on a clash or an empty help. *)
  List.iter
    (fun (cfg, register_more, prefixes) ->
      let router = Shard.Router.create cfg in
      let reg = Obs.Registry.create () in
      Shard.Router.register_metrics reg router;
      let des = Sim.Des.create (Shard.Router.clock router) in
      let sched =
        Coroutine.Scheduler.create ~cores:1
          ~policy:(Coroutine.Scheduler.default_flush_coroutine ()) des
          (Shard.Router.ssd router)
      in
      Coroutine.Scheduler.register_metrics reg sched;
      register_more reg;
      let names = Obs.Registry.names reg in
      List.iter
        (fun prefix ->
          check Alcotest.bool (prefix ^ " namespace present") true
            (List.exists (fun n -> String.length n > String.length prefix
                                   && String.sub n 0 (String.length prefix) = prefix) names))
        prefixes;
      (* Counters must reflect work done after registration (pull-based). *)
      let y = Workload.Ycsb.create ~value_bytes:256 () in
      Workload.Ycsb.load_sink y (Shard.Router.sink router) ~records:500;
      let j = Obs.Registry.snapshot_json reg in
      match Obs.Json.member "engine.writes" j with
      | Some (Obs.Json.Int w) -> check Alcotest.int "writes sampled at exposition" 500 w
      | _ -> Alcotest.fail "engine.writes missing from snapshot")
    [
      (Core.Config.pmblade, ignore, [ "engine."; "pmem."; "ssd."; "sched." ]);
      ( { Core.Config.pmblade with Core.Config.block_cache_mb = 8 },
        (fun reg -> Fault.Plan.register_metrics reg (Fault.Plan.make_stats ())),
        [ "engine."; "pmem."; "ssd."; "sched."; "cache."; "sanitize."; "fault." ] );
    ]

(* --- Sampler ------------------------------------------------------------ *)

let test_sampler_rows () =
  let clock = Sim.Clock.create () in
  let x = ref 0.0 in
  let s = Obs.Sampler.create ~interval_s:1.0 ~clock [ ("x", fun () -> !x) ] in
  for i = 1 to 10 do
    x := float_of_int i;
    Sim.Clock.advance clock 0.5e9;  (* half a simulated second per op *)
    Obs.Sampler.tick s
  done;
  (* 5 simulated seconds at a 1 s interval: one row per elapsed interval. *)
  check Alcotest.int "one row per interval" 5 (List.length (Obs.Sampler.rows s));
  Obs.Sampler.force s;
  check Alcotest.int "force appends" 6 (List.length (Obs.Sampler.rows s));
  let ts = List.map fst (Obs.Sampler.rows s) in
  check Alcotest.bool "timestamps non-decreasing" true
    (List.for_all2 (fun a b -> a <= b)
       (List.filteri (fun i _ -> i < List.length ts - 1) ts)
       (List.tl ts))

let test_sampler_stall_records_once () =
  let clock = Sim.Clock.create () in
  let s = Obs.Sampler.create ~interval_s:1.0 ~clock [ ("x", fun () -> 1.0) ] in
  Sim.Clock.advance clock 30e9;  (* a 30 s stall *)
  Obs.Sampler.tick s;
  check Alcotest.int "stall yields one row, not thirty" 1
    (List.length (Obs.Sampler.rows s))

let test_registry_prometheus_escaping () =
  check Alcotest.string "help: backslash then newline" {|a\\b\nc|}
    (Obs.Registry.escape_help "a\\b\nc");
  check Alcotest.string "help: quotes pass through" {|say "hi"|}
    (Obs.Registry.escape_help {|say "hi"|});
  check Alcotest.string "label: quotes escaped too" {|say \"hi\"\n\\|}
    (Obs.Registry.escape_label_value "say \"hi\"\n\\");
  (* End to end: a registered help string with every special character
     must come out as one well-formed HELP line. *)
  let reg = Obs.Registry.create () in
  Obs.Registry.register_int reg "x.y" ~help:"line1\nline2 \"quoted\" \\ end"
    (fun () -> 1);
  let text = Obs.Registry.to_prometheus reg in
  let has s =
    let n = String.length s and m = String.length text in
    let rec scan i = i + n <= m && (String.sub text i n = s || scan (i + 1)) in
    scan 0
  in
  check Alcotest.bool "escaped help line" true
    (has {|# HELP x_y line1\nline2 "quoted" \\ end|});
  check Alcotest.bool "no literal newline inside the help text" false
    (has "line1\nline2")

let test_sampler_out_of_order () =
  (* Clock rewinds (the engine's overlap rebates) can hand the sampler a
     timestamp earlier than an already-recorded row; [rows] must come back
     sorted by time, and ties must keep their arrival order. *)
  let clock = Sim.Clock.create () in
  let x = ref 1.0 in
  let s = Obs.Sampler.create ~interval_s:1.0 ~clock [ ("x", fun () -> !x) ] in
  Sim.Clock.advance clock 5e9;
  Obs.Sampler.force s;
  Sim.Clock.rewind clock 3e9;
  x := 2.0;
  Obs.Sampler.force s;
  Sim.Clock.advance clock 1e9;
  x := 3.0;
  Obs.Sampler.force s;
  let rows = Obs.Sampler.rows s in
  check (Alcotest.list (Alcotest.float 1e-3)) "timestamps sorted" [ 2e9; 3e9; 5e9 ]
    (List.map fst rows);
  check (Alcotest.list (Alcotest.float 1e-9)) "values follow their timestamps"
    [ 2.0; 3.0; 1.0 ]
    (List.map (fun (_, vs) -> vs.(0)) rows)

let test_sampler_json_csv () =
  let clock = Sim.Clock.create () in
  let s = Obs.Sampler.create ~interval_s:1.0 ~clock [ ("a", fun () -> 1.5) ] in
  Obs.Sampler.force s;
  (match Obs.Json.member "columns" (Obs.Sampler.to_json s) with
  | Some (Obs.Json.List (Obs.Json.String "ts_s" :: _)) -> ()
  | _ -> Alcotest.fail "to_json columns must lead with ts_s");
  let csv = Obs.Sampler.to_csv s in
  check Alcotest.bool "csv header" true (String.length csv >= 6 && String.sub csv 0 6 = "ts_s,a");
  (match Obs.Sampler.create ~interval_s:0.0 ~clock [ ("a", fun () -> 0.0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-positive interval accepted");
  match Obs.Sampler.create ~clock [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty column list accepted"

(* --- Attr --------------------------------------------------------------- *)

let with_attr f =
  let clock = Sim.Clock.create () in
  Obs.Attr.enable ~clock;
  Fun.protect ~finally:Obs.Attr.disable (fun () -> f clock)

let op_phase snap p =
  Option.value ~default:0.0 (List.assoc_opt p snap.Obs.Attr.op_phases)

let bg_phase snap p =
  Option.value ~default:0.0 (List.assoc_opt p snap.Obs.Attr.bg_phases)

let test_attr_disabled_noop () =
  Obs.Attr.charge Obs.Attr.Pm_read 100.0;
  check Alcotest.int "with_op passes through" 3
    (Obs.Attr.with_op Obs.Attr.Read (fun () -> 3));
  check Alcotest.int "with_phase passes through" 4
    (Obs.Attr.with_phase Obs.Attr.Flush (fun () -> 4));
  let snap = Obs.Attr.snapshot () in
  check Alcotest.int "no ops recorded" 0 snap.Obs.Attr.reads;
  check (Alcotest.float 0.0) "no time booked" 0.0 (Obs.Attr.op_ns ())

let test_attr_op_remainder () =
  with_attr (fun clock ->
      Obs.Attr.with_op Obs.Attr.Read (fun () ->
          Sim.Clock.advance clock 100.0;
          Obs.Attr.charge Obs.Attr.Pm_read 30.0);
      let snap = Obs.Attr.snapshot () in
      check Alcotest.int "one read" 1 snap.Obs.Attr.reads;
      check (Alcotest.float 1e-9) "op time measured" 100.0 snap.Obs.Attr.read_ns;
      check (Alcotest.float 1e-9) "charged phase" 30.0 (op_phase snap Obs.Attr.Pm_read);
      check (Alcotest.float 1e-9) "remainder booked as Other" 70.0
        (op_phase snap Obs.Attr.Other);
      check (Alcotest.float 1e-9) "phases sum to measured op time"
        (Obs.Attr.op_ns ()) (Obs.Attr.accounted_ns ()))

let test_attr_frame_self_time () =
  (* A non-absorbing frame books only its self time: the clock delta minus
     whatever nested charges claimed. *)
  with_attr (fun clock ->
      Obs.Attr.with_op Obs.Attr.Write (fun () ->
          Obs.Attr.with_phase Obs.Attr.Wal_sync (fun () ->
              Sim.Clock.advance clock 40.0;
              Obs.Attr.charge Obs.Attr.Ssd_read 15.0));
      let snap = Obs.Attr.snapshot () in
      check (Alcotest.float 1e-9) "frame self time" 25.0
        (op_phase snap Obs.Attr.Wal_sync);
      check (Alcotest.float 1e-9) "nested charge kept its phase" 15.0
        (op_phase snap Obs.Attr.Ssd_read);
      check (Alcotest.float 1e-9) "no remainder" 0.0 (op_phase snap Obs.Attr.Other))

let test_attr_absorbing_frame () =
  (* An absorbing frame (an inline flush the op waits out) bills its full
     clock delta to the op and diverts nested work to the background books
     — the op's breakdown stays equal to its measured latency even though
     the flush did attributable device work of its own. *)
  with_attr (fun clock ->
      Obs.Attr.with_op Obs.Attr.Write (fun () ->
          Sim.Clock.advance clock 10.0;
          Obs.Attr.with_phase Obs.Attr.Flush (fun () ->
              Sim.Clock.advance clock 50.0;
              Obs.Attr.charge Obs.Attr.Pm_read 20.0));
      let snap = Obs.Attr.snapshot () in
      check (Alcotest.float 1e-9) "full wait billed to the op" 50.0
        (op_phase snap Obs.Attr.Flush);
      check (Alcotest.float 1e-9) "nested work went to background" 20.0
        (bg_phase snap Obs.Attr.Pm_read);
      check (Alcotest.float 1e-9) "no double count on the op" 0.0
        (op_phase snap Obs.Attr.Pm_read);
      check (Alcotest.float 1e-9) "pre-flush time is the remainder" 10.0
        (op_phase snap Obs.Attr.Other);
      check (Alcotest.float 1e-9) "op fully accounted" (Obs.Attr.op_ns ())
        (Obs.Attr.accounted_ns ()))

let test_attr_background_charges () =
  with_attr (fun clock ->
      Obs.Attr.with_phase Obs.Attr.Compaction (fun () ->
          Sim.Clock.advance clock 200.0;
          Obs.Attr.charge Obs.Attr.Ssd_read 80.0);
      let snap = Obs.Attr.snapshot () in
      check (Alcotest.float 1e-9) "no op time" 0.0 (Obs.Attr.op_ns ());
      check (Alcotest.float 1e-9) "compaction self in background" 120.0
        (bg_phase snap Obs.Attr.Compaction);
      check (Alcotest.float 1e-9) "device time in background" 80.0
        (bg_phase snap Obs.Attr.Ssd_read))

let test_attr_op_trace_span () =
  let clock = Sim.Clock.create () in
  Obs.Attr.enable ~clock;
  Fun.protect ~finally:Obs.Attr.disable (fun () ->
      with_tracer clock (fun events ->
          Obs.Attr.with_op Obs.Attr.Scan (fun () ->
              Sim.Clock.advance clock 64.0;
              Obs.Attr.charge Obs.Attr.Pm_read 64.0);
          match
            List.filter
              (function Obs.Trace.Complete { name = "op.scan"; _ } -> true | _ -> false)
              (events ())
          with
          | [ Obs.Trace.Complete { dur; attrs; _ } ] ->
              check (Alcotest.float 1e-9) "span duration is op latency" 64.0 dur;
              check Alcotest.bool "pm_read attr present" true
                (List.mem_assoc "pm_read" attrs)
          | es -> Alcotest.failf "expected one op.scan span, got %d" (List.length es)))

(* --- Perf --------------------------------------------------------------- *)

let doc ?(schema = 2) ?(configs = [ ("PMBlade", "aabbccdd") ]) metrics =
  Obs.Json.Obj
    [
      ("schema_version", Obs.Json.Int schema);
      ( "configs",
        Obs.Json.Obj (List.map (fun (n, fp) -> (n, Obs.Json.String fp)) configs) );
      ("metrics", Obs.Json.Obj (List.map (fun (n, v) -> (n, Obs.Json.Float v)) metrics));
    ]

let test_perf_identical_pass () =
  let d = doc [ ("lat_ns", 100.0); ("tput", 5000.0) ] in
  let r = Obs.Perf.compare_docs ~rules:[] d d in
  check Alcotest.bool "identical docs pass" true (Obs.Perf.passed r);
  check Alcotest.int "every metric compared" 2 (List.length r.Obs.Perf.results)

let test_perf_direction_and_tolerance () =
  let rules =
    [ Obs.Perf.rule "tput" ~direction:Obs.Perf.Higher_is_better ~tol:0.05 ]
  in
  (* Latency +20% regresses; throughput +20% improves. *)
  let base = doc [ ("lat_ns", 100.0); ("tput", 5000.0) ] in
  let cur = doc [ ("lat_ns", 120.0); ("tput", 6000.0) ] in
  let r = Obs.Perf.compare_docs ~rules base cur in
  check Alcotest.bool "regression fails" false (Obs.Perf.passed r);
  let status name =
    (List.find (fun res -> res.Obs.Perf.metric = name) r.Obs.Perf.results)
      .Obs.Perf.status
  in
  check Alcotest.string "latency regressed" "REGRESSED"
    (Obs.Perf.status_name (status "lat_ns"));
  check Alcotest.string "throughput improved" "improved"
    (Obs.Perf.status_name (status "tput"));
  (* The worse side only: a big latency *improvement* still passes. *)
  let r2 = Obs.Perf.compare_docs ~rules base (doc [ ("lat_ns", 10.0); ("tput", 5000.0) ]) in
  check Alcotest.bool "improvement passes" true (Obs.Perf.passed r2);
  (* Within tolerance on the bad side passes too. *)
  let r3 = Obs.Perf.compare_docs ~rules base (doc [ ("lat_ns", 104.0); ("tput", 4800.0) ]) in
  check Alcotest.bool "within tolerance passes" true (Obs.Perf.passed r3)

let test_perf_missing_metric_fails () =
  let base = doc [ ("lat_ns", 100.0); ("gone", 1.0) ] in
  let cur = doc [ ("lat_ns", 100.0) ] in
  let r = Obs.Perf.compare_docs ~rules:[] base cur in
  check Alcotest.bool "missing metric fails" false (Obs.Perf.passed r);
  (* New metrics only in the current run are ignored. *)
  let r2 =
    Obs.Perf.compare_docs ~rules:[]
      (doc [ ("lat_ns", 100.0) ])
      (doc [ ("lat_ns", 100.0); ("new", 7.0) ])
  in
  check Alcotest.bool "extra current metric ignored" true (Obs.Perf.passed r2)

let test_perf_header_mismatches () =
  let base = doc [ ("m", 1.0) ] in
  let schema = Obs.Perf.compare_docs ~rules:[] base (doc ~schema:3 [ ("m", 1.0) ]) in
  check Alcotest.bool "schema mismatch fails" false (Obs.Perf.passed schema);
  let fp =
    Obs.Perf.compare_docs ~rules:[] base
      (doc ~configs:[ ("PMBlade", "00000000") ] [ ("m", 1.0) ])
  in
  check Alcotest.bool "fingerprint drift fails" false (Obs.Perf.passed fp);
  check Alcotest.bool "fingerprint drift is a header error" true
    (fp.Obs.Perf.header_errors <> []);
  let extra =
    Obs.Perf.compare_docs ~rules:[] base
      (doc ~configs:[ ("PMBlade", "aabbccdd"); ("Other", "11111111") ] [ ("m", 1.0) ])
  in
  check Alcotest.bool "extra config fails" false (Obs.Perf.passed extra)

let test_perf_rule_matching () =
  check Alcotest.bool "exact" true (Obs.Perf.matches "a.b" ~pattern:"a.b");
  check Alcotest.bool "prefix glob" true (Obs.Perf.matches "attr.coverage" ~pattern:"attr.*");
  check Alcotest.bool "glob mismatch" false (Obs.Perf.matches "engine.waf" ~pattern:"attr.*");
  check Alcotest.bool "universal" true (Obs.Perf.matches "anything" ~pattern:"*");
  check Alcotest.bool "suffix glob" true
    (Obs.Perf.matches "shard.ycsb_b.s4.mean_batch" ~pattern:"*mean_batch");
  check Alcotest.bool "suffix mismatch" false
    (Obs.Perf.matches "shard.gc.mean_batch_4" ~pattern:"*mean_batch");
  (* First matching rule wins over the default. *)
  let rules = [ Obs.Perf.rule "m.*" ~tol:0.5 ] in
  let r =
    Obs.Perf.compare_docs ~rules (doc [ ("m.x", 100.0) ]) (doc [ ("m.x", 130.0) ])
  in
  check Alcotest.bool "wide rule tolerance applied" true (Obs.Perf.passed r)

(* --- Trace flush -------------------------------------------------------- *)

let test_trace_flush_durability () =
  (* [flush] must push buffered events to the file while the tracer stays
     enabled — the per-leg durability the fault sweeps rely on. *)
  let path = Filename.temp_file "pm_blade_trace" ".jsonl" in
  let clock = Sim.Clock.create () in
  let oc = open_out path in
  Obs.Trace.enable ~clock (Obs.Trace.jsonl_sink oc);
  Obs.Trace.instant "leg.0";
  Obs.Trace.flush ();
  let lines_now path =
    let ic = open_in path in
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> close_in ic);
    !n
  in
  check Alcotest.int "event on disk before disable" 1 (lines_now path);
  Obs.Trace.instant "leg.1";
  Obs.Trace.flush ();
  check Alcotest.int "second leg appended" 2 (lines_now path);
  Obs.Trace.disable ();
  Sys.remove path;
  (* Disabled flush is a no-op, not an error. *)
  Obs.Trace.flush ()

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "print" `Quick test_json_print;
          Alcotest.test_case "backslash" `Quick test_json_print_backslash;
          Alcotest.test_case "parse round-trip" `Quick test_json_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled no-op" `Quick test_trace_disabled_noop;
          Alcotest.test_case "disabled allocates nothing" `Quick test_trace_disabled_no_alloc;
          Alcotest.test_case "span nesting" `Quick test_trace_span_nesting;
          Alcotest.test_case "span end on exception" `Quick test_trace_span_end_on_exception;
          Alcotest.test_case "io gate" `Quick test_trace_io_gate;
          Alcotest.test_case "engine workload spans" `Quick test_trace_engine_workload_spans;
          Alcotest.test_case "jsonl round-trip" `Quick test_trace_jsonl_roundtrip;
          Alcotest.test_case "jsonl sink file" `Quick test_trace_jsonl_sink_file;
        ] );
      ( "registry",
        [
          Alcotest.test_case "basics" `Quick test_registry_basics;
          Alcotest.test_case "prometheus" `Quick test_registry_prometheus;
          Alcotest.test_case "prometheus escaping" `Quick test_registry_prometheus_escaping;
          Alcotest.test_case "engine namespaces" `Quick test_registry_engine_namespaces;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "row cadence" `Quick test_sampler_rows;
          Alcotest.test_case "stall records once" `Quick test_sampler_stall_records_once;
          Alcotest.test_case "out-of-order rows" `Quick test_sampler_out_of_order;
          Alcotest.test_case "json/csv" `Quick test_sampler_json_csv;
        ] );
      ( "attr",
        [
          Alcotest.test_case "disabled no-op" `Quick test_attr_disabled_noop;
          Alcotest.test_case "op remainder" `Quick test_attr_op_remainder;
          Alcotest.test_case "frame self time" `Quick test_attr_frame_self_time;
          Alcotest.test_case "absorbing frame" `Quick test_attr_absorbing_frame;
          Alcotest.test_case "background charges" `Quick test_attr_background_charges;
          Alcotest.test_case "op trace span" `Quick test_attr_op_trace_span;
        ] );
      ( "perf",
        [
          Alcotest.test_case "identical pass" `Quick test_perf_identical_pass;
          Alcotest.test_case "direction + tolerance" `Quick test_perf_direction_and_tolerance;
          Alcotest.test_case "missing metric" `Quick test_perf_missing_metric_fails;
          Alcotest.test_case "header mismatches" `Quick test_perf_header_mismatches;
          Alcotest.test_case "rule matching" `Quick test_perf_rule_matching;
        ] );
      ( "trace-flush",
        [ Alcotest.test_case "durability" `Quick test_trace_flush_durability ] );
    ]
