(* Command-line front end: run a workload against any engine variant
   behind the range-sharded router (one shard by default) and print the
   measurement summary, optionally exporting a clock-stamped event trace
   and a machine-readable metrics snapshot.

     dune exec bin/pm_blade_cli.exe -- ycsb --workload a --system pmblade
     dune exec bin/pm_blade_cli.exe -- ycsb --workload a --trace /tmp/t.jsonl --metrics /tmp/m.json
     dune exec bin/pm_blade_cli.exe -- retail --orders 2000 --system matrixkv8
     dune exec bin/pm_blade_cli.exe -- stats --format prometheus
     dune exec bin/pm_blade_cli.exe -- info *)

open Cmdliner

let systems =
  [
    ("pmblade", Core.Config.pmblade);
    ("pmblade-pm", Core.Config.pmblade_pm);
    ("pmblade-ssd", Core.Config.pmblade_ssd);
    ("rocksdb", Core.Config.rocksdb_like);
    ("matrixkv8", Core.Config.matrixkv_8);
    ("matrixkv80", Core.Config.matrixkv_80);
    ("pmb-p", Core.Config.pmb_p);
    ("pmb-pi", Core.Config.pmb_pi);
    ("pmb-pic", Core.Config.pmb_pic);
  ]

let system_arg =
  let parse s =
    match List.assoc_opt s systems with
    | Some cfg -> Ok cfg
    | None -> Error (`Msg (Printf.sprintf "unknown system %S" s))
  in
  let print ppf (cfg : Core.Config.t) = Fmt.string ppf cfg.name in
  Arg.(value
      & opt (conv (parse, print)) Core.Config.pmblade
      & info [ "s"; "system" ] ~docv:"SYSTEM"
          ~doc:(Printf.sprintf "Engine variant: %s."
                  (String.concat ", " (List.map fst systems))))

(* Read-path tuning knobs shared by the workload commands. *)

let block_cache_arg =
  Arg.(value & opt (some int) None
      & info [ "block-cache-mb" ] ~docv:"MB"
          ~doc:"DRAM budget of the shared SSTable block cache in MiB \
                (0 disables it; default: the system's configured value).")

let apply_read_path cfg block_cache_mb =
  match block_cache_mb with
  | Some mb -> { cfg with Core.Config.block_cache_mb = mb }
  | None -> cfg

(* Sharded front-door knobs shared by ycsb/retail/stats/doctor. *)

let shards_arg =
  Arg.(value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:"Range shards behind the router front door, which every \
                workload command drives. N engines split the key range and \
                share the devices, the block cache and the clock, each with \
                its own WAL, memtable and manifest root.")

let gc_window_arg =
  Arg.(value & opt (some float) None
      & info [ "group-commit-window" ] ~docv:"NS"
          ~doc:"Group-commit window in simulated nanoseconds: how long a \
                batch leader holds the WAL sync open for more writers \
                (default: the system's configured value).")

let gc_max_arg =
  Arg.(value & opt (some int) None
      & info [ "group-commit-max" ] ~docv:"N"
          ~doc:"Writers coalesced into one WAL sync before the batch \
                closes early (default: the system's configured value).")

let durable_arg =
  Arg.(value & flag
      & info [ "durable" ]
          ~doc:"Write and sync a WAL for every update. Under the sharded \
                front door this is where group commit earns its keep: \
                concurrent writers on a shard coalesce their syncs.")

let apply_shard cfg shards gc_window gc_max durable =
  let cfg = { cfg with Core.Config.shard_count = max 1 shards } in
  let cfg = if durable then { cfg with Core.Config.durable = true } else cfg in
  let cfg =
    match gc_window with
    | Some w -> { cfg with Core.Config.group_commit_window_ns = Float.max 0.0 w }
    | None -> cfg
  in
  match gc_max with
  | Some m -> { cfg with Core.Config.group_commit_max = max 1 m }
  | None -> cfg

let no_sanitize_arg =
  Arg.(value & flag
      & info [ "no-sanitize" ]
          ~doc:"Detach the persistence-ordering sanitizer (attached by \
                default; its shadow tracking costs real time on large \
                workloads but no simulated time).")

(* --- Observability plumbing ---------------------------------------------- *)

let trace_arg =
  Arg.(value & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write a Chrome-trace-compatible JSONL event trace (flush, \
                internal/major compaction, WAL and device I/O, all stamped \
                with the virtual clock) to $(docv). Load it in Perfetto via \
                'jq -s . FILE'.")

let trace_io_arg =
  Arg.(value & flag
      & info [ "trace-no-io" ]
          ~doc:"Omit per-device I/O events from the trace (keeps only \
                structural spans and instants).")

let metrics_arg =
  Arg.(value & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:"Write a JSON metrics snapshot (engine/pmem/ssd \
                registries plus sampled time series) to $(docv).")

let sample_interval_arg =
  let positive =
    let parse s =
      match float_of_string_opt s with
      | Some v when v > 0.0 -> Ok v
      | Some _ -> Error (`Msg "sample interval must be positive")
      | None -> Error (`Msg (Printf.sprintf "invalid interval %S" s))
    in
    Arg.conv (parse, fun ppf v -> Fmt.float ppf v)
  in
  Arg.(value & opt positive 1.0
      & info [ "sample-interval" ] ~docv:"SECONDS"
          ~doc:"Simulated seconds between time-series samples (with \
                $(b,--metrics)).")

let open_out_or_die path =
  try open_out path
  with Sys_error msg ->
    Fmt.epr "pm_blade_cli: cannot open %s (%s)@." path msg;
    exit 1

(* Time-series columns: the front door's dispatch and admission figures
   beside the store-wide engine figures. *)
let columns router =
  let mb b = float_of_int b /. 1048576.0 in
  let m () = Shard.Router.metrics router in
  [
    ("ops", fun () -> float_of_int (Shard.Router.dispatched router));
    ("stalls", fun () -> float_of_int (Shard.Router.stall_count router));
    ("gc_batches", fun () -> float_of_int (Shard.Router.gc_batches router));
    ("gc_mean_batch", fun () -> Shard.Router.gc_mean_batch router);
    ("l0_mb", fun () -> mb (Shard.Router.l0_bytes router));
    ("pm_hit_ratio", fun () -> Core.Metrics.pm_hit_ratio (m ()));
    ("pm_mb_written", fun () -> mb (Pmem.stats (Shard.Router.pm router)).Pmem.bytes_written);
    ("ssd_mb_written", fun () -> mb (Ssd.stats (Shard.Router.ssd router)).Ssd.bytes_written);
    ("major_compactions", fun () -> float_of_int (m ()).Core.Metrics.major_compactions);
  ]

(* Set up tracing + sampling per the flags, run [f sampler], then tear the
   tracer down and write the metrics file. *)
let with_observability ~trace ~trace_no_io ~metrics ~interval router f =
  let clock = Shard.Router.clock router in
  (* Per-op latency attribution is cheap (a few float adds per op) and
     feeds the attr.* metrics and op.* trace spans: always on under the
     CLI. [enable] also clears books left by a previous store. *)
  Obs.Attr.enable ~clock;
  (match trace with
  | Some path ->
      let oc = open_out_or_die path in
      Obs.Trace.enable ~io:(not trace_no_io) ~clock (Obs.Trace.jsonl_sink oc)
  | None -> ());
  let registry = Obs.Registry.create () in
  Shard.Router.register_metrics registry router;
  let sampler =
    Option.map
      (fun _ -> Obs.Sampler.create ~interval_s:interval ~clock (columns router))
      metrics
  in
  let finish () =
    Obs.Trace.disable ();
    match metrics with
    | Some path ->
        let series =
          match sampler with Some s -> Obs.Sampler.to_json s | None -> Obs.Json.Null
        in
        let doc =
          Obs.Json.Obj
            [
              ("system", Obs.Json.String (Shard.Router.config router).Core.Config.name);
              ("metrics", Obs.Registry.snapshot_json registry);
              ("series", series);
            ]
        in
        let oc = open_out_or_die path in
        output_string oc (Obs.Json.to_string doc);
        output_char oc '\n';
        close_out oc;
        Fmt.pr "metrics snapshot written to %s@." path
    | None -> ()
  in
  Fun.protect ~finally:finish (fun () ->
      try f sampler
      with e ->
        (* Uncaught engine exception: push buffered trace events to disk
           before unwinding so the partial trace stays loadable. *)
        Obs.Trace.flush ();
        raise e);
  match trace with Some path -> Fmt.pr "trace written to %s@." path | None -> ()

let router_clients = 8

(* Drive [ops] operations through the router from [router_clients]
   concurrent coroutine clients; durable routers batch their WAL syncs
   through the group committer for the duration. Every op ticks
   [sampler], which then takes a final row. Returns elapsed simulated
   ns. *)
let run_router_ops ?sampler router ~ops step =
  let clock = Shard.Router.clock router in
  let des = Sim.Des.create clock in
  let sched =
    Coroutine.Scheduler.create ~cores:1
      ~policy:(Coroutine.Scheduler.Cooperative { switch_cost = 0.0 })
      des (Shard.Router.ssd router)
  in
  if (Shard.Router.config router).Core.Config.durable then
    Shard.Router.enable_group_commit router sched;
  let t0 = Sim.Clock.now clock in
  let per_client = max 1 (ops / router_clients) in
  for c = 0 to router_clients - 1 do
    Coroutine.Scheduler.spawn ~name:(Printf.sprintf "client-%d" c) sched 0 (fun () ->
        for _ = 1 to per_client do
          step ();
          Option.iter Obs.Sampler.tick sampler;
          Coroutine.Co.yield ()
        done)
  done;
  ignore (Coroutine.Scheduler.run_to_completion sched);
  Shard.Router.disable_group_commit router;
  Option.iter Obs.Sampler.force sampler;
  Sim.Clock.now clock -. t0

(* --- ycsb ----------------------------------------------------------------- *)

let ycsb_cmd =
  let workload =
    Arg.(value & opt string "a" & info [ "w"; "workload" ] ~docv:"WORKLOAD"
           ~doc:"YCSB workload: load, a, b, c, d, e or f.")
  in
  let records =
    Arg.(value & opt int 10_000 & info [ "records" ] ~doc:"Records loaded before the run.")
  in
  let ops = Arg.(value & opt int 10_000 & info [ "ops" ] ~doc:"Operations to run.") in
  let value_bytes =
    Arg.(value & opt int 1024 & info [ "value-bytes" ] ~doc:"Value size in bytes.")
  in
  let run cfg block_cache_mb no_sanitize shards gc_window gc_max
      durable workload records ops value_bytes trace trace_no_io metrics interval =
    let cfg = apply_read_path cfg block_cache_mb in
    if no_sanitize then Sanitize.Control.disable ();
    let cfg = apply_shard cfg shards gc_window gc_max durable in
    let w = Workload.Ycsb.of_string workload in
    let y = Workload.Ycsb.create ~value_bytes () in
    let shards = cfg.Core.Config.shard_count in
    let router =
      Shard.Router.create ~boundaries:(Shard.Router.ycsb_boundaries ~records ~shards) cfg
    in
    let sink = Shard.Router.sink router in
    with_observability ~trace ~trace_no_io ~metrics ~interval router (fun sampler ->
        Workload.Ycsb.load_sink y sink ~records;
        Fmt.pr "loaded %d records into %s across %d shard(s); running YCSB %s with %d \
                clients...@."
          records cfg.Core.Config.name shards (Workload.Ycsb.name w) router_clients;
        let elapsed_ns =
          run_router_ops ?sampler router ~ops (fun () -> Workload.Ycsb.step_sink y sink w)
        in
        let sim_s = elapsed_ns /. 1e9 in
        Fmt.pr "ran %d ops in %.3f simulated s (%.0f ops/s)@." ops sim_s
          (if sim_s > 0.0 then float_of_int ops /. sim_s else 0.0);
        Fmt.pr "%a@." Shard.Router.pp_stats router)
  in
  Cmd.v (Cmd.info "ycsb" ~doc:"Run a YCSB core workload.")
    Term.(const run $ system_arg $ block_cache_arg $ no_sanitize_arg
          $ shards_arg $ gc_window_arg $ gc_max_arg $ durable_arg
          $ workload $ records
          $ ops $ value_bytes $ trace_arg $ trace_io_arg $ metrics_arg
          $ sample_interval_arg)

(* --- retail ----------------------------------------------------------------- *)

let retail_cmd =
  let orders =
    Arg.(value & opt int 2_000 & info [ "orders" ] ~doc:"Orders loaded before the run.")
  in
  let transactions =
    Arg.(value & opt int 5_000 & info [ "transactions" ] ~doc:"Transactions to run.")
  in
  let run cfg block_cache_mb no_sanitize shards gc_window gc_max
      durable orders transactions trace trace_no_io metrics interval =
    let cfg = apply_read_path cfg block_cache_mb in
    if no_sanitize then Sanitize.Control.disable ();
    let cfg = apply_shard cfg shards gc_window gc_max durable in
    let retail = Workload.Retail.create () in
    let shards = cfg.Core.Config.shard_count in
    let router =
      Shard.Router.create ~boundaries:(Shard.Router.retail_boundaries ~tables:10 ~shards) cfg
    in
    let sink = Shard.Router.sink router in
    with_observability ~trace ~trace_no_io ~metrics ~interval router (fun sampler ->
        Workload.Retail.load_sink retail sink ~orders;
        Fmt.pr "loaded %d orders into %s across %d shard(s); running %d retail \
                transactions with %d clients...@."
          orders cfg.Core.Config.name shards transactions router_clients;
        let elapsed_ns =
          run_router_ops ?sampler router ~ops:transactions (fun () ->
              Workload.Retail.step_sink retail sink)
        in
        let sim_s = elapsed_ns /. 1e9 in
        Fmt.pr "ran %d transactions in %.3f simulated s (%.0f tx/s)@." transactions sim_s
          (if sim_s > 0.0 then float_of_int transactions /. sim_s else 0.0);
        Fmt.pr "%a@." Shard.Router.pp_stats router)
  in
  Cmd.v (Cmd.info "retail" ~doc:"Run the online-retail (Meituan-style) workload.")
    Term.(const run $ system_arg $ block_cache_arg $ no_sanitize_arg
          $ shards_arg $ gc_window_arg $ gc_max_arg $ durable_arg
          $ orders
          $ transactions $ trace_arg $ trace_io_arg $ metrics_arg
          $ sample_interval_arg)

(* --- stats ----------------------------------------------------------------- *)

let stats_cmd =
  let format_arg =
    let parse = function
      | "prometheus" | "prom" -> Ok `Prometheus
      | "json" -> Ok `Json
      | s -> Error (`Msg (Printf.sprintf "unknown format %S (prometheus or json)" s))
    in
    let print ppf f =
      Fmt.string ppf (match f with `Prometheus -> "prometheus" | `Json -> "json")
    in
    Arg.(value & opt (conv (parse, print)) `Prometheus
        & info [ "format" ] ~docv:"FORMAT"
            ~doc:"Exposition format: prometheus (text) or json.")
  in
  let ops =
    Arg.(value & opt int 5_000 & info [ "ops" ] ~doc:"Mixed operations to run first.")
  in
  let run cfg block_cache_mb shards gc_window gc_max durable ops
      format =
    (* A short deterministic mixed workload populates every subsystem, then
       the full registry is dumped — a one-stop look at the metric names. *)
    let cfg = apply_read_path cfg block_cache_mb in
    let cfg = apply_shard cfg shards gc_window gc_max durable in
    let records = max 1 (ops / 2) in
    let y = Workload.Ycsb.create ~value_bytes:256 () in
    let router =
      Shard.Router.create
        ~boundaries:
          (Shard.Router.ycsb_boundaries ~records ~shards:cfg.Core.Config.shard_count)
        cfg
    in
    Obs.Attr.enable ~clock:(Shard.Router.clock router);
    let registry = Obs.Registry.create () in
    Shard.Router.register_metrics registry router;
    let sink = Shard.Router.sink router in
    Workload.Ycsb.load_sink y sink ~records;
    ignore
      (run_router_ops router ~ops (fun () -> Workload.Ycsb.step_sink y sink Workload.Ycsb.A));
    match format with
    | `Prometheus -> print_string (Obs.Registry.to_prometheus registry)
    | `Json ->
        print_endline (Obs.Json.to_string (Obs.Registry.snapshot_json registry))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run a short mixed workload and dump the full metrics registry.")
    Term.(const run $ system_arg $ block_cache_arg $ shards_arg
          $ gc_window_arg $ gc_max_arg $ durable_arg $ ops $ format_arg)

(* --- crashtest ------------------------------------------------------------ *)

(* The demo store of crashtest, scrub and sanitize: a deliberately small
   durable router (4 KiB memtables, 16 KiB SSTables; one shard unless
   crashtest's --shards says otherwise), so the short workload
   exercises flushes, compactions and WAL rotations — the windows where
   crash consistency is earned — and leaves PM tables, SSTables and
   manifest persists for the scrubber and the injector. *)
let demo_config =
  {
    Core.Config.pmblade with
    Core.Config.memtable_bytes = 4 * 1024;
    l0_run_table_bytes = 8 * 1024;
    level_base_bytes = 64 * 1024;
    sstable_target_bytes = 16 * 1024;
    durable = true;
  }

(* A sweep's fault-plan counters as a metrics snapshot (crashtest, scrub). *)
let write_fault_metrics metrics stats =
  match metrics with
  | Some path ->
      let reg = Obs.Registry.create () in
      Fault.Plan.register_metrics reg stats;
      let oc = open_out_or_die path in
      output_string oc (Obs.Json.to_string (Obs.Registry.snapshot_json reg));
      output_char oc '\n';
      close_out oc;
      Fmt.pr "fault metrics written to %s@." path
  | None -> ()

let crashtest_cmd =
  let sites_arg =
    let parse = function
      | "all" -> Ok Shard.Sweep.All
      | s -> (
          match int_of_string_opt s with
          | Some n when n > 0 -> Ok (Shard.Sweep.Sample n)
          | _ -> Error (`Msg (Printf.sprintf "expected 'all' or a positive count, got %S" s)))
    in
    let print ppf = function
      | Shard.Sweep.All -> Fmt.string ppf "all"
      | Shard.Sweep.Sample n -> Fmt.int ppf n
    in
    Arg.(value
        & opt (conv (parse, print)) Shard.Sweep.All
        & info [ "sites" ] ~docv:"SITES"
            ~doc:"Crash points to test: $(b,all) sweeps every injection site \
                  the workload reaches; an integer tests a seeded sample of \
                  that size (CI smoke runs).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload and sampling seed.")
  in
  let ops =
    Arg.(value & opt int 300 & info [ "ops" ] ~doc:"Operations in the demo workload.")
  in
  let run sites seed ops shards metrics =
    let engine_config = { demo_config with Core.Config.shard_count = max 1 shards } in
    let cfg = Shard.Sweep.config ~seed ~ops engine_config in
    let total = Shard.Sweep.count_sites cfg in
    Fmt.pr "workload reaches %d injection sites across %d shard(s); sweeping %a crash \
            points...@."
      total engine_config.Core.Config.shard_count
      (fun ppf -> function
        | Shard.Sweep.All -> Fmt.string ppf "all"
        | Shard.Sweep.Sample n -> Fmt.pf ppf "%d sampled" (min n total))
      sites;
    let tested = ref 0 in
    let progress (p : Shard.Sweep.point) =
      incr tested;
      if p.violations <> [] then
        Fmt.pr "  crash at site %d (%s): %d violation(s)@." p.crash_at
          (Option.value ~default:"end-of-run" p.crash_site)
          (List.length p.violations)
      else if !tested mod 100 = 0 then Fmt.pr "  %d points tested...@." !tested
    in
    let stats = Fault.Plan.make_stats () in
    let report = Shard.Sweep.sweep ~selection:sites ~stats ~progress cfg in
    Fmt.pr "%a@." Shard.Sweep.pp_report report;
    write_fault_metrics metrics stats;
    if not (Shard.Sweep.clean report) then exit 1
  in
  Cmd.v
    (Cmd.info "crashtest"
       ~doc:"Sweep crash points over a demo workload: crash at each injection \
             site, recover, and check the crash-consistency invariants \
             (acked durability, single-op atomicity, no resurrection, \
             manifest/device agreement). The sweep runs through the \
             range-sharded router (shared devices, per-shard manifest \
             roots, union orphan GC on recovery). Exits 1 on any \
             violation.")
    Term.(const run $ sites_arg $ seed $ ops $ shards_arg $ metrics_arg)

(* --- scrub ---------------------------------------------------------------- *)

let scrub_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload and victim-selection seed.")
  in
  let ops =
    Arg.(value & opt int 300 & info [ "ops" ] ~doc:"Operations in the demo workload.")
  in
  let corruptions =
    Arg.(value & opt int 0
        & info [ "corruptions" ] ~docv:"N"
            ~doc:"Run the corruption sweep with $(docv) seeded injection \
                  points (cycling PM table, SSTable, WAL and manifest \
                  targets, bit flips and zeroed ranges). With 0, build the \
                  demo store and scrub it once — expecting a clean bill.")
  in
  let run seed ops corruptions metrics =
    if corruptions = 0 then begin
      let router = Shard.Router.create demo_config in
      let sink = Shard.Router.sink router in
      let rng = Util.Xoshiro.create seed in
      for i = 0 to ops - 1 do
        let key = Printf.sprintf "user%06d" (Util.Xoshiro.int rng 64) in
        sink.Workload.Sink.put ~update:true ~key
          (Printf.sprintf "%d:%s" i (Util.Xoshiro.string rng 24))
      done;
      Shard.Router.flush router;
      let engines = Array.to_list (Shard.Router.engines router) in
      List.iter Core.Engine.force_internal_compaction engines;
      let reports = List.map (fun e -> Core.Scrubber.run e) engines in
      List.iter (Fmt.pr "%a@." Core.Scrubber.pp_report) reports;
      if not (List.for_all Core.Scrubber.clean reports) then exit 1
    end
    else begin
      let cfg = Shard.Sweep.config ~seed ~ops demo_config in
      let stats = Fault.Plan.make_stats () in
      let progress (p : Shard.Sweep.corruption_point) =
        Fmt.pr "  %a: %s@." Shard.Sweep.pp_corruption_point p
          (if p.victim = None then "skipped (no victim)"
           else if p.violations <> [] then "VIOLATIONS"
           else "detected, handled")
      in
      let report = Shard.Sweep.corruption_sweep ~stats ~progress ~points:corruptions cfg in
      Fmt.pr "%a@." Shard.Sweep.pp_corruption_report report;
      write_fault_metrics metrics stats;
      if not (Shard.Sweep.corruption_clean report) then exit 1
    end
  in
  Cmd.v
    (Cmd.info "scrub"
       ~doc:"Verify every checksum in a demo store on the one-shard \
             router (PM tables, SSTables, WAL records, manifest slots), or \
             — with $(b,--corruptions) — sweep seeded bit rot over all \
             four targets and check that every injection is detected, \
             quarantined or repaired, and never silently served. Exits 1 \
             on any violation.")
    Term.(const run $ seed $ ops $ corruptions $ metrics_arg)

(* --- sanitize ------------------------------------------------------------- *)

let sanitize_cmd =
  let sites =
    Arg.(value & opt int 50
        & info [ "sites" ] ~docv:"N"
            ~doc:"Sampled crash points for the sanitized crash-sweep leg.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload and sampling seed.")
  in
  let ops =
    Arg.(value & opt int 300 & info [ "ops" ] ~doc:"Operations in the demo workload.")
  in
  let run sites seed ops =
    Sanitize.Control.enable ();
    let errors = ref 0 in
    (* Leg 1: pmsan over a clean workload on the one-shard router. Fails
       on any ordering finding and on any redundant flush (the hot paths
       are expected to stay dedup-clean; the per-site table names the
       offender). *)
    Fmt.pr "== pmsan: sanitized router workload (%d ops) ==@." ops;
    let router = Shard.Router.create demo_config in
    let sink = Shard.Router.sink router in
    let rng = Util.Xoshiro.create (seed lxor 0x9E3779B9) in
    (* wide keyspace + fat values: the memtable threshold trips repeatedly
       and the PM-table builds span several 4 KiB builder chunks, so any
       per-chunk flush overlap on the shared tail line shows up *)
    for i = 0 to ops - 1 do
      let key = Printf.sprintf "user%06d" (Util.Xoshiro.int rng 512) in
      match Util.Xoshiro.int rng 10 with
      | r when r < 7 ->
          sink.Workload.Sink.put ~update:true ~key
            (Printf.sprintf "%d:%s" i (Util.Xoshiro.string rng 96))
      | 7 | 8 -> ignore (sink.Workload.Sink.get key)
      | _ -> sink.Workload.Sink.delete key
    done;
    Shard.Router.flush router;
    Array.iter Core.Engine.force_internal_compaction (Shard.Router.engines router);
    ignore (Shard.Router.scan router ~start:"user000000" ~limit:32);
    (match Pmem.sanitizer (Shard.Router.pm router) with
    | None ->
        Fmt.pr "pmsan: not attached (sanitizer disabled?)@.";
        incr errors
    | Some san ->
        Fmt.pr "%a" Sanitize.Pmsan.pp san;
        if Sanitize.Pmsan.error_count san > 0 then incr errors;
        if Sanitize.Pmsan.redundant_flushes san > 0 then begin
          Fmt.pr "pmsan: redundant flushes on the hot path (see table above)@.";
          incr errors
        end);

    (* Leg 2: schedsan over the §V replay, all three policies. *)
    Fmt.pr "@.== schedsan: scheduler harness (thread / coroutine / pmblade) ==@.";
    List.iter
      (fun policy ->
        ignore
          (Compaction.Pipeline.replay_all ~policy ~cores:2
             ~inspect:(fun sched ->
               match Coroutine.Scheduler.sanitizer sched with
               | None ->
                   Fmt.pr "schedsan: not attached (sanitizer disabled?)@.";
                   incr errors
               | Some s ->
                   Fmt.pr "%a" Sanitize.Schedsan.pp s;
                   if Sanitize.Schedsan.error_count s > 0 then incr errors)
             (Compaction.Pipeline.subtasks ~policy ~cores:2 ~q_max:8 ~tasks:4
                Compaction.Pipeline.default_synthetic)))
      Coroutine.Scheduler.
        [ default_thread_like; default_cooperative; default_flush_coroutine ~q_max:8 () ];

    (* Leg 3: a sanitized crash-sweep sample on the one-shard router, as
       crashtest sweeps it — every leg's pmsan findings count as violations
       (Shard.Sweep wires them in). *)
    Fmt.pr "@.== sanitized crash sweep (%d sampled sites) ==@." sites;
    let cfg = Shard.Sweep.config ~seed ~ops demo_config in
    let report =
      Shard.Sweep.sweep ~selection:(Shard.Sweep.Sample sites) cfg
    in
    Fmt.pr "%a@." Shard.Sweep.pp_report report;
    if not (Shard.Sweep.clean report) then incr errors;

    if !errors > 0 then begin
      Fmt.pr "@.sanitize: FAILED (%d leg(s) reported findings)@." !errors;
      exit 1
    end
    else Fmt.pr "@.sanitize: clean@."
  in
  Cmd.v
    (Cmd.info "sanitize"
       ~doc:"Run the sanitizer gauntlet on the one-shard router: pmsan \
             (persistence ordering + redundant flushes) over a clean \
             workload, schedsan (happens-before races, lost wakeups) over \
             the scheduling harness, and a sanitized crash-sweep sample. \
             Exits 1 on any finding.")
    Term.(const run $ sites $ seed $ ops)

(* --- doctor --------------------------------------------------------------- *)

let dur ns =
  if ns < 1e3 then Printf.sprintf "%.0f ns" ns
  else if ns < 1e6 then Printf.sprintf "%.1f us" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else Printf.sprintf "%.3f s" (ns /. 1e9)

(* One phase table: the non-zero phases of [phases] by time, each with
   its share of [total_ns] and its charge/frame event count. *)
let print_phases ~title ~column (snap : Obs.Attr.snapshot) phases total_ns =
  Fmt.pr "%s:@." title;
  Fmt.pr "  %-16s %12s %7s %9s %12s@." "phase" column "share" "events" "avg/event";
  List.iter
    (fun (p, ns) ->
      let events =
        Option.value ~default:0 (List.assoc_opt p snap.Obs.Attr.phase_counts)
      in
      Fmt.pr "  %-16s %12s %6.1f%% %9d %12s@." (Obs.Attr.phase_name p) (dur ns)
        (100.0 *. ns /. total_ns)
        events
        (if events > 0 then dur (ns /. float_of_int events) else "-"))
    (phases
    |> List.filter (fun (_, ns) -> ns > 0.0)
    |> List.sort (fun (_, a) (_, b) -> Float.compare b a))

let print_pipeline (pt : Compaction.Pipeline.totals) ~enabled =
  Fmt.pr "compaction pipeline:@.";
  if pt.Compaction.Pipeline.runs = 0 then
    Fmt.pr "  no staged replays (pipeline %s)@.@."
      (if enabled then "enabled, no overlap work yet" else "disabled")
  else begin
    let serial = pt.Compaction.Pipeline.serial_total_ns in
    let piped = pt.Compaction.Pipeline.pipelined_total_ns in
    Fmt.pr "  %d staged replay(s), %d blocks: serial %s -> pipelined %s (%.2fx)@."
      pt.Compaction.Pipeline.runs pt.Compaction.Pipeline.blocks_total
      (dur serial) (dur piped)
      (if piped > 0.0 then serial /. piped else 1.0);
    Fmt.pr "  clock rebate %s, queue wait %s@."
      (dur pt.Compaction.Pipeline.rebate_total_ns)
      (dur pt.Compaction.Pipeline.queue_wait_total);
    Fmt.pr "  stage busy:";
    List.iteri
      (fun i s ->
        Fmt.pr " %s %s"
          (Compaction.Pipeline.stage_name s)
          (dur pt.Compaction.Pipeline.stage_busy_total.(i)))
      Compaction.Pipeline.all_stages;
    Fmt.pr "@.";
    (match pt.Compaction.Pipeline.last with
    | Some last ->
        Fmt.pr "  last replay queue depths:";
        List.iter
          (fun (q, d) -> Fmt.pr " %s %d" q d)
          last.Compaction.Pipeline.queue_max_depths;
        Fmt.pr "@."
    | None -> ());
    if
      pt.Compaction.Pipeline.races_total > 0
      || pt.Compaction.Pipeline.lost_wakeups_total > 0
    then
      Fmt.pr "  replay sanitizer: %d race(s), %d lost wakeup(s) — investigate@."
        pt.Compaction.Pipeline.races_total
        pt.Compaction.Pipeline.lost_wakeups_total
    else Fmt.pr "  replay sanitizer: clean@.";
    Fmt.pr "@."
  end

let print_front_door router =
  let mb b = float_of_int b /. 1048576.0 in
  Fmt.pr "shard front door:@.";
  Fmt.pr "  dispatch: %d op(s) routed over %d shard(s)@."
    (Shard.Router.dispatched router)
    (Shard.Router.shard_count router);
  Fmt.pr
    "  admission: %d hard stall(s) (%s stalled), %d soft-zone write(s), %d relief step(s) (%d \
     internal)@."
    (Shard.Router.stall_count router)
    (dur (Shard.Router.stall_ns router))
    (Shard.Router.soft_delays router)
    (Shard.Router.relief_steps router)
    (Shard.Router.relief_steps_internal router);
  Fmt.pr "  group commit: %d batch(es), %d entries synced, mean batch %.2f@."
    (Shard.Router.gc_batches router)
    (Shard.Router.gc_synced_entries router)
    (Shard.Router.gc_mean_batch router);
  let h = Shard.Router.gc_size_hist router in
  if Util.Histogram.count h > 0 then
    Fmt.pr "  batch sizes: p50 %.0f  p99 %.0f  max %.0f@."
      (Util.Histogram.percentile h 50.0)
      (Util.Histogram.percentile h 99.0)
      (Util.Histogram.max h)
  else Fmt.pr "  batch sizes: no batches synced@.";
  Fmt.pr "  %-8s %10s %8s %8s@." "shard" "l0" "debt" "stalls";
  Array.iteri
    (fun i e ->
      Fmt.pr "  shard%-3d %7.2f MB %6d r %8d@." i
        (mb (Core.Engine.l0_bytes e))
        (Core.Engine.pressure e)
        (Core.Engine.metrics e).Core.Metrics.write_stalls)
    (Shard.Router.engines router);
  Fmt.pr "@."

(* The diagnosis pass: YCSB-A through the router, then where each op's
   simulated time went, the background work, the amplification/stall
   ledger, read-path effectiveness, the compaction pipeline, the front
   door (dispatch, admission, group commit, per-shard backlog), shard
   health and the sanitizer. *)
let doctor cfg ~records ~ops ~value_bytes =
  let shards = cfg.Core.Config.shard_count in
  let router =
    Shard.Router.create ~boundaries:(Shard.Router.ycsb_boundaries ~records ~shards) cfg
  in
  Obs.Attr.enable ~clock:(Shard.Router.clock router);
  let y = Workload.Ycsb.create ~value_bytes () in
  let sink = Shard.Router.sink router in
  Workload.Ycsb.load_sink y sink ~records;
  (* Diagnose the steady-state mix, not the load phase. *)
  Obs.Attr.reset ();
  let bloom_probes0 = !Pmtable.Pm_table.bloom_probes in
  let bloom_negs0 = !Pmtable.Pm_table.bloom_negatives in
  let elapsed_ns =
    run_router_ops router ~ops (fun () -> Workload.Ycsb.step_sink y sink Workload.Ycsb.A)
  in
  let snap = Obs.Attr.snapshot () in
  let op_ns = Obs.Attr.op_ns () in
  let accounted = Obs.Attr.accounted_ns () in
  let coverage = if op_ns > 0.0 then accounted /. op_ns else 0.0 in
  let coverage_ok = Float.abs (1.0 -. coverage) <= 0.05 in
  (* Ledger and device figures before the space-amp scan: [logical_bytes]
     walks the whole store and would perturb the device read counters. *)
  let m = Shard.Router.metrics router in
  let waf = Shard.Router.write_amplification router in
  let raf = Shard.Router.read_amplification router in
  let pm = Pmem.stats (Shard.Router.pm router) in
  let ssd = Ssd.stats (Shard.Router.ssd router) in
  let pm_written = pm.Pmem.bytes_written and ssd_written = ssd.Ssd.bytes_written in
  let device_read = pm.Pmem.bytes_read + ssd.Ssd.bytes_read in
  let debt_bytes = Shard.Router.compaction_debt_bytes router in
  let debt_runs = Shard.Router.debt_runs router in
  let space = Shard.Router.space_bytes router in
  let logical = Shard.Router.logical_bytes router in
  let mb b = float_of_int b /. 1048576.0 in

  Fmt.pr "== doctor: %s, %d shard(s) (config %s) ==@." cfg.Core.Config.name shards
    (Core.Config.fingerprint cfg);
  Fmt.pr "workload: YCSB-A, %d records + %d ops over %d clients, %.3f simulated s@.@."
    records ops router_clients (elapsed_ns /. 1e9);
  print_phases ~title:"top phases by op time" ~column:"op time" snap snap.Obs.Attr.op_phases
    op_ns;
  Fmt.pr "attribution coverage: %.1f%% of %s measured op time (%s)@.@."
    (100.0 *. coverage) (dur op_ns)
    (if coverage_ok then "PASS, within 5%" else "FAIL, off by more than 5%");
  let bg_ns = List.fold_left (fun acc (_, ns) -> acc +. ns) 0.0 snap.Obs.Attr.bg_phases in
  if bg_ns > 0.0 then
    print_phases ~title:"background phases (off the op path)" ~column:"bg time" snap
      snap.Obs.Attr.bg_phases bg_ns
  else Fmt.pr "background phases (off the op path): none@.";
  Fmt.pr "@.";

  Fmt.pr "amplification:@.";
  Fmt.pr "  write amp %6.2fx  (user %.1f MB -> pm %.1f MB + ssd %.1f MB)@." waf
    (mb m.Core.Metrics.user_bytes_written)
    (mb pm_written) (mb ssd_written);
  Fmt.pr "  read amp  %6.2fx  (user %.1f MB returned, devices read %.1f MB)@." raf
    (mb m.Core.Metrics.user_bytes_read)
    (mb device_read);
  Fmt.pr "  space amp %6.2fx  (physical %.1f MB / logical %.1f MB)@."
    (if logical > 0 then float_of_int space /. float_of_int logical else 0.0)
    (mb space) (mb logical);
  Fmt.pr "compaction debt: %.1f MB of level-0 backlog in %d run(s)@." (mb debt_bytes)
    debt_runs;
  Fmt.pr "write stalls: %d stall(s), %s total@." m.Core.Metrics.write_stalls
    (dur m.Core.Metrics.write_stall_time);
  Array.iteri
    (fun i e ->
      if Core.Engine.wal e <> None then Fmt.pr "shard%d %a@." i Core.Engine.pp_wal e)
    (Shard.Router.engines router);
  Fmt.pr "@.";

  let probes = !Pmtable.Pm_table.bloom_probes - bloom_probes0 in
  let negs = !Pmtable.Pm_table.bloom_negatives - bloom_negs0 in
  Fmt.pr "read-path effectiveness:@.";
  (match Shard.Router.block_cache router with
  | Some c ->
      Fmt.pr "  block cache hit ratio %.3f (%d hits / %d misses)@."
        (Cache.Block_cache.hit_ratio c)
        (Cache.Block_cache.hits c) (Cache.Block_cache.misses c)
  | None -> Fmt.pr "  block cache: disabled@.");
  if probes > 0 then
    Fmt.pr "  pm bloom filter rate %.3f (%d of %d probes screened)@."
      (float_of_int negs /. float_of_int probes)
      negs probes
  else Fmt.pr "  pm blooms: never probed@.";
  Fmt.pr "  pm hit ratio %.3f (reads answered without the SSD)@.@."
    (Core.Metrics.pm_hit_ratio m);

  print_pipeline (Shard.Router.pipeline_stats router)
    ~enabled:cfg.Core.Config.pipeline_compaction;
  print_front_door router;
  Fmt.pr "shard health (EWMA latency vs baseline, breaker states):@.";
  Fmt.pr "%a@." Shard.Router.pp_health router;
  (match Pmem.sanitizer (Shard.Router.pm router) with
  | None -> Fmt.pr "sanitizer: not attached@."
  | Some san ->
      let errs = Sanitize.Pmsan.error_count san in
      if errs = 0 then Fmt.pr "sanitizer: clean@."
      else Fmt.pr "sanitizer: %d finding(s) — run 'sanitize' for detail@." errs);
  if coverage_ok then Fmt.pr "@.doctor: OK@."
  else begin
    Fmt.pr "@.doctor: FAIL (attribution does not cover measured op time)@.";
    exit 1
  end

let doctor_cmd =
  let records =
    Arg.(value & opt int 10_000 & info [ "records" ] ~doc:"Records loaded before the run.")
  in
  let ops =
    Arg.(value & opt int 10_000 & info [ "ops" ] ~doc:"YCSB-A operations to diagnose.")
  in
  let value_bytes =
    Arg.(value & opt int 1024 & info [ "value-bytes" ] ~doc:"Value size in bytes.")
  in
  let run cfg block_cache_mb no_sanitize shards gc_window gc_max
      durable records ops value_bytes =
    let cfg = apply_read_path cfg block_cache_mb in
    if no_sanitize then Sanitize.Control.disable ();
    let cfg = apply_shard cfg shards gc_window gc_max durable in
    doctor cfg ~records ~ops ~value_bytes
  in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:"Run a YCSB-A diagnosis pass: per-phase latency attribution \
             (where each operation's simulated time went), the \
             amplification/stall ledger (write/read/space amplification, \
             compaction debt, write stalls), read-path effectiveness \
             (block cache, PM blooms), the compaction pipeline, the \
             router's front door (dispatch and admission stall counts, \
             group-commit batching with the batch-size distribution, a \
             per-shard backlog table), shard health and sanitizer status. \
             Exits 1 if the attributed phases fail to cover measured op \
             time within 5%.")
    Term.(const run $ system_arg $ block_cache_arg $ no_sanitize_arg
          $ shards_arg $ gc_window_arg $ gc_max_arg $ durable_arg
          $ records $ ops $ value_bytes)

(* --- soak ----------------------------------------------------------------- *)

let soak_cmd =
  let seed =
    Arg.(value & opt int 42
        & info [ "seed" ] ~docv:"SEED"
            ~doc:"Seed for the episode schedule, fault plans and workload.")
  in
  let rounds =
    Arg.(value & opt int 16
        & info [ "rounds" ] ~docv:"N" ~doc:"Chaos episodes to run.")
  in
  let ops =
    Arg.(value & opt int 600
        & info [ "ops-per-round" ] ~docv:"N" ~doc:"Operations per episode.")
  in
  let keyspace =
    Arg.(value & opt int 2_000
        & info [ "keyspace" ] ~docv:"N" ~doc:"Distinct keys in the workload.")
  in
  let quiet =
    Arg.(value & flag
        & info [ "quiet" ] ~doc:"Suppress the per-round episode progress lines.")
  in
  let run cfg shards seed rounds ops keyspace quiet =
    (* Crash episodes replay from the WAL and the deadline budgets are the
       point of the exercise, so durability, sharding and the gray-failure
       knobs are forced on regardless of the base system. *)
    let cfg =
      {
        cfg with
        Core.Config.name = cfg.Core.Config.name ^ "-soak";
        durable = true;
        shard_count = max 2 shards;
        breaker_enabled = true;
        deadline_read_ns = 300_000.0;
        deadline_write_ns = 2_000_000.0;
      }
    in
    let scfg =
      Shard.Soak.config ~seed ~rounds ~ops_per_round:ops ~keyspace cfg
    in
    let progress ~round ~episode =
      if not quiet then Fmt.pr "round %2d: %s@." round episode
    in
    let r = Shard.Soak.run ~progress scfg in
    Fmt.pr "@.%a@." Shard.Soak.pp_report r;
    if Shard.Soak.clean r then Fmt.pr "@.soak: clean@."
    else begin
      Fmt.pr "@.soak: FAILED (%d violation(s))@."
        (List.length r.Shard.Soak.violations);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:"Run the chaos soak: seeded rounds of gray faults (fail-slow \
             devices, I/O-error storms, stuck fsync on one sick shard's \
             range), crash-restart cycles (including a crash during \
             recovery), and bit-rot injection, driven through the \
             health-aware router with deadline budgets, continuously \
             checked against a golden model. Exits 1 on any correctness, \
             manifest or sanitizer violation.")
    Term.(const run $ system_arg $ shards_arg $ seed $ rounds $ ops $ keyspace
          $ quiet)

(* --- info ---------------------------------------------------------------- *)

let info_cmd =
  let run () =
    Fmt.pr "%-12s %-6s %-10s %-22s %s@." "system" "L0" "capacity" "strategy" "table";
    List.iter
      (fun (name, (cfg : Core.Config.t)) ->
        Fmt.pr "%-12s %-6s %-10s %-22s %s@." name
          (match cfg.l0_medium with Core.Config.L0_pm -> "PM" | L0_ssd -> "SSD")
          (Printf.sprintf "%dMB" (cfg.l0_capacity / 1024 / 1024))
          (match cfg.l0_strategy with
          | Core.Config.Cost_based _ -> "cost-based (Eq.1-3)"
          | Core.Config.Conventional { max_tables = Some n; _ } ->
              Printf.sprintf "major at %d tables" n
          | Core.Config.Conventional _ -> "major when full"
          | Core.Config.Matrix { columns; _ } ->
              Printf.sprintf "column compaction/%d" columns)
          (match cfg.table_kind with
          | Pmtable.Table.Pm_compressed -> "compressed PM table"
          | Array_plain -> "array"))
      systems
  in
  Cmd.v (Cmd.info "info" ~doc:"List the engine variants.") Term.(const run $ const ())

let () =
  (* PMB_PLANT=wal_skip_drain plants the unfenced-log bug (every WAL sync
     skips its fence): the crash sweep and the sanitizer must then fail. *)
  if Sys.getenv_opt "PMB_PLANT" = Some "wal_skip_drain" then Core.Wal.chaos_skip_drain := true;
  let doc = "PM-Blade: a persistent-memory augmented LSM-tree storage engine (simulated)." in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "pm_blade_cli" ~doc) [ ycsb_cmd; retail_cmd; stats_cmd; doctor_cmd; crashtest_cmd; scrub_cmd; sanitize_cmd; soak_cmd; info_cmd ]))
