(* The corruption sweep: systematic bit-rot exploration.

   Each point runs the seeded workload into a fresh engine, stages the
   store so the target structure exists (flush for PM tables, major
   compaction for SSTables, a manifest persist for the superblock), then
   injects one seeded corruption and demands the stack answers for it:

   - PM table / SSTable points scrub live: the damage must show up in the
     scrub report (else "undetected-corruption"), and after the salvage
     every surviving read must be exact, typed-degraded, or covered by a
     recorded lost range — never silently wrong, never a crash.
   - WAL / manifest points verify live (the scrubber walks the log and
     trial-loads the manifest), then pull the plug and recover: recovery
     must survive the rot — skipping and counting bad WAL records, falling
     back to the previous manifest slot — and the recovered engine is held
     to the same no-crash / no-silent-wrong-answer bar, with staleness
     excused because the coarse detection signal covers the whole history.

   Determinism end to end: the same seed picks the same victim bytes, so a
   failing point replays exactly. *)

type config = {
  seed : int;
  ops : int;
  keyspace : int;
  value_len : int;
  points : int;
  engine_config : Core.Config.t;
}

let config ?(seed = 42) ?(ops = 300) ?(keyspace = 64) ?(value_len = 24)
    ?(points = 8) engine_config =
  if not engine_config.Core.Config.durable then
    invalid_arg "Corruption_sweep.config: engine config must be durable";
  { seed; ops; keyspace; value_len; points; engine_config }

type point = {
  index : int;
  target : Plan.corruption_target;
  mode : Plan.corruption_mode;
  victim : string option;
      (* None: no eligible victim existed and the point was skipped *)
  detected : bool;
  recovered : bool;
  violations : Checker.violation list;
}

type report = {
  points : point list;
  skipped : int;
  stats : Plan.stats;
}

let violation_count r =
  List.fold_left (fun n p -> n + List.length p.violations) 0 r.points

let clean r =
  violation_count r = 0 && List.for_all (fun p -> p.recovered) r.points

let target_name = function
  | Plan.Pm_table_bytes -> "pm-table"
  | Plan.Sstable_bytes -> "sstable"
  | Plan.Wal_bytes -> "wal"
  | Plan.Manifest_bytes -> "manifest"

let mode_name = function
  | Plan.Bit_flip -> "bit-flip"
  | Plan.Zero_range n -> Printf.sprintf "zero-%dB" n

(* Stage the store so the target structure holds the workload's data. *)
let stage engine = function
  | Plan.Pm_table_bytes ->
      Core.Engine.flush engine;
      Core.Engine.force_internal_compaction engine
  | Plan.Sstable_bytes ->
      Core.Engine.flush engine;
      Core.Engine.force_major_compaction engine
  | Plan.Wal_bytes -> () (* the durable log holds every acked op *)
  | Plan.Manifest_bytes ->
      (* the flush persists a manifest, so both superblock slots exist *)
      Core.Engine.flush engine

let detected_in (scrub : Core.Scrubber.report) = function
  | Plan.Pm_table_bytes -> scrub.engine.Core.Engine.corrupt_pm_tables > 0
  | Plan.Sstable_bytes -> scrub.engine.Core.Engine.corrupt_sstables > 0
  | Plan.Wal_bytes -> (
      match scrub.wal with
      | Some s -> s.Core.Wal.corrupt_records > 0 || s.Core.Wal.torn_tail
      | None -> false)
  | Plan.Manifest_bytes -> scrub.manifest_rotted

let run_point ?stats (cfg : config) index =
  let target =
    [| Plan.Pm_table_bytes; Sstable_bytes; Wal_bytes; Manifest_bytes |].(index mod 4)
  in
  let mode = if index / 4 mod 2 = 0 then Plan.Bit_flip else Plan.Zero_range 16 in
  let engine = Crash_sweep.fresh_engine cfg.engine_config in
  let pm = Core.Engine.pm engine and ssd = Core.Engine.ssd engine in
  let golden = Golden.create () in
  (* the crash sweep's workload, without its tail flush: each point stages
     the store for its own target instead *)
  Crash_sweep.run_ops ~seed:cfg.seed ~ops:cfg.ops ~keyspace:cfg.keyspace
    ~value_len:cfg.value_len golden (Crash_sweep.of_engine engine);
  stage engine target;
  let plan = Plan.create ?stats (cfg.seed + (7919 * index)) in
  match
    Plan.inject_corruption plan ~pm ~ssd ?wal:(Core.Engine.wal engine) ~target
      ~mode ()
  with
  | None ->
      {
        index;
        target;
        mode;
        victim = None;
        detected = false;
        recovered = true;
        violations = [];
      }
  | Some c ->
      (* Live pass first: the scrubber must see the damage on every leg. *)
      let scrub = Core.Scrubber.run engine in
      let undetected =
        if detected_in scrub target then []
        else
          [
            {
              Checker.invariant = "undetected-corruption";
              detail =
                Printf.sprintf "%s %s at %s passed the scrub unnoticed"
                  (mode_name mode) (target_name target) c.Plan.victim;
            };
          ]
      in
      let recovered, violations =
        match target with
        | Plan.Pm_table_bytes | Plan.Sstable_bytes ->
            (* the scrub already salvaged; the live engine must now serve
               only exact, degraded, or recorded-lost answers *)
            (true, Checker.check_corruption golden engine)
        | Plan.Wal_bytes | Plan.Manifest_bytes -> (
            Crash_sweep.crash ~pm ~ssd ();
            match Core.Engine.recover cfg.engine_config ~pm ~ssd with
            | fresh ->
                (match stats with
                | Some s -> s.Plan.recoveries <- s.Plan.recoveries + 1
                | None -> ());
                (* stale answers are excused: the WAL corruption count /
                   manifest fallback already reported the loss *)
                (true, Checker.check_corruption ~excuse_lost:true golden fresh)
            | exception Failure msg ->
                ( false,
                  [
                    {
                      Checker.invariant = "recovery";
                      detail =
                        Printf.sprintf "recovery died on corrupted %s: %s"
                          (target_name target) msg;
                    };
                  ] ))
      in
      {
        index;
        target;
        mode;
        victim = Some c.Plan.victim;
        detected = undetected = [];
        recovered;
        (* every leg runs sanitized: ordering findings count as violations
           here too (see Crash_sweep.sanitizer_violations) *)
        violations =
          undetected @ violations @ Crash_sweep.sanitizer_violations pm;
      }

let sweep ?stats ?progress (cfg : config) =
  let stats = match stats with Some s -> s | None -> Plan.make_stats () in
  let points =
    List.init cfg.points (fun i ->
        let p = run_point ~stats cfg i in
        (match progress with Some f -> f p | None -> ());
        if Obs.Trace.is_enabled () then begin
          Obs.Trace.instant "corruption_sweep.point" ~attrs:(fun () ->
              [
                ("index", Obs.Trace.Int p.index);
                ("target", Obs.Trace.Str (target_name p.target));
                ("detected", Obs.Trace.Bool p.detected);
                ("violations", Obs.Trace.Int (List.length p.violations));
              ]);
          (* Durable prefix per completed leg (see Crash_sweep.sweep). *)
          Obs.Trace.flush ()
        end;
        p)
  in
  let skipped = List.length (List.filter (fun p -> p.victim = None) points) in
  { points; skipped; stats }

let pp_point ppf p =
  Fmt.pf ppf "point %d: %s %s -> %a" p.index (mode_name p.mode)
    (target_name p.target)
    Fmt.(Dump.option string)
    p.victim

let pp_report ppf r =
  let bad = List.filter (fun p -> p.violations <> []) r.points in
  Fmt.pf ppf "@[<v>corruption sweep: %d point(s), %d skipped (no victim)@,"
    (List.length r.points) r.skipped;
  Fmt.pf ppf "detected: %d/%d  injected: %d@,"
    (List.length (List.filter (fun p -> p.detected && p.victim <> None) r.points))
    (List.length (List.filter (fun p -> p.victim <> None) r.points))
    r.stats.Plan.injected;
  if bad = [] then Fmt.pf ppf "invariant violations: none@]"
  else begin
    Fmt.pf ppf "invariant violations: %d point(s)@," (List.length bad);
    List.iter
      (fun p ->
        Fmt.pf ppf "  %a:@," pp_point p;
        List.iter (fun v -> Fmt.pf ppf "    %a@," Checker.pp_violation v) p.violations)
      bad;
    Fmt.pf ppf "@]"
  end
