(* Bit rot, scrubbed: flip bytes in a live PM table, watch the scrubber
   detect it, salvage the survivors, quarantine the lost key range, and
   keep serving typed (never silently wrong) answers. Then the
   counterfactual that keeps the whole subsystem honest: an engine whose
   checksum verification is switched off sails through the same damage —
   and the corruption sweep catches it red-handed.

     dune exec examples/corruption_scrub.exe *)

let config =
  {
    Core.Config.pmblade with
    Core.Config.memtable_bytes = 4 * 1024;
    l0_run_table_bytes = 8 * 1024;
    level_base_bytes = 64 * 1024;
    sstable_target_bytes = 16 * 1024;
    durable = true;
  }

let key i = Printf.sprintf "user%06d" i

(* A durable one-shard store, written through its front door; the scrub
   below works on its one engine. *)
let build_store () =
  let router = Shard.Router.create config in
  let put = (Shard.Router.sink router).Workload.Sink.put in
  let rng = Util.Xoshiro.create 11 in
  for i = 0 to 299 do
    put ~update:true ~key:(key (i mod 64))
      (Printf.sprintf "gen%d:%s" i (Util.Xoshiro.string rng 24))
  done;
  Shard.Router.flush router;
  let engine = (Shard.Router.engines router).(0) in
  Core.Engine.force_internal_compaction engine;
  engine

let () =
  (* Act 1: rot a live PM table and scrub. *)
  let engine = build_store () in
  let pm = Core.Engine.pm engine and ssd = Core.Engine.ssd engine in
  let plan = Fault.Plan.create 11 in
  (match
     Fault.Plan.inject_corruption plan ~pm ~ssd
       ~wals:(Option.to_list (Core.Engine.wal engine))
       ~target:Fault.Plan.Pm_table_bytes
       ~mode:(Fault.Plan.Zero_range 32) ()
   with
  | Some c -> Printf.printf "injected: 32 zeroed bytes at %s\n" c.Fault.Plan.victim
  | None -> failwith "no PM table to corrupt?");

  let report = Core.Scrubber.run engine in
  Fmt.pr "%a@." Core.Scrubber.pp_report report;
  assert (report.Core.Scrubber.engine.Core.Engine.corrupt_pm_tables = 1);
  assert (not (Core.Scrubber.clean report));

  (* The lost range is on the record; every key inside it answers as
     damaged rather than silently missing. *)
  List.iter
    (fun (q : Core.Manifest.quarantine) ->
      Printf.printf "quarantined: keys %S .. %S\n" q.Core.Manifest.q_lo
        q.Core.Manifest.q_hi)
    (Core.Engine.quarantined engine);
  let damaged =
    List.filter (fun i -> Core.Engine.damaged_key engine (key i)) (List.init 64 Fun.id)
  in
  Printf.printf "keys inside the recorded lost range: %d of 64\n" (List.length damaged);
  (* Survivors still read exactly; a second scrub comes back clean. *)
  let survivors =
    List.filter (fun i -> Core.Engine.get engine (key i) <> None) (List.init 64 Fun.id)
  in
  Printf.printf "still readable after salvage: %d of 64\n" (List.length survivors);
  let again = Core.Scrubber.run engine in
  assert (Core.Scrubber.clean again);
  print_endline "re-scrub after salvage: clean\n";

  (* Act 2: the planted bug. Switch checksum verification off — the exact
     "skip the verify" regression a reviewer might wave through — and run
     the corruption sweep. It must come back dirty. *)
  let sweep_cfg = Shard.Sweep.config ~seed:11 config in
  Fun.protect
    ~finally:(fun () ->
      Pmtable.Pm_table.verify_checksums := true;
      Sstable.verify_checksums := true)
    (fun () ->
      Pmtable.Pm_table.verify_checksums := false;
      Sstable.verify_checksums := false;
      let broken = Shard.Sweep.corruption_sweep ~points:8 sweep_cfg in
      let bad =
        List.filter
          (fun (p : Shard.Sweep.corruption_point) -> p.violations <> [])
          broken.points
      in
      Printf.printf
        "sweep with checksum verification disabled: %d of %d point(s) with violations\n"
        (List.length bad) (List.length broken.points);
      assert (not (Shard.Sweep.corruption_clean broken));
      print_endline "  (planted integrity bug detected, as it should be)");

  (* And with verification back on, the same sweep is spotless. *)
  let healthy = Shard.Sweep.corruption_sweep ~points:8 sweep_cfg in
  assert (Shard.Sweep.corruption_clean healthy);
  print_endline "sweep with checksums on: clean"
