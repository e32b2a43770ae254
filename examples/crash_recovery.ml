(* Crash and recovery, now with teeth: instead of politely dropping the
   DRAM structures at a quiet moment, a fault plan cuts the run mid-write
   at a chosen injection site, the devices crash to their durable contents
   (torn SSD tail included), and the recovered engine is audited against a
   golden model of every acknowledged write. The same machinery then shows
   the counterfactual: an engine whose WAL ring write-backs never reach
   the medium loses acknowledged writes, and the checker catches it
   red-handed.

     dune exec examples/crash_recovery.exe *)

let config =
  {
    Core.Config.pmblade with
    Core.Config.memtable_bytes = 4 * 1024;
    l0_run_table_bytes = 8 * 1024;
    level_base_bytes = 64 * 1024;
    sstable_target_bytes = 16 * 1024;
    durable = true;
  }

(* Mirror every operation into the golden model: begin before the engine
   call, ack after it returns. Whatever is pending when the plan raises
   [Crashed] is the one op recovery may legitimately go either way on. *)
let run_workload golden engine ~ops =
  let rng = Util.Xoshiro.create 7 in
  try
    for i = 0 to ops - 1 do
      let key = Util.Keys.record_key ~table_id:1 ~row_id:(Util.Xoshiro.int rng 200) in
      let value =
        Printf.sprintf "status=%d payload=%s" (i mod 5) (Util.Xoshiro.string rng 32)
      in
      Fault.Golden.begin_put golden ~key value;
      Core.Engine.put ~update:true engine ~key value;
      Fault.Golden.ack golden
    done;
    None
  with Fault.Plan.Crashed { site; hit } -> Some (site, hit)

let crash_and_audit ~plan_rules ~crash_at ~label =
  let engine = Core.Engine.create config in
  let pm = Core.Engine.pm engine and ssd = Core.Engine.ssd engine in
  Pmem.enable_crash_mode pm;
  Ssd.enable_crash_mode ssd;
  let plan = Fault.Plan.create ~crash_at 7 in
  List.iter
    (fun (site, trigger, action) -> Fault.Plan.add_rule plan ~site ~trigger action)
    plan_rules;
  Fault.Plan.arm plan ~pm ~ssd;
  Option.iter (Fault.Plan.arm_wal plan) (Core.Engine.wal engine);
  let golden = Fault.Golden.create () in
  (match run_workload golden engine ~ops:400 with
  | Some (site, hit) ->
      Printf.printf "%s: crashed mid-run at site %d (%s), %d keys acknowledged\n"
        label hit site (List.length (Fault.Golden.entries golden))
  | None -> Printf.printf "%s: workload outran the crash schedule\n" label);
  Fault.Plan.disarm ~pm ~ssd;
  Option.iter Fault.Plan.disarm_wal (Core.Engine.wal engine);

  (* The devices lose everything not fenced/fsynced; the SSD keeps a
     3-byte torn tail on every file to make replay earn its keep. *)
  Pmem.crash pm;
  Ssd.crash ~keep:(fun ~file_id:_ ~durable:_ ~size:_ -> 3) ssd;

  let t0 = Sim.Clock.now (Pmem.clock pm) in
  let recovered = Core.Engine.recover config ~pm ~ssd in
  Printf.printf "  recovered in %.2f simulated ms (manifest + reopen + WAL replay)\n"
    ((Sim.Clock.now (Pmem.clock pm) -. t0) /. 1e6);

  let violations =
    Fault.Checker.check_view golden (Fault.Checker.view_of_engine recovered)
    @ Fault.Checker.check_manifest recovered
  in
  (match violations with
  | [] ->
      Printf.printf "  invariants: all hold (%d acked keys audited)\n"
        (List.length (Fault.Golden.entries golden))
  | vs ->
      Printf.printf "  invariants VIOLATED (%d shown of %d):\n" (min 5 (List.length vs))
        (List.length vs);
      List.iteri
        (fun i v -> if i < 5 then Fmt.pr "    %a@." Fault.Checker.pp_violation v)
        vs);
  (recovered, violations)

let () =
  (* Act 1: a healthy engine. Crash at the 200th injection site — deep in
     the workload, past memtable flushes and WAL rotations — and every
     acknowledged write comes back. *)
  let recovered, violations =
    crash_and_audit ~plan_rules:[] ~crash_at:200 ~label:"healthy engine"
  in
  assert (violations = []);

  (* ...and it keeps serving. *)
  Core.Engine.put recovered ~key:"post-crash" "still alive";
  Printf.printf "  post-crash write readable: %b\n\n"
    (Core.Engine.get recovered "post-crash" = Some "still alive");

  (* Act 2: the same crash against a medium that drops the WAL ring's
     write-backs. The writes were acknowledged, the bytes never became
     durable — exactly the bug class this subsystem exists to catch. *)
  let _, violations =
    crash_and_audit
      ~plan_rules:[ ("wal.sync", Fault.Plan.Every, Fault.Plan.Wal_sync_loss) ]
      ~crash_at:200 ~label:"engine with broken WAL barrier"
  in
  assert (violations <> []);
  print_endline "  (planted durability bug detected, as it should be)"
