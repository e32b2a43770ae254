(* Crash and recovery, now with teeth: instead of politely dropping the
   DRAM structures at a quiet moment, a fault plan cuts the run mid-write
   at a chosen injection site, the devices crash to their durable contents
   (torn SSD tail included), and the recovered store is audited against a
   golden model of every acknowledged write. The store is a one-shard
   router, the front door: its group committer makes each write durable
   before acknowledging it. The same machinery then shows the
   counterfactual: a store whose WAL ring write-backs never reach the
   medium loses acknowledged writes, and the checker catches it
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

(* Mirror every operation into the golden model: begin before the store
   call, ack after it returns. Whatever is pending when the plan raises
   [Crashed] is the one op recovery may legitimately go either way on. *)
let run_workload golden router ~ops =
  let sink = Shard.Router.sink router in
  let rng = Util.Xoshiro.create 7 in
  try
    for i = 0 to ops - 1 do
      let key = Util.Keys.record_key ~table_id:1 ~row_id:(Util.Xoshiro.int rng 200) in
      let value =
        Printf.sprintf "status=%d payload=%s" (i mod 5) (Util.Xoshiro.string rng 32)
      in
      Fault.Golden.begin_put golden ~key value;
      sink.Workload.Sink.put ~update:true ~key value;
      Fault.Golden.ack golden
    done;
    None
  with Fault.Plan.Crashed { site; hit } -> Some (site, hit)

let wals router = List.filter_map Core.Engine.wal (Array.to_list (Shard.Router.engines router))

let crash_and_audit ~plan_rules ~crash_at ~label =
  let router = Shard.Router.create config in
  let pm = Shard.Router.pm router and ssd = Shard.Router.ssd router in
  Pmem.enable_crash_mode pm;
  Ssd.enable_crash_mode ssd;
  let plan = Fault.Plan.create ~crash_at 7 in
  List.iter
    (fun (site, trigger, action) -> Fault.Plan.add_rule plan ~site ~trigger action)
    plan_rules;
  Fault.Plan.arm plan ~pm ~ssd;
  List.iter (Fault.Plan.arm_wal plan) (wals router);
  let golden = Fault.Golden.create () in
  (match run_workload golden router ~ops:400 with
  | Some (site, hit) ->
      Printf.printf "%s: crashed mid-run at site %d (%s), %d keys acknowledged\n"
        label hit site (List.length (Fault.Golden.entries golden))
  | None -> Printf.printf "%s: workload outran the crash schedule\n" label);
  Fault.Plan.disarm ~pm ~ssd;
  List.iter Fault.Plan.disarm_wal (wals router);

  (* The devices lose everything not fenced/fsynced; the SSD keeps a
     3-byte torn tail on every file to make replay earn its keep. *)
  Pmem.crash pm;
  Ssd.crash ~keep:(fun ~file_id:_ ~durable:_ ~size:_ -> 3) ssd;

  let t0 = Sim.Clock.now (Pmem.clock pm) in
  let recovered = Shard.Router.recover config ~pm ~ssd in
  Printf.printf "  recovered in %.2f simulated ms (manifest + reopen + WAL replay)\n"
    ((Sim.Clock.now (Pmem.clock pm) -. t0) /. 1e6);

  let violations =
    Fault.Checker.check_view golden (Shard.Router.view recovered)
    @ List.concat_map Fault.Checker.check_manifest
        (Array.to_list (Shard.Router.engines recovered))
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
  (* Act 1: a healthy store. Crash at the 200th injection site — deep in
     the workload, past memtable flushes and WAL rotations — and every
     acknowledged write comes back. *)
  let recovered, violations =
    crash_and_audit ~plan_rules:[] ~crash_at:200 ~label:"healthy store"
  in
  assert (violations = []);

  (* ...and it keeps serving. *)
  let sink = Shard.Router.sink recovered in
  sink.Workload.Sink.put ~update:false ~key:"post-crash" "still alive";
  Printf.printf "  post-crash write readable: %b\n\n"
    (sink.Workload.Sink.get "post-crash" = Some "still alive");

  (* Act 2: the same crash against a medium that drops the WAL ring's
     write-backs. The writes were acknowledged, the bytes never became
     durable — exactly the bug class this subsystem exists to catch. *)
  let _, violations =
    crash_and_audit
      ~plan_rules:[ ("wal.sync", Fault.Plan.Every, Fault.Plan.Wal_sync_loss) ]
      ~crash_at:200 ~label:"store with broken WAL barrier"
  in
  assert (violations <> []);
  print_endline "  (planted durability bug detected, as it should be)"
