(* Write-stall admission control, per shard.

   The signal is the shard's compaction debt in level-0 runs
   ([Core.Engine.compaction_debt_runs]): what a point read may probe, so a
   resident sorted run on PM is one run however many tables it holds. Below
   [admission_soft_tables] writes pass untouched. In the soft zone a write
   never waits: when the shard's background worker is idle it hands the
   worker one relief step (one partition's major compaction), so the debt
   falls while writers keep running. At [admission_hard_tables] the shard
   stalls: the writer waits on the shard's background worker and forces
   relief until the debt drops back below the hard limit. A hard stall
   after steps have started shows that one partition per step falls
   behind the shard's flushes; from then on the shard is escalated, and a
   step that starts within one hand-off of the hard limit (a hand-off adds
   at most one run per partition) relieves until the debt is two
   hand-offs below it. Stalls are
   visible — [shard.stall_*] metrics and the [Admission_stall] attr phase —
   and so are steps ([shard.relief_steps]), so a backed-up shard shows up
   in doctor output rather than as mystery latency. *)

type t = {
  clock : Sim.Clock.t;
  soft_tables : int;
  hard_tables : int;
  mutable soft_admits : int;
  mutable relief_steps : int;
  mutable stalls : int;
  mutable stall_ns : float;
  mutable escalated : bool;  (* hard-stalled after steps started *)
}

let create ~clock ~soft_tables ~hard_tables =
  {
    clock;
    soft_tables = max 1 soft_tables;
    hard_tables = max 2 (max soft_tables hard_tables);
    soft_admits = 0;
    relief_steps = 0;
    stalls = 0;
    stall_ns = 0.0;
    escalated = false;
  }

let at_hard_limit t engine = Core.Engine.compaction_debt_runs engine >= t.hard_tables

(* The debt a soft-zone step at debt [d] relieves below: one partition's
   worth, unless the shard is escalated and the next hand-off could carry
   it to the hard limit. Without the deep step such a shard reaches the
   limit whenever its flushes outpace one partition's runs, a small
   difference that varies with the keys, so its full-relief stalls come
   irregularly. A deep step is long: the hand-off that waits for it and
   the next one can both land before another step starts, so it leaves
   room for two. *)
let step_target t engine d =
  let hand_off = Array.length (Core.Engine.partitions engine) in
  if t.escalated && d >= t.hard_tables - hand_off then t.hard_tables - (2 * hand_off) else d

(* Admit one write to [engine]. [wait_background] blocks the caller until
   the shard's in-flight background job (if any) completes; [relieve]
   forces one round of compaction on the shard when waiting alone cannot
   drain the debt; [step], when offered, starts one relief step on the
   idle worker without charging the writer, relieving until the debt is
   below the target it is given. *)
let admit t engine ~wait_background ~relieve ~step =
  let debt () = Core.Engine.compaction_debt_runs engine in
  let d = debt () in
  if d >= t.hard_tables then begin
    t.stalls <- t.stalls + 1;
    if t.relief_steps > 0 then t.escalated <- true;
    let t0 = Sim.Clock.now t.clock in
    Obs.Attr.with_phase Obs.Attr.Admission_stall (fun () ->
        (* Bounded: each round either rides a finishing background job or
           forces relief, and relief strictly shrinks level-0 — 64 rounds
           outlasts any realistic backlog, and the bound keeps a pathological
           configuration from wedging the writer forever. *)
        let rounds = ref 0 in
        while debt () >= t.hard_tables && !rounds < 64 do
          incr rounds;
          if not (wait_background ()) then relieve ()
        done);
    t.stall_ns <- t.stall_ns +. Float.max 0.0 (Sim.Clock.now t.clock -. t0)
  end
  else if d >= t.soft_tables then begin
    t.soft_admits <- t.soft_admits + 1;
    match step with
    | Some f ->
        t.relief_steps <- t.relief_steps + 1;
        f ~below:(step_target t engine d)
    | None -> ()
  end

let soft_admits t = t.soft_admits
let relief_steps t = t.relief_steps
let escalated t = t.escalated
let stalls t = t.stalls
let stall_ns t = t.stall_ns
