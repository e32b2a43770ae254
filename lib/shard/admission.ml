(* Write-stall admission control, per shard. Admission decides only who
   waits; what to compact is [Core.Policy]'s choice.

   The signal is the policy's pressure, the shard's debt in level-0 runs
   ([Core.Policy.pressure]): what a point read may probe, so a resident
   sorted run on PM is one run however many tables it holds. Below
   [admission_soft_tables] writes pass untouched. In the soft zone a write
   never waits: when the shard's background worker is idle it hands the
   worker one relief step ([Core.Policy.relieve]: one partition's
   compaction, priced by Eq. 2), so the debt falls while writers keep
   running. At [admission_hard_tables] the shard stalls: the writer waits
   on the shard's background worker and forces hard relief (the router
   major-compacts every partition) until the debt drops below the limit.
   Stalls are visible — [shard.stall_*] metrics and the [Admission_stall]
   attr phase — and so are steps ([shard.relief_steps],
   [shard.relief_steps_internal]). *)

type t = {
  clock : Sim.Clock.t;
  soft_tables : int;
  hard_tables : int;
  mutable soft_admits : int;
  mutable relief_steps : int;
  mutable internal_steps : int;
  mutable stalls : int;
  mutable stall_ns : float;
}

let create ~clock ~soft_tables ~hard_tables =
  {
    clock;
    soft_tables = max 1 soft_tables;
    hard_tables = max 2 (max soft_tables hard_tables);
    soft_admits = 0;
    relief_steps = 0;
    internal_steps = 0;
    stalls = 0;
    stall_ns = 0.0;
  }

let at_hard_limit t engine = Core.Policy.pressure engine >= t.hard_tables

(* Admit one write to [engine]. [wait_background] blocks the caller until
   the shard's in-flight background job (if any) completes; [relieve]
   forces one round of compaction on the shard when waiting alone cannot
   drain the debt; [step], when offered, runs one relief step on the idle
   worker without charging the writer and says which compaction it ran. *)
let admit t engine ~wait_background ~relieve ~step =
  let debt () = Core.Policy.pressure engine in
  let d = debt () in
  if d >= t.hard_tables then begin
    t.stalls <- t.stalls + 1;
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
        if f () = Some Core.Policy.Internal then t.internal_steps <- t.internal_steps + 1
    | None -> ()
  end

let soft_admits t = t.soft_admits
let relief_steps t = t.relief_steps
let internal_steps t = t.internal_steps
let stalls t = t.stalls
let stall_ns t = t.stall_ns
