(* Write-stall admission control, per shard.

   The signal is the shard's compaction debt in level-0 tables. Below
   [admission_soft_tables] writes pass untouched. In the soft zone the
   writer is delayed proportionally to the overshoot (RocksDB's
   delayed-write style), giving background compaction a chance to keep up
   without ever blocking. At [admission_hard_tables] the shard stalls: the
   writer waits on the shard's background worker and forces relief until
   the debt drops back below the hard limit. Both zones are visible —
   [shard.stall_*] metrics and the [Admission_stall] attr phase — so a
   backed-up shard shows up in doctor output rather than as mystery
   latency. *)

(* Delay per unit of soft-zone overshoot, scaled linearly from the soft
   to the hard limit: 100 us just below the hard limit. *)
let soft_delay_ns = 100_000.0

type t = {
  clock : Sim.Clock.t;
  soft_tables : int;
  hard_tables : int;
  mutable soft_delays : int;
  mutable stalls : int;
  mutable stall_ns : float;
}

let create ~clock ~soft_tables ~hard_tables =
  {
    clock;
    soft_tables = max 1 soft_tables;
    hard_tables = max 2 (max soft_tables hard_tables);
    soft_delays = 0;
    stalls = 0;
    stall_ns = 0.0;
  }

let at_hard_limit t engine = Core.Engine.compaction_debt_tables engine >= t.hard_tables

(* Admit one write to [engine]. [wait_background] blocks the caller until
   the shard's in-flight background job (if any) completes; [relieve]
   forces one round of compaction on the shard when waiting alone cannot
   drain the debt. *)
let admit t engine ~wait_background ~relieve =
  let debt () = Core.Engine.compaction_debt_tables engine in
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
    t.soft_delays <- t.soft_delays + 1;
    let span = max 1 (t.hard_tables - t.soft_tables) in
    let over = d - t.soft_tables + 1 in
    let delay = soft_delay_ns *. float_of_int over /. float_of_int span in
    Obs.Attr.with_phase Obs.Attr.Admission_stall (fun () ->
        Sim.Clock.advance t.clock delay)
  end

let soft_delays t = t.soft_delays
let stalls t = t.stalls
let stall_ns t = t.stall_ns
