(* schedsan: happens-before checker for the coroutine scheduler.

   The effect-based scheduler interleaves tasks only at yield points
   (Io/Work/Yield/Await), so a data race here is not a torn word but an
   unsynchronized read-modify-write across a yield — the classic lost
   update. schedsan tracks a vector clock per task, draws
   happens-before edges at spawn (parent → child), latch signal → await
   (release → acquire) and task completion, and checks annotated
   shared-variable accesses ([read]/[write] by name) FastTrack-style:
   an access unordered with the previous write (or a write unordered
   with a previous read) is a race.

   It also watches for lost wakeups: a task still parked on a latch when
   the scheduler runs out of work never received its signal. *)

type vc = (int, int) Hashtbl.t

let vc_get (vc : vc) k = Option.value (Hashtbl.find_opt vc k) ~default:0
let vc_leq (a : vc) (b : vc) =
  Hashtbl.fold (fun k v acc -> acc && v <= vc_get b k) a true

let vc_join (dst : vc) (src : vc) =
  Hashtbl.iter (fun k v -> if vc_get dst k < v then Hashtbl.replace dst k v) src

type task = { tid : int; tname : string; vc : vc }

type access = { a_tid : int; a_vc : vc; a_site : string }

type varstate = {
  mutable last_write : access option;
  reads : (int, access) Hashtbl.t;  (* concurrent readers since last write *)
  mutable reported : bool;          (* dedupe findings per variable *)
}

type finding = { f_kind : string; f_detail : string }

let max_findings = 64

type t = {
  mutable next_tid : int;
  root : task;
  mutable cur : task option;
  vars : (string, varstate) Hashtbl.t;
  syncs : (int, vc) Hashtbl.t;      (* latch id -> clock of its signals *)
  locks : (string, vc) Hashtbl.t;   (* named mutex -> clock of last unlock *)
  mutable blocked : (task * string) list;
  mutable races : int;
  mutable lost_wakeups : int;
  mutable findings : finding list;  (* newest first, capped *)
  mutable dropped_findings : int;
}

let create () =
  let root = { tid = 0; tname = "host"; vc = Hashtbl.create 8 } in
  Hashtbl.replace root.vc 0 1;
  {
    next_tid = 1;
    root;
    cur = None;
    vars = Hashtbl.create 16;
    syncs = Hashtbl.create 16;
    locks = Hashtbl.create 8;
    blocked = [];
    races = 0;
    lost_wakeups = 0;
    findings = [];
    dropped_findings = 0;
  }

let finding_to_string f = Printf.sprintf "schedsan:%s %s" f.f_kind f.f_detail

let report t ~kind ~detail =
  let f = { f_kind = kind; f_detail = detail } in
  if List.length t.findings < max_findings then t.findings <- f :: t.findings
  else t.dropped_findings <- t.dropped_findings + 1;
  Obs.Trace.instant "sanitize.schedsan" ~attrs:(fun () ->
      [ ("kind", Obs.Trace.Str kind); ("detail", Obs.Trace.Str detail) ])

let current t = match t.cur with Some task -> task | None -> t.root
let tick task = Hashtbl.replace task.vc task.tid (vc_get task.vc task.tid + 1)

let on_spawn t ~name =
  let parent = current t in
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let child = { tid; tname = name; vc = Hashtbl.copy parent.vc } in
  Hashtbl.replace child.vc tid 1;
  (* the parent's subsequent steps are concurrent with the child *)
  tick parent;
  child

let enter t task = t.cur <- Some task
let leave t _task = t.cur <- None

let on_task_done t task =
  (* completion edge into whoever observes the scheduler afterwards *)
  vc_join t.root.vc task.vc;
  tick task

let race t ~kind ~var ~(prev : access) ~(now : access) =
  t.races <- t.races + 1;
  let vs = Hashtbl.find t.vars var in
  if not vs.reported then begin
    vs.reported <- true;
    report t ~kind
      ~detail:
        (Printf.sprintf
           "'%s': task %d (%s) and task %d (%s) access it unsynchronized" var
           prev.a_tid prev.a_site now.a_tid now.a_site)
  end

let var_state t name =
  match Hashtbl.find_opt t.vars name with
  | Some vs -> vs
  | None ->
      let vs = { last_write = None; reads = Hashtbl.create 4; reported = false } in
      Hashtbl.add t.vars name vs;
      vs

let access_of task =
  { a_tid = task.tid; a_vc = Hashtbl.copy task.vc; a_site = Site.capture () }

let write t name =
  let task = current t in
  tick task;
  let vs = var_state t name in
  let now = access_of task in
  (match vs.last_write with
  | Some prev when prev.a_tid <> task.tid && not (vc_leq prev.a_vc task.vc) ->
      race t ~kind:"write-write-race" ~var:name ~prev ~now
  | _ -> ());
  Hashtbl.iter
    (fun rtid prev ->
      if rtid <> task.tid && not (vc_leq prev.a_vc task.vc) then
        race t ~kind:"read-write-race" ~var:name ~prev ~now)
    vs.reads;
  vs.last_write <- Some now;
  Hashtbl.reset vs.reads

let read t name =
  let task = current t in
  tick task;
  let vs = var_state t name in
  let now = access_of task in
  (match vs.last_write with
  | Some prev when prev.a_tid <> task.tid && not (vc_leq prev.a_vc task.vc) ->
      race t ~kind:"write-read-race" ~var:name ~prev ~now
  | _ -> ());
  Hashtbl.replace vs.reads task.tid now

let sync_vc t key =
  match Hashtbl.find_opt t.syncs key with
  | Some vc -> vc
  | None ->
      let vc = Hashtbl.create 8 in
      Hashtbl.add t.syncs key vc;
      vc

let release t task ~sync =
  vc_join (sync_vc t sync) task.vc;
  tick task

let acquire t task ~sync = vc_join task.vc (sync_vc t sync)

(* Named mutexes modelled as release/acquire pairs: [lock] orders the
   current task after every prior [unlock] of the same name, so
   lock-bracketed critical sections form a total happens-before chain and
   annotated accesses inside them never race. In the cooperative scheduler
   sections never interleave, so no ownership tracking is needed. *)
let lock_vc t name =
  match Hashtbl.find_opt t.locks name with
  | Some vc -> vc
  | None ->
      let vc = Hashtbl.create 8 in
      Hashtbl.add t.locks name vc;
      vc

let lock t name =
  let task = current t in
  vc_join task.vc (lock_vc t name)

let unlock t name =
  let task = current t in
  vc_join (lock_vc t name) task.vc;
  tick task

let note_blocked t task label = t.blocked <- (task, label) :: t.blocked

let note_unblocked t task =
  t.blocked <- List.filter (fun (b, _) -> b.tid <> task.tid) t.blocked

let on_run_end t =
  List.iter
    (fun (task, label) ->
      t.lost_wakeups <- t.lost_wakeups + 1;
      report t ~kind:"lost-wakeup"
        ~detail:
          (Printf.sprintf "task %d (%s) still parked on '%s' at scheduler exit"
             task.tid task.tname label))
    t.blocked;
  t.blocked <- []

let races t = t.races
let lost_wakeups t = t.lost_wakeups
let error_count t = t.races + t.lost_wakeups
let findings t = List.rev t.findings

let register_metrics t registry =
  let open Obs.Registry in
  register_int registry "sanitize.sched.races"
    ~help:"conflicting unsynchronized accesses found by schedsan" (fun () -> t.races);
  register_int registry "sanitize.sched.lost_wakeups"
    ~help:"tasks left parked on a latch when the scheduler ran dry" (fun () ->
      t.lost_wakeups)

let pp ppf t =
  Fmt.pf ppf "schedsan: %d race(s), %d lost wakeup(s)@." t.races t.lost_wakeups;
  List.iter (fun f -> Fmt.pf ppf "  %s@." (finding_to_string f)) (findings t);
  if t.dropped_findings > 0 then
    Fmt.pf ppf "  (+%d finding(s) dropped)@." t.dropped_findings
