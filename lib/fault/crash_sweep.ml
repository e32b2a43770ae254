(* The crash sweep: systematic crash-consistency exploration.

   One clean counting run measures how many times the seeded workload
   reaches an injection site; the sweep then replays the identical
   workload once per chosen crash point, cutting execution at exactly that
   site, crashing both devices (with a seeded torn SSD tail), recovering,
   and running the invariant checker against the golden model. Determinism
   end to end: same seed, same config -> same site sequence -> the same
   crash point is the same crash, every time.

   The skeleton is parametric over the store it crashes: a [target] says
   how to build a fresh store and how to recover one, and a [store] is the
   live system as closures. [engine] is the single-engine target;
   [Shard.Sweep] supplies the router. *)

type store = {
  pm : Pmem.t;
  ssd : Ssd.t;
  wals : unit -> Core.Wal.t list;
  put : key:string -> string -> unit;
  delete : string -> unit;
  settle : unit -> unit;
  check : Golden.t -> Checker.violation list;
}

type target = {
  name : string;
  fresh : unit -> store;
  recover : pm:Pmem.t -> ssd:Ssd.t -> store;
}

type config = {
  seed : int;
  ops : int;
  keyspace : int;
  value_len : int;
  rules : (string * Plan.trigger * Plan.action) list;
      (* injected on every sweep run (not the counting run) — this is how a
         test plants a durability bug and proves the sweep catches it *)
  double_crash : bool;
      (* arm a second seeded crash schedule over the recovery path itself:
         legs whose recovery trips it crash again mid-recovery and recover
         from the doubly-crashed image, proving recovery is idempotent *)
  target : target;
}

let config ?(seed = 42) ?(ops = 300) ?(keyspace = 64) ?(value_len = 24)
    ?(rules = []) ?(double_crash = true) target =
  { seed; ops; keyspace; value_len; rules; double_crash; target }

(* --- The engine target ---------------------------------------------------- *)

(* A fresh simulated machine: devices in crash mode from the first write on
   (the engine's initial manifest is sealed, hence durable, before any
   workload op). *)
let fresh_engine engine_config =
  let engine = Core.Engine.create engine_config in
  Pmem.enable_crash_mode (Core.Engine.pm engine);
  Ssd.enable_crash_mode (Core.Engine.ssd engine);
  engine

let of_engine engine =
  {
    pm = Core.Engine.pm engine;
    ssd = Core.Engine.ssd engine;
    wals = (fun () -> Option.to_list (Core.Engine.wal engine));
    put = (fun ~key value -> Core.Engine.put ~update:true engine ~key value);
    delete = Core.Engine.delete engine;
    settle =
      (fun () ->
        Core.Engine.flush engine;
        Core.Engine.force_internal_compaction engine);
    check = (fun golden -> Checker.check golden engine);
  }

let engine engine_config =
  if not engine_config.Core.Config.durable then
    invalid_arg "Crash_sweep.engine: engine config must be durable";
  {
    name = "crash sweep";
    fresh = (fun () -> of_engine (fresh_engine engine_config));
    recover = (fun ~pm ~ssd -> of_engine (Core.Engine.recover engine_config ~pm ~ssd));
  }

(* --- Shared pieces: workload, crash, recovery, sanitizer ------------------ *)

(* The seeded workload, mirrored into the golden model op by op. *)
let run_ops ~seed ~ops ~keyspace ~value_len golden store =
  let rng = Util.Xoshiro.create (seed lxor 0x9E3779B9) in
  for i = 0 to ops - 1 do
    let key = Printf.sprintf "user%06d" (Util.Xoshiro.int rng keyspace) in
    if Util.Xoshiro.int rng 10 < 8 then begin
      let value = Printf.sprintf "%d:%s" i (Util.Xoshiro.string rng value_len) in
      Golden.begin_put golden ~key value;
      store.put ~key value;
      Golden.ack golden
    end
    else begin
      Golden.begin_delete golden key;
      store.delete key;
      Golden.ack golden
    end
  done

(* Pull the plug on both devices. With [torn_seed] every unsynced SSD file
   keeps a seeded torn tail of up to one 4 KiB page; without it, none. *)
let crash ?torn_seed ~pm ~ssd () =
  Pmem.crash pm;
  let keep =
    Option.map
      (fun seed ->
        let rng = Util.Xoshiro.create seed in
        fun ~file_id:_ ~durable:_ ~size:_ -> Util.Xoshiro.int rng 4096)
      torn_seed
  in
  Ssd.crash ?keep ssd

(* Run [f], the recovery; with [double], a second seeded schedule is armed
   over it. A leg whose recovery trips it is cut mid-recovery, both devices
   crash again (resurrecting whatever the half-finished recovery freed),
   and recovery reruns from the doubly-crashed image — so every orphan-GC,
   WAL-replay, and manifest-repair step must be idempotent. *)
let recover ?stats ~double ~salt ~seed n ~pm ~ssd f =
  if not double then f ()
  else begin
    let rng = Util.Xoshiro.create (seed lxor (salt + (31 * n))) in
    let plan = Plan.create ?stats ~crash_at:(1 + Util.Xoshiro.int rng 12) (seed + n) in
    Plan.arm plan ~pm ~ssd ();
    match f () with
    | t ->
        Plan.disarm ~pm ~ssd ();
        t
    | exception Plan.Crashed _ ->
        Plan.disarm ~pm ~ssd ();
        crash ~torn_seed:(seed + (104729 * n)) ~pm ~ssd ();
        f ()
    | exception e ->
        Plan.disarm ~pm ~ssd ();
        raise e
  end

(* Each leg runs sanitized (the PM device carries a pmsan shadow checker
   unless the config opted out): persistence-ordering findings from the
   pre-crash workload or the recovery path count as violations, so the
   sweep fails on ordering bugs even when the crash point happened to leave
   the data intact. *)
let sanitizer_violations pm =
  match Pmem.sanitizer pm with
  | None -> []
  | Some san ->
      List.map
        (fun f ->
          { Checker.invariant = "sanitizer";
            detail = Sanitize.Pmsan.finding_to_string f })
        (Sanitize.Pmsan.findings san)

(* --- The sweep ------------------------------------------------------------ *)

type point = {
  crash_at : int;
  crash_site : string option;
      (* None: the workload completed before reaching the point *)
  recovered : bool;
  violations : Checker.violation list;
}

type report = {
  name : string;
  total_sites : int;
  points : point list;
  stats : Plan.stats;
}

let violation_count r =
  List.fold_left (fun n p -> n + List.length p.violations) 0 r.points

let clean r = violation_count r = 0 && List.for_all (fun p -> p.recovered) r.points

(* Device sites are armed once (a sharded store shares its devices); WAL
   sync sites once per log. *)
let arm plan store =
  Plan.arm plan ~pm:store.pm ~ssd:store.ssd ();
  List.iter (Plan.arm_wal plan) (store.wals ())

let disarm store =
  Plan.disarm ~pm:store.pm ~ssd:store.ssd ();
  List.iter Plan.disarm_wal (store.wals ())

(* The workload plus the tail settle, which pulls the PM sites (table
   builds, run merges) into every run's site schedule. *)
let run_workload cfg golden store =
  try
    run_ops ~seed:cfg.seed ~ops:cfg.ops ~keyspace:cfg.keyspace
      ~value_len:cfg.value_len golden store;
    store.settle ();
    `Completed
  with Plan.Crashed { site; hit } -> `Crashed (site, hit)

let count_sites cfg =
  let store = cfg.target.fresh () in
  let plan = Plan.create ~counting:true cfg.seed in
  arm plan store;
  let golden = Golden.create () in
  (match run_workload cfg golden store with
  | `Completed -> ()
  | `Crashed _ -> assert false (* counting plans never act *));
  disarm store;
  Plan.global_hits plan

let run_crash_at ?stats cfg n =
  let store = cfg.target.fresh () in
  let pm = store.pm and ssd = store.ssd in
  let plan = Plan.create ?stats ~crash_at:n cfg.seed in
  List.iter
    (fun (site, trigger, action) -> Plan.add_rule plan ~site ~trigger action)
    cfg.rules;
  arm plan store;
  let golden = Golden.create () in
  let result = run_workload cfg golden store in
  disarm store;
  let crash_site =
    match result with
    | `Crashed (site, _) -> Some site
    | `Completed ->
        (* the point lies beyond the run: pull the plug at the end *)
        (Plan.stats plan).Plan.crashes <- (Plan.stats plan).Plan.crashes + 1;
        None
  in
  crash ~torn_seed:(cfg.seed + (7919 * n)) ~pm ~ssd ();
  match
    recover ?stats ~double:cfg.double_crash ~salt:0x2CC ~seed:cfg.seed n ~pm ~ssd
      (fun () -> cfg.target.recover ~pm ~ssd)
  with
  | recovered ->
      (Plan.stats plan).Plan.recoveries <-
        (Plan.stats plan).Plan.recoveries + 1;
      let violations = recovered.check golden @ sanitizer_violations pm in
      { crash_at = n; crash_site; recovered = true; violations }
  | exception Failure msg ->
      {
        crash_at = n;
        crash_site;
        recovered = false;
        violations =
          { Checker.invariant = "recovery"; detail = msg }
          :: sanitizer_violations pm;
      }

type selection = All | Sample of int

let select cfg selection total =
  match selection with
  | All -> List.init total (fun i -> i + 1)
  | Sample k when k >= total -> List.init total (fun i -> i + 1)
  | Sample k ->
      let arr = Array.init total (fun i -> i + 1) in
      Util.Xoshiro.shuffle (Util.Xoshiro.create ((cfg.seed * 31) + 17)) arr;
      Array.to_list (Array.sub arr 0 k) |> List.sort compare

let sweep ?(selection = All) ?stats ?progress cfg =
  let stats = match stats with Some s -> s | None -> Plan.make_stats () in
  let total = count_sites cfg in
  let points_to_test = select cfg selection total in
  let points =
    List.map
      (fun n ->
        let p = run_crash_at ~stats cfg n in
        (match progress with Some f -> f p | None -> ());
        if Obs.Trace.is_enabled () then begin
          Obs.Trace.instant "sweep.point" ~attrs:(fun () ->
              [
                ("crash_at", Obs.Trace.Int n);
                ("violations", Obs.Trace.Int (List.length p.violations));
              ]);
          (* One durable trace prefix per completed leg: an aborted sweep
             still yields a loadable trace of every leg it finished. *)
          Obs.Trace.flush ()
        end;
        p)
      points_to_test
  in
  { name = cfg.target.name; total_sites = total; points; stats }

let pp_report ppf r =
  let bad = List.filter (fun p -> p.violations <> []) r.points in
  Fmt.pf ppf "@[<v>%s: %d sites, %d crash points tested@," r.name
    r.total_sites (List.length r.points);
  Fmt.pf ppf "recoveries: %d/%d  injected faults: %d@,"
    (List.length (List.filter (fun p -> p.recovered) r.points))
    (List.length r.points) r.stats.Plan.injected;
  if bad = [] then Fmt.pf ppf "invariant violations: none@]"
  else begin
    Fmt.pf ppf "invariant violations: %d point(s)@," (List.length bad);
    List.iter
      (fun p ->
        Fmt.pf ppf "  crash at site %d (%a):@," p.crash_at
          Fmt.(Dump.option string)
          p.crash_site;
        List.iter
          (fun v -> Fmt.pf ppf "    %a@," Checker.pp_violation v)
          p.violations)
      bad;
    Fmt.pf ppf "@]"
  end
