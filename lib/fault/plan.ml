(* A fault plan: the deterministic schedule of what goes wrong.

   Each device hook reports to the plan when execution reaches its named
   site ("pm.flush", "wal.sync", ...). The plan counts the hit, consults
   its crash schedule and rules, and answers with the action to apply — or
   raises {Crashed} to cut the run at exactly that point. Because every
   source of nondeterminism in the repo flows through seeded Xoshiro
   generators, the same seed visits the same sites in the same order, so a
   crash-at-Nth-site schedule is perfectly reproducible: count the sites in
   one clean run, then replay crashing anywhere. *)

type action =
  | Crash
  | Pm_partial_flush of float
  | Pm_drop_flush
  | Ssd_io_error
  | Wal_sync_loss
  | Slow of float

type trigger = Every | Nth of int | Duty of { period : int; on : int }

(* [scope] narrows a rule to specific device objects: the predicate is
   applied to the region/file id the hook reports (gray faults confined to
   one shard's file range). A scoped rule never matches a site that
   reports no id. *)
type rule = {
  site : string;
  trigger : trigger;
  scope : (int -> bool) option;
  action : action;
}

exception Crashed of { site : string; hit : int }

type stats = {
  mutable injected : int;
  mutable crashes : int;
  mutable recoveries : int;
}

let make_stats () = { injected = 0; crashes = 0; recoveries = 0 }

type t = {
  seed : int;
  rng : Util.Xoshiro.t;
  mutable rules : rule list;
  site_hits : (string, int ref) Hashtbl.t;
  mutable global_hits : int;
  crash_at : int option;
  counting : bool;
  stats : stats;
}

let create ?stats ?crash_at ?(counting = false) seed =
  let stats = match stats with Some s -> s | None -> make_stats () in
  {
    seed;
    rng = Util.Xoshiro.create seed;
    rules = [];
    site_hits = Hashtbl.create 8;
    global_hits = 0;
    crash_at;
    counting;
    stats;
  }

let seed t = t.seed
let rng t = t.rng
let stats t = t.stats
let global_hits t = t.global_hits

let site_hit_count t site =
  match Hashtbl.find_opt t.site_hits site with Some r -> !r | None -> 0

let sites t =
  Hashtbl.fold (fun site r acc -> (site, !r) :: acc) t.site_hits []
  |> List.sort compare

let add_rule t ~site ~trigger ?scope action =
  t.rules <- t.rules @ [ { site; trigger; scope; action } ]

let note_injected t site =
  t.stats.injected <- t.stats.injected + 1;
  if Obs.Trace.is_enabled () then
    Obs.Trace.instant "fault.injected" ~attrs:(fun () ->
        [ ("site", Obs.Trace.Str site); ("hit", Obs.Trace.Int t.global_hits) ])

let crash t site =
  t.stats.crashes <- t.stats.crashes + 1;
  if Obs.Trace.is_enabled () then begin
    Obs.Trace.instant "fault.crash" ~attrs:(fun () ->
        [ ("site", Obs.Trace.Str site); ("hit", Obs.Trace.Int t.global_hits) ]);
    (* The crash unwinds arbitrarily far; make sure the events up to the
       crash point are on disk so a partial trace stays loadable. *)
    Obs.Trace.flush ()
  end;
  raise (Crashed { site; hit = t.global_hits })

(* Execution reached [site], optionally on device object [id]. Count the
   hit; in counting mode that is all. Otherwise the crash schedule takes
   precedence over the rules. *)
let hit ?id t site =
  t.global_hits <- t.global_hits + 1;
  let counter =
    match Hashtbl.find_opt t.site_hits site with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.add t.site_hits site r;
        r
  in
  incr counter;
  if t.counting then None
  else
    match t.crash_at with
    | Some n when t.global_hits >= n -> crash t site
    | _ -> (
        let matches r =
          r.site = site
          && (match r.scope with
             | None -> true
             | Some pred -> ( match id with Some i -> pred i | None -> false))
          && (match r.trigger with
             | Every -> true
             | Nth n -> !counter = n
             (* Duty cycle: [on] matching hits out of every [period] — an
                intermittent storm that comes and goes on a beat. *)
             | Duty { period; on } -> (!counter - 1) mod max 1 period < on)
        in
        match List.find_opt matches t.rules with
        | None -> None
        | Some { action = Crash; _ } -> crash t site
        | Some r ->
            note_injected t site;
            Some r.action)

(* The WAL's "wal.sync" site on the log's current ring; the id is
   re-queried per hit so scoped rules survive rotation. Sync loss does not
   touch the log itself: the ring's next write-back — the one this sync is
   about to issue — is dropped on the device, through a one-shot rule on
   "pm.flush" scoped to the ring's region. The WAL still issues its clwb,
   so pmsan (which records the program's clwbs) stays quiet on the
   injected fault. *)
let arm_wal t w =
  Core.Wal.set_sync_hook w
    (Some
       (fun () ->
         let ring = Core.Wal.region_id w in
         match hit ~id:ring t "wal.sync" with
         | Some Wal_sync_loss ->
             t.rules <-
               {
                 site = "pm.flush";
                 trigger = Nth (site_hit_count t "pm.flush" + 1);
                 scope = Some (fun id -> id = ring);
                 action = Pm_drop_flush;
               }
               :: t.rules
         | _ -> ()))

let disarm_wal w = Core.Wal.set_sync_hook w None

(* Arming installs one closure per device hook; each maps the plan's
   answer onto that site's outcome type. Actions foreign to a site (e.g. a
   [Wal_sync_loss] rule on "ssd.read") count as injected but degrade to the
   ok outcome. *)
let arm t ~pm ~ssd =
  Pmem.set_flush_hook pm
    (Some
       (fun ~region_id ~off:_ ~len ->
         match hit ~id:region_id t "pm.flush" with
         | Some (Pm_partial_flush frac) ->
             Pmem.Flush_partial (int_of_float (frac *. float_of_int len))
         | Some Pm_drop_flush -> Pmem.Flush_dropped
         | Some (Slow mult) -> Pmem.Flush_slow mult
         | _ -> Pmem.Flush_ok));
  Pmem.set_drain_hook pm (Some (fun () -> ignore (hit t "pm.drain")));
  Ssd.set_write_hook ssd
    (Some
       (fun ~file_id ~len:_ ->
         match hit ~id:file_id t "ssd.write" with
         | Some Ssd_io_error -> Ssd.Io_fail
         | Some (Slow mult) -> Ssd.Io_slow mult
         | _ -> Ssd.Io_ok));
  Ssd.set_read_hook ssd
    (Some
       (fun ~file_id ~len:_ ->
         match hit ~id:file_id t "ssd.read" with
         | Some Ssd_io_error -> Ssd.Io_fail
         | Some (Slow mult) -> Ssd.Io_slow mult
         | _ -> Ssd.Io_ok));
  Ssd.set_fsync_hook ssd
    (Some
       (fun ~file_id ->
         match hit ~id:file_id t "ssd.fsync" with
         | Some Ssd_io_error -> Ssd.Io_fail
         | Some (Slow mult) -> Ssd.Io_slow mult
         | _ -> Ssd.Io_ok))

let disarm ~pm ~ssd =
  Pmem.set_flush_hook pm None;
  Pmem.set_drain_hook pm None;
  Ssd.set_write_hook ssd None;
  Ssd.set_read_hook ssd None;
  Ssd.set_fsync_hook ssd None

(* --- Seeded corruption injection -----------------------------------------

   Bit rot as a first-class fault: flip or zero a seeded range of a live PM
   region, an SSD table file, the durable WAL bytes, or the current
   manifest snapshot. Injection is latency-free (the medium decays, nobody
   performs I/O) and counts in stats.injected; what the storage stack must
   then prove — the corruption sweep's invariant — is that the damage is
   detected, quarantined, or repaired, never silently served. *)

type corruption_target = Pm_table_bytes | Sstable_bytes | Wal_bytes | Manifest_bytes

type corruption_mode = Bit_flip | Zero_range of int

type corruption = {
  target : corruption_target;
  corruption_mode : corruption_mode;
  victim : string;  (* human-readable: "pm_region:3 off=117 len=1" *)
}

let corruption_len = function Bit_flip -> 1 | Zero_range n -> max 1 n

let target_site = function
  | Pm_table_bytes -> "corrupt.pm"
  | Sstable_bytes -> "corrupt.ssd"
  | Wal_bytes -> "corrupt.wal"
  | Manifest_bytes -> "corrupt.manifest"

let inject_corruption t ~pm ~ssd ~wals ~target ~mode () =
  let len = corruption_len mode in
  let dev_mode = match mode with Bit_flip -> `Flip | Zero_range _ -> `Zero in
  let pick_off size = if size <= len then 0 else Util.Xoshiro.int t.rng (size - len + 1) in
  let injected victim =
    note_injected t (target_site target);
    Some { target; corruption_mode = mode; victim }
  in
  let pick rng l = List.nth l (Util.Xoshiro.int rng (List.length l)) in
  let corrupt_pm_region kind r ~size =
    let off = pick_off size in
    Pmem.corrupt_region ~len ~mode:dev_mode pm r ~off;
    injected (Printf.sprintf "%s:%d off=%d len=%d" kind (Pmem.region_id r) off len)
  in
  let corrupt_ssd_file kind file =
    let size = Ssd.durable_size file in
    if size < len then None
    else begin
      let off = pick_off size in
      Ssd.corrupt_file ~len ~mode:dev_mode ssd file ~off;
      injected (Printf.sprintf "%s:%d off=%d len=%d" kind (Ssd.file_id file) off len)
    end
  in
  match target with
  | Pm_table_bytes -> (
      (* Every live WAL ring is off-limits: a ring corrupted as a "table"
         would surface as replay loss the table excusal rules never cover.
         Rings have their own target. *)
      let rings = List.map Core.Wal.region_id wals in
      let regions =
        Pmem.live_regions pm
        |> List.filter (fun r ->
               Pmem.region_len r >= len && not (List.mem (Pmem.region_id r) rings))
        |> List.sort (fun a b -> compare (Pmem.region_id a) (Pmem.region_id b))
      in
      match regions with
      | [] -> None
      | regions ->
          let r = pick t.rng regions in
          corrupt_pm_region "pm_region" r ~size:(Pmem.region_len r))
  | Sstable_bytes -> (
      (* Every superblock chain — the unnamed pair and each shard's named
         namespace — is off-limits: manifests have their own corruption
         target with its own excusal rules. *)
      let excluded =
        List.concat_map
          (fun name ->
            let cur, prev = Ssd.root_slots ~name ssd in
            List.filter_map Fun.id [ cur; prev ])
          ("" :: Ssd.root_names ssd)
      in
      let candidates =
        Ssd.live_file_ids ssd
        |> List.filter (fun id -> not (List.mem id excluded))
        |> List.filter_map (Ssd.find_file ssd)
        |> List.filter (fun f -> Ssd.durable_size f >= len)
      in
      match candidates with
      | [] -> None
      | candidates -> corrupt_ssd_file "ssd_file" (pick t.rng candidates))
  | Wal_bytes -> (
      (* A ring's durable bytes only: the tail past the fenced extent holds
         nothing replay would read. *)
      let candidates =
        List.filter_map
          (fun w ->
            match Pmem.find_region pm (Core.Wal.region_id w) with
            | Some r when Pmem.durable_upto r >= len -> Some r
            | _ -> None)
          wals
      in
      match candidates with
      | [] -> None
      | candidates ->
          let r = pick t.rng candidates in
          corrupt_pm_region "wal_ring" r ~size:(Pmem.durable_upto r))
  | Manifest_bytes -> (
      let candidates =
        ("" :: Ssd.root_names ssd)
        |> List.filter_map (fun name -> fst (Ssd.root_slots ~name ssd))
        |> List.filter_map (Ssd.find_file ssd)
      in
      match candidates with
      | [] -> None
      | candidates -> corrupt_ssd_file "manifest_file" (pick t.rng candidates))

let register_metrics reg stats =
  Obs.Registry.register_int reg "fault.injected"
    ~help:"Non-crash faults injected (partial flushes, I/O errors, sync loss)"
    (fun () -> stats.injected);
  Obs.Registry.register_int reg "fault.crashes"
    ~help:"Simulated crashes raised by fault plans" (fun () -> stats.crashes);
  Obs.Registry.register_int reg "fault.recoveries"
    ~help:"Successful post-crash recoveries" (fun () -> stats.recoveries)
