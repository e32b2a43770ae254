(* Full-store integrity pass: every live PM table and SSTable re-verified
   from the medium (via Engine.scrub, optionally salvaging), the WAL
   ring's fenced extent checksum-walked, and the dual-slot manifest
   superblock checked. One
   call answers "is everything on these devices still trustworthy, and what
   did we lose?" — the scrub CLI subcommand and the corruption sweep both
   drive it. *)

type report = {
  engine : Engine.scrub_report;
  wal : Wal.replay_stats option;  (* None when the engine is not durable *)
  manifest_slots : int;           (* superblock slots currently populated *)
  manifest_rotted : bool;         (* the newest slot failed its checksum *)
  manifest_fallbacks : int;       (* dual-slot fallbacks taken this process *)
}

let clean r =
  r.engine.Engine.corrupt_pm_tables = 0
  && r.engine.Engine.corrupt_sstables = 0
  && (not r.manifest_rotted)
  && (match r.wal with
     | Some s -> s.Wal.corrupt_records = 0 && not s.Wal.torn_tail
     | None -> true)

let run ?salvage engine =
  let scrub = Engine.scrub ?salvage engine in
  let wal = Option.map Wal.verify (Engine.wal engine) in
  (* A shard engine persists under its own named superblock root. *)
  let root = Engine.manifest_root engine in
  let cur, prev = Ssd.root_slots ~name:root (Engine.ssd engine) in
  let manifest_slots = (if cur = None then 0 else 1) + if prev = None then 0 else 1 in
  (* Trial-load the manifest: a rotted newest slot surfaces here as a
     dual-slot fallback (counted process-wide), not at the next restart. *)
  let fb_before = Manifest.fallback_count () in
  let manifest_rotted =
    match Manifest.load ~root (Engine.ssd engine) with
    | Some _ -> Manifest.fallback_count () > fb_before
    | None -> manifest_slots > 0
    | exception _ -> true
  in
  let report =
    { engine = scrub; wal; manifest_slots; manifest_rotted;
      manifest_fallbacks = Manifest.fallback_count () }
  in
  if Obs.Trace.is_enabled () then
    Obs.Trace.instant "scrubber.report" ~attrs:(fun () ->
        [
          ("tables", Obs.Trace.Int scrub.Engine.scrubbed_tables);
          ("corrupt_pm", Obs.Trace.Int scrub.Engine.corrupt_pm_tables);
          ("corrupt_sst", Obs.Trace.Int scrub.Engine.corrupt_sstables);
          ("salvaged", Obs.Trace.Int scrub.Engine.salvaged);
          ("clean", Obs.Trace.Bool (clean report));
        ]);
  report

let pp_report ppf r =
  Fmt.pf ppf "@[<v>%a@," Engine.pp_scrub_report r.engine;
  (match r.wal with
  | Some s ->
      Fmt.pf ppf "wal: %d entries, %d corrupt records, torn tail: %b@," s.Wal.entries
        s.Wal.corrupt_records s.Wal.torn_tail
  | None -> Fmt.pf ppf "wal: none (not durable)@,");
  Fmt.pf ppf "manifest: %d slot(s)%s, %d fallback(s)@]" r.manifest_slots
    (if r.manifest_rotted then " (newest slot ROTTED)" else "")
    r.manifest_fallbacks
