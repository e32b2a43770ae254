(* pmsan: shadow-memory persistence-ordering checker.

   The persistence domain of real PM hardware is the 64-byte cache line:
   a store is durable only once its line has been written back (clwb) and
   the write-back drained by a fence (sfence). pmsan shadows every PM
   region with one byte per line and advances a small state machine on
   the device events the [Pmem] shim forwards:

     Clean --write--> Dirty --flush--> Flushed --drain--> Clean

   Violations it reports:
     - missing-flush-at-commit: a commit point (WAL sync, PM-table seal,
       manifest install) executed while some line was still Dirty or
       Flushed-but-unfenced; those bytes would not survive a crash at the
       commit point even though the engine just promised durability.
     - fence-without-flush: a drain issued with no flush since the last
       drain — ordering without write-back persists nothing.
     - read-of-unpersisted: a read touching a line that was unfenced at
       an earlier commit point (marked stale there); recovery-path code
       consuming such bytes depends on unpersisted state.
     - redundant flush (performance, counted per call site): flushing a
       line that is already clean, re-flushing a line already flushed in
       the current fence epoch, or re-writing a flushed-but-unfenced line
       (no fence has banked the first write-back, so that clwb bought
       nothing — the classic chunked-writer tail-line waste). Free
       hot-path wins when eliminated.

   Cost model: the hot path (write/flush) is O(lines touched); commit
   points and reads are O(1) when nothing is outstanding, via an
   incrementally-maintained count of unfenced lines. Only a failing
   commit point scans shadows (to mark stale lines and name regions). *)

let line_bytes = 64
let max_findings = 64

type kind =
  | Missing_flush_at_commit
  | Fence_without_flush
  | Read_of_unpersisted

type finding = { kind : kind; region_id : int; site : string; detail : string }

(* Shadow byte layout (one byte per 64 B line):
   bits 0-1  state: 0 = clean/fenced, 1 = dirty, 2 = flushed-unfenced
   bit  2    flushed during the current fence epoch (redundancy tracking)
   bit  3    stale: line was unfenced at some past commit point; reading
             it afterwards is a read-of-unpersisted. *)
let st_mask = 0x03
let st_dirty = 0x01
let st_flushed = 0x02
let b_epoch = 0x04
let b_stale = 0x08

type shadow = {
  nlines : int;
  state : Bytes.t;
  mutable s_unfenced : int;  (* lines with state <> clean *)
  mutable dead : bool;       (* freed; kept reachable via the epoch list *)
}

type t = {
  regions : (int, shadow) Hashtbl.t;
  mutable epoch_lines : (shadow * int) list;
      (* lines flushed since the last drain; drained in O(flushes) *)
  mutable epoch_flush_calls : int;
  mutable unfenced_total : int;
  (* counters *)
  mutable commit_points : int;
  mutable missing_flush_at_commit : int;  (* commit points with unfenced lines *)
  mutable unfenced_lines_at_commit : int; (* total lines caught that way *)
  mutable fence_without_flush : int;
  mutable read_of_unpersisted : int;
  mutable redundant_flush : int;          (* line granularity *)
  redundant_sites : (string, int ref) Hashtbl.t;
  mutable findings : finding list;        (* newest first, capped *)
  mutable dropped_findings : int;
}

let create () =
  {
    regions = Hashtbl.create 64;
    epoch_lines = [];
    epoch_flush_calls = 0;
    unfenced_total = 0;
    commit_points = 0;
    missing_flush_at_commit = 0;
    unfenced_lines_at_commit = 0;
    fence_without_flush = 0;
    read_of_unpersisted = 0;
    redundant_flush = 0;
    redundant_sites = Hashtbl.create 16;
    findings = [];
    dropped_findings = 0;
  }

let kind_name = function
  | Missing_flush_at_commit -> "missing-flush-at-commit"
  | Fence_without_flush -> "fence-without-flush"
  | Read_of_unpersisted -> "read-of-unpersisted"

let finding_to_string f =
  Printf.sprintf "pmsan:%s region=%d at %s: %s" (kind_name f.kind) f.region_id
    f.site f.detail

let report t kind ~region_id ~detail =
  let site = Site.capture () in
  (match kind with
  | Missing_flush_at_commit -> t.missing_flush_at_commit <- t.missing_flush_at_commit + 1
  | Fence_without_flush -> t.fence_without_flush <- t.fence_without_flush + 1
  | Read_of_unpersisted -> t.read_of_unpersisted <- t.read_of_unpersisted + 1);
  let f = { kind; region_id; site; detail } in
  if List.length t.findings < max_findings then t.findings <- f :: t.findings
  else t.dropped_findings <- t.dropped_findings + 1;
  Obs.Trace.instant "sanitize.pmsan" ~attrs:(fun () ->
      [ ("kind", Obs.Trace.Str (kind_name kind)); ("site", Obs.Trace.Str site);
        ("region", Obs.Trace.Int region_id); ("detail", Obs.Trace.Str detail) ])

let nlines_of len = (len + line_bytes - 1) / line_bytes

let on_alloc t ~id ~len =
  Hashtbl.replace t.regions id
    { nlines = nlines_of len; state = Bytes.make (max 1 (nlines_of len)) '\000';
      s_unfenced = 0; dead = false }

let on_free t ~id =
  match Hashtbl.find_opt t.regions id with
  | None -> ()
  | Some sh ->
      (* Outstanding lines of a freed region can no longer break a commit
         point; its shadow stays reachable from the epoch list but is
         marked dead so the drain walk skips the global accounting. *)
      t.unfenced_total <- t.unfenced_total - sh.s_unfenced;
      sh.s_unfenced <- 0;
      sh.dead <- true;
      Hashtbl.remove t.regions id

let line_range ~off ~len nlines =
  if len <= 0 then (1, 0)
  else (off / line_bytes, min ((off + len - 1) / line_bytes) (nlines - 1))

let bump_site t site =
  match Hashtbl.find_opt t.redundant_sites site with
  | Some r -> incr r
  | None -> Hashtbl.add t.redundant_sites site (ref 1)

let on_write t ~id ~off ~len =
  match Hashtbl.find_opt t.regions id with
  | None -> ()
  | Some sh ->
      let lo, hi = line_range ~off ~len sh.nlines in
      let site = lazy (Site.capture ()) in
      for l = lo to hi do
        let b = Char.code (Bytes.get sh.state l) in
        if b land st_mask = 0 then begin
          sh.s_unfenced <- sh.s_unfenced + 1;
          t.unfenced_total <- t.unfenced_total + 1
        end;
        (* re-dirtying a flushed-but-unfenced line proves the earlier clwb
           was wasted work: no fence banked it, and the rewrite forces
           another write-back anyway (chunked writers flushing a partial
           tail line hit exactly this). The flushed-this-epoch credit is
           revoked too — the next flush of the new bytes is not redundant *)
        if b land st_mask = st_flushed then begin
          t.redundant_flush <- t.redundant_flush + 1;
          bump_site t (Lazy.force site)
        end;
        let b' = b land lnot (st_mask lor b_stale lor b_epoch) lor st_dirty in
        Bytes.set sh.state l (Char.chr b')
      done

let on_flush t ~id ~off ~len =
  t.epoch_flush_calls <- t.epoch_flush_calls + 1;
  match Hashtbl.find_opt t.regions id with
  | None -> ()
  | Some sh ->
      let lo, hi = line_range ~off ~len sh.nlines in
      let site = lazy (Site.capture ()) in
      for l = lo to hi do
        let b = Char.code (Bytes.get sh.state l) in
        let redundant = b land b_epoch <> 0 || b land st_mask = 0 in
        if redundant then begin
          t.redundant_flush <- t.redundant_flush + 1;
          bump_site t (Lazy.force site)
        end;
        let b = if b land b_epoch = 0 then begin
            t.epoch_lines <- (sh, l) :: t.epoch_lines;
            b lor b_epoch
          end else b
        in
        let b = if b land st_mask = st_dirty then b land lnot st_mask lor st_flushed else b in
        Bytes.set sh.state l (Char.chr b)
      done

let on_drain t =
  if t.epoch_flush_calls = 0 then
    report t Fence_without_flush ~region_id:(-1)
      ~detail:"drain issued with no flush since the previous drain";
  List.iter
    (fun (sh, l) ->
      let b = Char.code (Bytes.get sh.state l) in
      let b = b land lnot b_epoch in
      let b =
        if b land st_mask = st_flushed then begin
          if not sh.dead then begin
            sh.s_unfenced <- sh.s_unfenced - 1;
            t.unfenced_total <- t.unfenced_total - 1
          end;
          b land lnot (st_mask lor b_stale)
        end
        else b
      in
      Bytes.set sh.state l (Char.chr b))
    t.epoch_lines;
  t.epoch_lines <- [];
  t.epoch_flush_calls <- 0

let on_commit_point t name =
  t.commit_points <- t.commit_points + 1;
  if t.unfenced_total > 0 then begin
    t.unfenced_lines_at_commit <- t.unfenced_lines_at_commit + t.unfenced_total;
    (* Failure path only: scan shadows to name regions and mark the
       offending lines stale so later reads of them are flagged too. *)
    Hashtbl.iter
      (fun id sh ->
        if sh.s_unfenced > 0 then begin
          let dirty = ref 0 and flushed = ref 0 in
          for l = 0 to sh.nlines - 1 do
            let b = Char.code (Bytes.get sh.state l) in
            if b land st_mask <> 0 then begin
              if b land st_mask = st_dirty then incr dirty else incr flushed;
              Bytes.set sh.state l (Char.chr (b lor b_stale))
            end
          done;
          report t Missing_flush_at_commit ~region_id:id
            ~detail:
              (Printf.sprintf
                 "%d unfenced line(s) (%d dirty, %d flushed-unfenced) at commit point '%s'"
                 (!dirty + !flushed) !dirty !flushed name)
        end)
      t.regions
  end

let on_read t ~id ~off ~len =
  if t.unfenced_total > 0 || t.read_of_unpersisted > 0 then
    match Hashtbl.find_opt t.regions id with
    | None -> ()
    | Some sh ->
        if sh.s_unfenced > 0 then begin
          let lo, hi = line_range ~off ~len sh.nlines in
          let hit = ref false in
          for l = lo to hi do
            if (not !hit) && Char.code (Bytes.get sh.state l) land b_stale <> 0
            then begin
              hit := true;
              report t Read_of_unpersisted ~region_id:id
                ~detail:
                  (Printf.sprintf
                     "read [%d,%d) touches line %d, unpersisted at an earlier commit point"
                     off (off + len) l)
            end
          done
        end

let on_crash t =
  (* The crash reverts every region to its durable image: nothing is
     outstanding any more. Findings and counters survive — they describe
     the pre-crash execution. *)
  Hashtbl.iter
    (fun _ sh ->
      Bytes.fill sh.state 0 (Bytes.length sh.state) '\000';
      sh.s_unfenced <- 0)
    t.regions;
  t.unfenced_total <- 0;
  t.epoch_lines <- [];
  t.epoch_flush_calls <- 0

let error_count t =
  t.missing_flush_at_commit + t.fence_without_flush + t.read_of_unpersisted

let redundant_flushes t = t.redundant_flush
let commit_points t = t.commit_points
let missing_flush_at_commit t = t.missing_flush_at_commit
let fence_without_flush t = t.fence_without_flush
let read_of_unpersisted t = t.read_of_unpersisted
let findings t = List.rev t.findings

let redundant_by_site t =
  Hashtbl.fold (fun site r acc -> (site, !r) :: acc) t.redundant_sites []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let register_metrics t registry =
  let open Obs.Registry in
  register_int registry "sanitize.redundant_flush"
    ~help:"cache-line flushes of already-clean lines" (fun () -> t.redundant_flush);
  register_int registry "sanitize.missing_flush_at_commit"
    ~help:"commit points reached with dirty unflushed lines" (fun () ->
      t.missing_flush_at_commit);
  register_int registry "sanitize.fence_without_flush"
    ~help:"fences issued with no flush since the last fence" (fun () ->
      t.fence_without_flush);
  register_int registry "sanitize.read_of_unpersisted"
    ~help:"recovery-visible reads of never-persisted lines" (fun () ->
      t.read_of_unpersisted);
  register_int registry "sanitize.commit_points"
    ~help:"durability commit points checked by pmsan" (fun () -> t.commit_points)

let pp ppf t =
  Fmt.pf ppf "pmsan: %d commit point(s), %d error(s)@." t.commit_points
    (error_count t);
  Fmt.pf ppf "  missing-flush-at-commit: %d (%d line(s))@."
    t.missing_flush_at_commit t.unfenced_lines_at_commit;
  Fmt.pf ppf "  fence-without-flush:     %d@." t.fence_without_flush;
  Fmt.pf ppf "  read-of-unpersisted:     %d@." t.read_of_unpersisted;
  Fmt.pf ppf "  redundant flushes:       %d@." t.redundant_flush;
  List.iter
    (fun (site, n) -> Fmt.pf ppf "    %-32s %d@." site n)
    (redundant_by_site t);
  List.iter (fun f -> Fmt.pf ppf "  %s@." (finding_to_string f)) (findings t);
  if t.dropped_findings > 0 then
    Fmt.pf ppf "  (+%d finding(s) dropped)@." t.dropped_findings
