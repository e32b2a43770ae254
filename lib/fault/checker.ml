(* The invariant checker: interrogates a freshly-recovered engine against
   the golden model. Violations are collected, not raised, so one run
   reports everything it broke. *)

type violation = { invariant : string; detail : string }

let pp_violation ppf v = Fmt.pf ppf "[%s] %s" v.invariant v.detail

let max_key_sentinel = "\xff\xff\xff\xff\xff\xff\xff\xff"

(* A store under check, as closures: the single engine or the sharded
   router both satisfy it, so every golden-model invariant below applies
   unchanged to the router's merged cross-shard view. *)
type view = {
  v_scan_all : unit -> (string * string) list;
  v_get : string -> string option;
  v_iter_all : unit -> (string * string) list;
  v_damaged : string -> bool;
}

let view_of_engine engine =
  {
    v_scan_all =
      (fun () -> Core.Engine.scan_range engine ~start:"" ~stop:max_key_sentinel);
    v_get = (fun key -> Core.Engine.get engine key);
    v_iter_all =
      (fun () ->
        Core.Iterator.fold engine ~start:"" ~init:[] (fun acc k v -> (k, v) :: acc)
        |> List.rev);
    v_damaged = Core.Engine.damaged_key engine;
  }

let check_view golden view =
  let violations = ref [] in
  let fail invariant detail =
    violations := { invariant; detail } :: !violations
  in
  (* One full-range scan: the recovered store's live view. *)
  let visible = Hashtbl.create 256 in
  List.iter
    (fun (k, v) ->
      if Hashtbl.mem visible k then
        fail "scan" (Fmt.str "key %S returned twice by full scan" k);
      Hashtbl.replace visible k v)
    (view.v_scan_all ());
  let pending = Golden.pending golden in
  let pending_key =
    match pending with Some (o : Golden.op) -> Some o.key | None -> None
  in
  (* Durability: every acknowledged op survived exactly; tombstones do not
     resurrect. The key of the op in flight at the crash is judged by the
     atomicity clause below instead. *)
  List.iter
    (fun (key, expect) ->
      if pending_key <> Some key then
        match (expect, Hashtbl.find_opt visible key) with
        | Some v, Some v' when String.equal v v' -> ()
        | Some v, Some v' ->
            fail "durability"
              (Fmt.str "key %S: acked value %S but recovered %S" key v v')
        | Some v, None ->
            fail "durability" (Fmt.str "acked write lost: %S -> %S" key v)
        | None, Some v' ->
            fail "no-resurrection"
              (Fmt.str "deleted key %S came back with %S" key v')
        | None, None -> ())
    (Golden.entries golden);
  (* Atomicity: the unacknowledged op is either fully applied or fully
     absent — no third state. *)
  (match pending with
  | None -> ()
  | Some { key; value = after } ->
      let before =
        match Golden.acked golden key with Some v -> v | None -> None
      in
      let got = Hashtbl.find_opt visible key in
      if got <> before && got <> after then
        fail "atomicity"
          (Fmt.str
             "pending op on %S half-visible: recovered %a, expected %a or %a"
             key
             Fmt.(Dump.option Dump.string)
             got
             Fmt.(Dump.option Dump.string)
             before
             Fmt.(Dump.option Dump.string)
             after));
  (* No phantoms: the engine shows nothing the model never wrote. *)
  Hashtbl.iter
    (fun key _ ->
      let known =
        Option.is_some (Golden.acked golden key) || pending_key = Some key
      in
      if not known then
        fail "phantom" (Fmt.str "key %S visible but never written" key))
    visible;
  (* Point reads agree with the scan (the two paths differ internally). *)
  List.iter
    (fun (key, _) ->
      if pending_key <> Some key then
        let via_scan = Hashtbl.find_opt visible key in
        let via_get = view.v_get key in
        if via_scan <> via_get then
          fail "scan-get-agreement"
            (Fmt.str "key %S: scan %a, get %a" key
               Fmt.(Dump.option Dump.string)
               via_scan
               Fmt.(Dump.option Dump.string)
               via_get))
    (Golden.entries golden);
  (* The iterator walks the same consistent view. *)
  let via_iter = view.v_iter_all () in
  if List.length via_iter <> Hashtbl.length visible then
    fail "iterator"
      (Fmt.str "iterator returned %d pairs, scan %d" (List.length via_iter)
         (Hashtbl.length visible))
  else
    List.iter
      (fun (k, v) ->
        match Hashtbl.find_opt visible k with
        | Some v' when String.equal v v' -> ()
        | _ -> fail "iterator" (Fmt.str "iterator pair %S disagrees with scan" k))
      via_iter;
  List.rev !violations

(* Structural agreement: everything the manifest names exists on the
   devices (recovery itself would have failed on a missing piece, but a
   re-load guards against the manifest drifting after recovery). *)
let check_manifest engine =
  let violations = ref [] in
  let fail invariant detail = violations := { invariant; detail } :: !violations in
  let root = Core.Engine.manifest_root engine in
  (match Core.Manifest.load ~root (Core.Engine.ssd engine) with
  | None -> fail "manifest" "no manifest on the device after recovery"
  | Some state ->
      let pm = Core.Engine.pm engine and ssd = Core.Engine.ssd engine in
      let check_region id =
        match Pmem.find_region pm id with
        | Some _ -> ()
        | None ->
            fail "manifest" (Fmt.str "manifest names missing PM region %d" id)
      in
      let check_file id =
        match Ssd.find_file ssd id with
        | Some _ -> ()
        | None ->
            fail "manifest" (Fmt.str "manifest names missing SSD file %d" id)
      in
      List.iter
        (fun (p : Core.Manifest.partition_state) ->
          List.iter
            (fun (r : Core.Manifest.row) -> check_region r.region_id)
            p.unsorted;
          List.iter check_region p.sorted_run;
          List.iter check_file p.ssd_l0;
          List.iter (List.iter check_file) p.levels)
        state.partitions;
      Option.iter check_region state.wal_region_id);
  List.rev !violations

(* The corruption invariant: after injected bit rot, a store may degrade
   — typed errors, damage records, skipped WAL records — but it must never
   crash on a read and never return a silently wrong answer. A mismatch is
   excused only when the store *told* someone: the read raised a typed
   degradation, the key lies in a recorded lost range, or the caller
   passes [excuse_lost] because a coarser detection signal (WAL
   corruption count, manifest fallback) already covers the whole history.
   Keys for which [skip] holds are not judged (either outcome is legal). *)
let check_corruption ?(excuse_lost = false) ?(skip = fun _ -> false) golden view =
  let violations = ref [] in
  let fail invariant detail = violations := { invariant; detail } :: !violations in
  let pending_key =
    match Golden.pending golden with Some (o : Golden.op) -> Some o.key | None -> None
  in
  List.iter
    (fun (key, expect) ->
      if pending_key <> Some key && not (skip key) then
        match view.v_get key with
        | exception Core.Engine.Degraded_read _ -> ()
        | exception e ->
            fail "no-crash"
              (Fmt.str "get %S raised %s under corruption" key (Printexc.to_string e))
        | got ->
            if got <> expect && not (excuse_lost || view.v_damaged key) then
              fail "silent-wrong-answer"
                (Fmt.str
                   "key %S: expected %a, got %a with no damage record covering it" key
                   Fmt.(Dump.option Dump.string)
                   expect
                   Fmt.(Dump.option Dump.string)
                   got))
    (Golden.entries golden);
  (* Scans must degrade the same way: typed error or clean result, no
     crash. *)
  (match view.v_scan_all () with
  | _ | (exception Core.Engine.Degraded_scan _) -> ()
  | exception e ->
      fail "no-crash"
        (Fmt.str "full-range scan raised %s under corruption" (Printexc.to_string e)));
  List.rev !violations
