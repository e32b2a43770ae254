(** Post-recovery invariant checker.

    Run against a freshly-recovered engine and the {!Golden} model of the
    acknowledged history. Checks, in order: every acknowledged write is
    visible with its exact value and no tombstone resurrects (durability);
    the single op in flight at the crash is all-or-nothing (atomicity); the
    engine shows no key the model never wrote (phantoms); point gets agree
    with the full-range scan; the iterator walks the same view; and
    everything the manifest names exists on the devices. *)

type violation = { invariant : string; detail : string }

val pp_violation : violation Fmt.t

val check : Golden.t -> Core.Engine.t -> violation list
(** Empty list = all invariants hold. The engine is read (scans, gets,
    iterator) but not modified. *)

(** A store under check, as closures — the single engine and the sharded
    router both satisfy it, so the golden-model invariants apply unchanged
    to a merged cross-shard view. *)
type view = {
  v_scan_all : unit -> (string * string) list;  (** full-range scan *)
  v_get : string -> string option;  (** point lookup *)
  v_iter_all : unit -> (string * string) list;  (** full iterator walk *)
  v_damaged : string -> bool;  (** key inside a recorded lost range *)
}

val view_of_engine : Core.Engine.t -> view

val check_view : Golden.t -> view -> violation list
(** The golden-model invariants of {!check} (durability, atomicity,
    phantoms, scan/get agreement, iterator agreement) without the
    engine-specific manifest structural check. *)

val check_manifest : Core.Engine.t -> violation list
(** The structural check alone: everything the engine's manifest (under
    its [manifest_root] slot) names exists on the devices. *)

val check_corruption :
  ?excuse_lost:bool -> ?skip:(string -> bool) -> Golden.t -> view -> violation list
(** The corruption invariant: no read crashes, and no silently wrong
    answer — a mismatch against the golden history is excused only when
    the read raised {!Core.Engine.Degraded_read}, the key lies in a
    recorded lost range ([v_damaged]), or [excuse_lost] says a coarser
    detection signal (WAL corruption count, manifest fallback) already
    covers the history. Keys for which [skip] holds (default: none) are
    not judged. The full-range scan may raise {!Core.Engine.Degraded_scan}
    but nothing else. May quarantine structures as a side effect of the
    probing reads. *)
