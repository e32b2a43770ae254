(** Full-store integrity pass: every live table re-verified from the medium
    (via {!Engine.scrub}, optionally salvaging), the WAL ring's fenced
    extent checksum-walked, and the dual-slot manifest superblock checked. The
    [scrub] CLI subcommand and the corruption sweep drive this. *)

type report = {
  engine : Engine.scrub_report;
  wal : Wal.replay_stats option;  (** [None] when the engine is not durable *)
  manifest_slots : int;  (** superblock slots currently populated *)
  manifest_rotted : bool;
      (** a trial load of the newest manifest slot failed its checksum (the
          dual-slot fallback would serve the previous snapshot) *)
  manifest_fallbacks : int;  (** dual-slot fallbacks taken this process *)
}

val run : ?salvage:bool -> Engine.t -> report
(** [salvage] defaults to on, as in {!Engine.scrub}. *)

val clean : report -> bool
(** No corrupt tables, no rotted manifest slot, no corrupt WAL records, no
    torn tail. *)

val pp_report : report Fmt.t
