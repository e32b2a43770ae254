(** The engine's structural state, persisted to an SSD file reachable from
    the device superblock: every PM region and SSD file of every partition,
    the WAL's PM ring, the sequence high-water mark, and the damage records of
    quarantined structures. Recovery starts here. Snapshots carry a
    trailing CRC32 and the superblock keeps two slots, so a rotten current
    snapshot falls back to the previous good one. *)

type row = { region_id : int; watermark : string }

type partition_state = {
  lo : string;
  hi : string;
  unsorted : row list;
  sorted_run : int list;
  ssd_l0 : int list;
  levels : int list list;
}

type quarantined_source = Q_region of int | Q_file of int

type quarantine = { source : quarantined_source; q_lo : string; q_hi : string }
(** A damage record: the structure was quarantined (pulled from the read
    path) or salvaged with losses; [q_lo, q_hi] conservatively bounds the
    keys that may have been lost. Recovery must neither reopen nor
    garbage-collect the named structure. *)

type state = {
  next_seq : int;
  wal_region_id : int option;  (** the WAL's PM ring *)
  partitions : partition_state list;
  quarantined : quarantine list;
}

val encode : state -> string
val decode : string -> state
(** Raises [Failure] on a bad magic, bad checksum, or truncation. *)

val persist : ?root:string -> Ssd.t -> state -> unit
(** Write a fresh manifest file, repoint the superblock (shifting the
    current root into the previous slot), and delete the manifest that
    falls off the two-slot window. [root] names the superblock slot pair
    used (default the unnamed pair) so several manifest chains — one per
    shard — can coexist on a shared device. *)

val load : ?root:string -> Ssd.t -> state option
(** [None] on a fresh device. Tries the current superblock slot first and
    falls back to the previous one when the current snapshot is unreadable
    (counting it in {!fallback_count} and emitting a [manifest.fallback]
    trace instant). Raises [Failure] when every slot is unreadable. *)

val fallback_count : unit -> int
(** Process-wide count of dual-slot fallbacks taken by {!load} (exposed as
    the [manifest.fallback] metric). *)
