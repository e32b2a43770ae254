(** Write-ahead log on a persistent-memory ring: one PM region per log,
    sized for a memtable's worth of records and replaced by a fresh region
    at every memtable flush. {!append} only stages into a DRAM group
    buffer; {!sync} is the durability point — one PM write of the staged
    group, a write-back of exactly the lines it touched, and one fence.
    Every record is framed with a CRC32, so replay needs no persisted tail
    pointer, skips rotten records and reports them instead of delivering
    garbage. *)

type t

val ring_bytes : memtable_bytes:int -> int
(** Ring capacity for a memtable of [memtable_bytes]: the encoded entries
    plus headroom for their frame headers. *)

val create : capacity:int -> Pmem.t -> t
(** Allocate a fresh ring of [capacity] bytes. Raises
    [Pmem.Out_of_space]. *)

val region_id : t -> int
(** The PM region of the current ring (changes at every {!rotate}). *)

val capacity : t -> int

val tail : t -> int
(** Bytes of the current ring holding synced groups. *)

val append : t -> Util.Kv.entry -> unit
(** Stage the entry in the group buffer. It becomes durable only at the
    next {!sync}. *)

val fits : t -> bool
(** Would a {!sync} of the staged group fit in the current ring? When it
    would not, the owner flushes its memtable first, which rotates the
    log. *)

val sync : t -> unit
(** Write the staged group to the ring, write back its cache lines, issue
    one fence, and declare the ["wal.sync"] commit point (also when
    nothing is staged: an acknowledgement promises every earlier PM write
    is fenced). Raises [Invalid_argument] when the group does not
    {!fits}. *)

val buffered_bytes : t -> int
(** Bytes staged but not yet synced (0 right after a successful sync). *)

val rotate : t -> unit
(** Start a fresh ring and drop the staged group: the caller has just
    flushed the memtable that holds every logged and staged record. The
    new region is allocated before the old one is freed, so
    [Pmem.Out_of_space] leaves the log unchanged. *)

val free : t -> unit
(** Release the ring's region (recovery re-logs a damaged ring into a
    fresh one). *)

val entry_count : t -> int

type replay_stats = {
  entries : int;  (** entries decoded and delivered *)
  corrupt_records : int;  (** checksum-failed records skipped *)
  torn_tail : bool;  (** replay ended at an incomplete trailing frame *)
  dropped_bytes : int;  (** bytes not delivered (skipped + torn) *)
}

val replay : t -> (Util.Kv.entry -> unit) -> replay_stats
(** Visit every {e durable} logged entry oldest-first: the ring's fenced
    extent, never past it. Staged-but-unsynced entries are not consulted
    (they did not survive the crash). A record whose checksum fails but
    whose frame is intact is skipped and counted in [corrupt_records]; a
    frame that no longer fits the durable bytes is a torn tail and ends
    the replay. *)

val verify : t -> replay_stats
(** Checksum-walk the durable log without delivering entries (scrub). *)

val open_existing : Pmem.t -> region_id:int -> t
(** Reattach to a persisted ring; appends resume at its fenced extent.
    Raises [Failure] if the region is gone. *)

(** {1 Observability} *)

type stats = {
  mutable syncs : int;  (** non-empty group syncs *)
  mutable bytes : int;  (** framed bytes made durable *)
  mutable lines : int;  (** cache lines written back *)
  mutable fences : int;  (** persistence fences issued *)
  mutable high_water : int;  (** deepest ring tail reached, across rotations *)
}

val stats : t -> stats
(** Cumulative over this handle's life (rotations included). *)

val pp_summary : t Fmt.t
(** One line: ring region and size, tail, high-water mark, syncs, lines
    and fences. *)

(** {1 Fault injection} *)

val set_sync_hook : t -> (unit -> unit) option -> unit
(** Consulted at the start of every non-empty {!sync}, before anything is
    written; may raise to model a crash at the site. Sync loss is injected
    on the device instead, as a dropped flush of the ring region. *)

val chaos_skip_drain : bool ref
(** Planted-bug kill switch: {!sync} skips its fence, so an acknowledged
    group is not durable until some later fence. Tests only. *)
