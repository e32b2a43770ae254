(** SSD block-device simulator.

    SSTables live as append-only files of 4 KiB pages. The synchronous
    interface charges the virtual clock directly (engine experiments); the
    asynchronous {!submit} interface models bounded device parallelism so
    latency grows with queue depth (scheduling experiments of Table III and
    Fig. 9). *)

type params = {
  page_size : int;
  read_latency_ns : float;
  write_latency_ns : float;
  read_byte_ns : float;
  write_byte_ns : float;
  fsync_latency_ns : float;  (** cost of a flush/FUA barrier command *)
  channels : int;  (** internal parallelism of the device *)
}

val default_params : params

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable read_time : float;
  mutable write_time : float;
  mutable request_latency : Util.Histogram.t;
}

type file
type op = Read | Write
type t

exception Io_error of { op : op; file_id : int }
(** Transient request failure injected by the read/write hooks; the request
    charged its service time but transferred nothing. Callers retry with
    bounded backoff (see [Engine]). *)

val create : ?params:params -> Sim.Clock.t -> t
val stats : t -> stats
val params : t -> params
val clock : t -> Sim.Clock.t

val busy_tracker : t -> Sim.Resource.t
(** Busy/idle accounting of the device under the async interface. *)

(** {1 File namespace} *)

val set_root : ?name:string -> t -> int -> unit
(** Superblock root pointer: the file id recovery starts from (the
    manifest). The superblock sector keeps two slots — setting a new root
    shifts the current one into the previous slot (one atomic single-sector
    write), so recovery can fall back if the current root's file is
    rotten. [name] selects an additional named root namespace (its own
    dual-slot pair) so several logical stores — e.g. range shards — can
    share the device; the default [""] is the classic unnamed superblock
    pair. Named slots are as atomic and durable as the unnamed ones. *)

val root : ?name:string -> t -> int option

val root_slots : ?name:string -> t -> int option * int option
(** [(current, previous)] superblock slots for [name] (default unnamed). *)

val root_names : t -> string list
(** Named root namespaces in use (excluding the unnamed pair). *)

val create_file : t -> file
val file_id : file -> int
val file_size : file -> int

val durable_size : file -> int
(** Bytes guaranteed to survive a crash (advanced by {!fsync} and {!seal};
    only enforced by {!crash} in crash mode). *)

val delete_file : t -> file -> unit
(** In crash mode the file moves to a graveyard instead of vanishing: a
    delete is directory metadata, so until the next {!crash} the durable
    pages are still on the device. *)

val find_file : t -> int -> file option

val live_file_ids : t -> int list
(** Ids of the live (non-deleted) files, ascending. *)

(** {1 Synchronous access}

    Each call is one device request and charges the virtual clock
    directly: [latency + bytes * byte_ns] for the request's length. The
    trace event, the
    [Ssd_read] attribution, the stats and the fault hook see the request
    once, with that total length. Requests are atomic: an [Io_fail] from
    the hook raises {!Io_error} before anything is transferred. An
    SSTable build is one {!append_owned} of its whole image; a compaction
    input is one {!read_in_place} over its data blocks.

    A file holds exactly the bytes written to it: the first write request
    sizes its storage to that request's length, later appends grow it. *)

val append : t -> file -> string -> unit
(** Sequential write: append [data] as one request. Raises {!Io_error}
    when the write hook fails the request (nothing is written). *)

val append_owned : t -> file -> Bytes.t -> unit
(** One write request of the whole of [data], which the device takes over:
    an empty file adopts it as its storage without a copy, so the caller
    must not touch [data] afterwards. Raises {!Io_error} like {!append}. *)

val fsync : t -> file -> unit
(** Flush/FUA barrier: everything appended so far is durable afterwards
    (unless the fsync hook swallows it). Charges [fsync_latency_ns]. *)

val seal : t -> file -> unit
(** Mark the file immutable (SSTables are sealed after build); implies
    {!fsync} — sealing is the build's durability point. *)

val pread : t -> file -> off:int -> len:int -> string
(** A random read of one request plus transfer. It returns a copy, which
    later damage to the file (or a crash) leaves unchanged. Raises
    [Invalid_argument] on an out-of-bounds span, {!Io_error} when the read
    hook fails the request. *)

val read_in_place : t -> file -> off:int -> len:int -> string
(** One read request over [off, off+len), charged like {!pread}, answered
    with a view of the file's own storage instead of a copy: the requested
    bytes sit at their file offsets in the returned string, and bytes past
    {!file_size} are unspecified. The view is valid until the file is next
    appended to, damaged, crashed or deleted; the caller must drop it
    before then. Raises [Invalid_argument] on an out-of-bounds span,
    {!Io_error} when the read hook fails the request. *)

val corrupt_file :
  ?len:int -> ?mode:[ `Flip | `Zero ] -> t -> file -> off:int -> unit
(** Fault injection: damage [len] bytes (default 1) at [off] in place —
    [`Flip] inverts every byte, [`Zero] models a torn/zeroed page image.
    Charges no simulated time: the fault is the medium's, not the
    workload's. Strings already returned by {!pread} keep their
    old bytes. *)

(** {1 Crash simulation and fault hooks}

    Crash-mode parity with [Pmem]: appended bytes become durable only at
    {!fsync}/{!seal}; {!crash} cuts every file back to its durable
    watermark, optionally keeping a torn tail. The hooks are lightweight
    injection points armed by [Fault.Plan] (lib/fault); they default to
    [None] and may raise to model a crash at the site. *)

val enable_crash_mode : t -> unit
(** Start tracking durability; everything already on the device is treated
    as durable. *)

val crash : ?keep:(file_id:int -> durable:int -> size:int -> int) -> t -> unit
(** Revert the device to its durable contents (crash mode only): deleted
    files are resurrected, then every file is truncated to its durable
    watermark plus [keep ~file_id ~durable ~size] torn-tail bytes (clamped
    to the unsynced range; default 0 — a partial 4 KiB page image survives
    only as the prefix [keep] grants). Files are visited in id order so a
    seeded [keep] is reproducible. *)

type io_outcome =
  | Io_ok
  | Io_fail
  | Io_slow of float
      (** fail-slow device: the request succeeds but costs this multiple of
          its normal service time (gray fault, no data loss) *)

val set_write_hook : t -> (file_id:int -> len:int -> io_outcome) option -> unit
(** Consulted once per write request, with its total length, after cost
    accounting; [Io_fail] raises {!Io_error} with nothing written. *)

val set_read_hook : t -> (file_id:int -> len:int -> io_outcome) option -> unit
(** Consulted once per read request, with the length of its whole span. *)

val set_fsync_hook : t -> (file_id:int -> io_outcome) option -> unit
(** [Io_fail] swallows the barrier: the call returns but the durable
    watermark does not advance (sync loss). [Io_slow] is a stuck-slow
    fsync: the barrier takes effect, at a multiple of its normal cost. *)

(** {1 Asynchronous access} *)

val attach_des : t -> Sim.Des.t -> unit
(** Required before {!submit}; completions fire through the DES. *)

val submit : t -> op -> bytes:int -> (float -> unit) -> unit
(** Enqueue a request; the callback receives the request's total latency
    (queueing + service) when it completes. *)

val in_flight : t -> int
(** Requests submitted but not yet completed (queued + in service). *)

val service_time : t -> op -> int -> float
(** Raw service time of a request absent queueing (exposed for tests). *)

val register_metrics : Obs.Registry.t -> t -> unit
(** Register this device's counters, gauges and request-latency histogram
    under [ssd.] dotted names. *)

val reset_stats : t -> unit
