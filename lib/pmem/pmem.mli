(** Persistent-memory device simulator.

    Models Intel Optane as an in-memory arena whose every access charges
    calibrated latency to the virtual clock: fixed per-access costs (reads a
    small factor slower than DRAM, writes ~3x slower than reads) plus
    per-byte bandwidth terms, matching the paper's Table I measurements.
    Writes become durable only after {!flush} + {!drain}; {!crash} discards
    unfenced bytes for recovery tests. *)

type params = {
  capacity : int;
  read_access_ns : float;
  write_access_ns : float;
  read_byte_ns : float;
  write_byte_ns : float;
  flush_ns : float;
  drain_ns : float;
}

val default_params : params
(** 128 MiB capacity (the paper's 128 GB scaled x1000 down), Optane-like
    latency/bandwidth constants. *)

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable flushes : int;  (** cache lines written back *)
  mutable drains : int;  (** persistence fences *)
  mutable read_time : float;
  mutable write_time : float;
  mutable flush_time : float;
  mutable allocs : int;
  mutable frees : int;
}

type region
(** A contiguous allocation on the device (one PM table lives in one
    region). *)

type t

exception Out_of_space of { requested : int; available : int }

val create : ?params:params -> Sim.Clock.t -> t
val capacity : t -> int
val used : t -> int
val available : t -> int
val stats : t -> stats
val clock : t -> Sim.Clock.t

val alloc : t -> int -> region
(** Raises {!Out_of_space} when the device cannot fit the request. *)

val free : t -> region -> unit
val region_len : region -> int

val region_id : region -> int
(** Stable identifier, usable in a manifest to relocate the region after a
    restart. *)

val find_region : t -> int -> region option
val live_regions : t -> region list
(** Live regions in allocation order. *)

val read_in_place : t -> region -> off:int -> len:int -> string
(** One read access over [off, off+len), charged to the clock, the stats and
    the sanitizer like any PM read, answered with a view of the region's own
    bytes instead of a copy: the requested bytes sit at their region offsets
    in the returned string. The view is valid until the region is next
    written, freed, crashed or damaged; the caller must drop it before then,
    and copy out any bytes it keeps. Raises [Invalid_argument] on an
    out-of-bounds span or a freed region. *)

val write : t -> region -> off:int -> ?src_off:int -> ?len:int -> string -> unit
(** One write access: [len] bytes of the source from [src_off] (default the
    whole string) land at [off]. Raises [Invalid_argument] on an
    out-of-bounds span on either side. *)

val flush : t -> region -> off:int -> len:int -> unit
(** Simulated clwb over the range: charges per-cache-line cost and queues
    the bytes for write-back. They become durable at the next {!drain}. *)

val drain : t -> unit
(** Simulated sfence: every range flushed since the previous fence becomes
    durable. *)

val enable_crash_mode : t -> unit
(** Track durable images so {!crash} can revert unflushed writes. Must be
    called before the regions under test are allocated. In crash mode,
    {!free}d regions stay resurrectable until the next {!crash} (a PM free
    is allocator metadata; the bytes remain on the medium). *)

val crash : t -> unit
(** Revert every region to its last fenced image (never-fenced bytes read
    as zeroes) and resurrect regions
    freed since crash mode was enabled (crash mode only). Recovery is
    expected to garbage-collect resurrected regions no manifest names. *)

(** {1 Fault-injection hooks}

    Lightweight hook points armed by [Fault.Plan] (lib/fault); both default
    to [None] and cost one option check when unset. Hooks may raise to
    model a crash at the site. *)

type flush_outcome =
  | Flush_ok  (** the whole range persists *)
  | Flush_partial of int  (** only the first [n] bytes persist *)
  | Flush_dropped  (** the flush is silently lost (missing clwb) *)
  | Flush_slow of float
      (** fail-slow DIMM: the range persists but the clwb costs this
          multiple of its normal latency (gray fault, no data loss) *)

val set_flush_hook :
  t -> (region_id:int -> off:int -> len:int -> flush_outcome) option -> unit
(** Consulted on every {!flush} after cost accounting; the outcome decides
    how much of the range reaches the durable image. *)

val set_drain_hook : t -> (unit -> unit) option -> unit
(** Consulted at every {!drain} (persistence fence) before the cost is
    charged; raising models a crash between flush and fence. *)

val durable_upto : region -> int
(** High-water mark of the region's fenced bytes: every byte below it was
    written back and fenced at least once. *)

(** {1 Persistence-ordering sanitizer}

    When [Sanitize.Control] is enabled at device creation, every
    alloc/free/write/flush/drain/read is mirrored into a
    [Sanitize.Pmsan.t] shadow checker, and {!commit_point} declares the
    engine's durability barriers to it. Near-zero cost when detached. *)

val commit_point : t -> string -> unit
(** Declare a durability barrier (e.g. ["wal.sync"], ["pmtable.seal"],
    ["manifest.install"]): the sanitizer reports any PM line that is not
    yet fenced here. No-op without an attached sanitizer. *)

val sanitizer : t -> Sanitize.Pmsan.t option
(** The checker attached at creation; [None] while [Sanitize.Control] was
    disabled then. *)

val unsafe_peek : region -> off:int -> len:int -> string
(** Test-only read that charges no simulated time. *)

val corrupt_region :
  ?len:int -> ?mode:[ `Flip | `Zero ] -> t -> region -> off:int -> unit
(** Fault injection: damage [len] bytes (default 1) at [off] in place —
    [`Flip] inverts every byte, [`Zero] models a zeroed page. Latency-free
    (the fault is the medium's, not the workload's) and applied to the
    durable shadow as well, so the damage survives {!crash}. *)

val register_metrics : Obs.Registry.t -> t -> unit
(** Register this device's counters and gauges under [pmem.] dotted
    names, e.g. [pmem.bytes_written]. *)

val reset_stats : t -> unit
