(** Sequential writer of one finished table image onto a PM region.

    A table is encoded into one exact-size DRAM image; the builder writes
    slices of it in 4 KiB chunks, amortising the per-access PM write cost,
    and flushes (clwb) each completed line once, so the table is durable
    once {!finish} drains. The caller stages the image in the pieces it was
    laid out in, and the pieces decide where each write request ends. *)

type t

val chaos_skip_flush : bool ref
(** Planted-bug kill switch for sanitizer tests: drop the clwb of spilled
    chunks, proving pmsan reports the seal. Default [false]; never set
    outside tests. *)

val chaos_skip_drain : bool ref
(** Companion switch: drop the closing fence of {!finish}. *)

val create : Pmem.t -> Pmem.region -> string -> t
(** A writer of the image onto the region; the image must be exactly the
    region's length and must not change until {!finish}. Raises
    [Invalid_argument] when the lengths differ. *)

val stage : t -> int -> unit
(** Stage the image's next [len] bytes as one piece: when the staged bytes
    reach a chunk, they are written as one request. *)

val stage_bytewise : t -> int -> unit
(** Stage the image's next [len] bytes one at a time: a request is written
    each time the staged bytes reach exactly a chunk. *)

val finish : t -> int
(** Write what is still staged, drain the persistence fence, declare the
    ["pmtable.seal"] commit point to the sanitizer, and return the total
    byte length written. *)

(** Fixed-width big-endian encoders into a sized image (each returns the
    position after the field; [Invalid_argument] when out of range), and
    the matching decoders. *)

val put_u32 : Bytes.t -> int -> int -> int
val put_u16 : Bytes.t -> int -> int -> int
val read_u32 : string -> int -> int
val read_u16 : string -> int -> int
