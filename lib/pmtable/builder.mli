(** Buffered sequential writer onto a PM region.

    Appends through a DRAM staging buffer spilled in 4 KiB chunks, amortising the
    per-access PM write cost and flushing (clwb) each chunk so the table is
    durable once {!finish} drains. *)

type t

val chaos_skip_flush : bool ref
(** Planted-bug kill switch for sanitizer tests: drop the clwb of spilled
    chunks, proving pmsan reports the seal. Default [false]; never set
    outside tests. *)

val chaos_skip_drain : bool ref
(** Companion switch: drop the closing fence of {!finish}. *)

val create : Pmem.t -> Pmem.region -> t

val add_string : t -> string -> unit
val add_char : t -> char -> unit
val add_u32 : t -> int -> unit
val add_u16 : t -> int -> unit

val finish : t -> int
(** Spill the staging buffer, drain the persistence fence, declare the
    ["pmtable.seal"] commit point to the sanitizer, and return the total
    byte length written. *)

(** Fixed-width decoders matching [add_u32]/[add_u16]. *)

val read_u32 : string -> int -> int
val read_u16 : string -> int -> int
