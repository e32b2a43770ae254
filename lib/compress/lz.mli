(** Snappy-like LZ77 byte compressor.

    Stands in for Google Snappy in the Array-snappy baselines of Fig. 6:
    greedy matching, literal/copy stream, no entropy coding. Roundtrip
    ([decompress (compress s) = s]) is property-tested. *)

val compress : string -> string
val decompress : ?pos:int -> ?len:int -> string -> string
(** Decompress the [len] bytes at [pos] (default the whole string), so a
    compressed unit is decoded where it lies. Raises [Failure] on malformed
    input. *)

val compress_cost_ns_per_byte : float
(** Simulated CPU cost charged by table builders that use the codec. *)

val decompress_cost_ns_per_byte : float

val compress_call_ns : float
(** Fixed per-call overhead; penalises compressing tiny units. *)

val decompress_call_ns : float
