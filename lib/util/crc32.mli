(** CRC-32 (IEEE polynomial) checksums for on-device block integrity,
    computed by zlib's [crc32_z]. A crc is a 32-bit value in [0, 2^32). *)

val update : int -> string -> int -> int -> int
(** [update crc s pos len] extends [crc] over [s.[pos .. pos+len-1]].
    Raises [Invalid_argument] when [pos] and [len] do not name a valid
    substring of [s], or when [crc] lies outside [0, 2^32). *)

val string : string -> int
(** Checksum of a whole string. *)
