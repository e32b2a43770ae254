(** CRC-32 (IEEE polynomial) checksums for on-device block integrity. *)

val update : int -> string -> int -> int -> int
(** [update crc s pos len] extends [crc] over [s.[pos .. pos+len-1]].
    Raises [Invalid_argument] when [pos] and [len] do not name a valid
    substring of [s]. *)

val string : string -> int
(** Checksum of a whole string. *)
