(** Bloom filter with double hashing, one per SSTable, sized by
    bits-per-key as in LevelDB/RocksDB. No false negatives. *)

type t

val create : bits_per_key:int -> int -> t
(** [create ~bits_per_key n] sizes the filter for [n] expected keys. *)

val add : t -> string -> unit
val mem : t -> string -> bool
val size_bytes : t -> int
val of_keys : bits_per_key:int -> string list -> t

val serialize : t -> string
(** Persisted form, for SSTable meta blocks. *)

val serialized_size : t -> int
(** Byte length of {!serialize}'s result. *)

val serialize_into : t -> Bytes.t -> int -> int
(** {!serialize} at a position of a sized image; returns the position
    after it. *)

val deserialize : string -> t
(** Raises [Failure] on truncated input. *)
