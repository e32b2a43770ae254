(** Uncompressed array-based PM table: entry data followed by fixed-width
    offset slots (the structure MatrixKV uses; the "Array-based" baseline of
    Fig. 6). Each binary-search probe costs two PM accesses — offset slot
    then entry — the double access the three-layer PM table avoids. *)

type t

val build : Pmem.t -> Util.Kv.entry array -> t
(** Build from entries sorted by {!Util.Kv.compare_entry}. Charges encode
    CPU plus buffered PM writes. Raises [Invalid_argument] on empty input
    and [Pmem.Out_of_space] when the device is full. *)

val count : t -> int
val byte_size : t -> int
(** Bytes occupied on the device (data + offset slots). *)

val payload_bytes : t -> int
(** Uncompressed logical size (same as the data area here). *)

val min_key : t -> string
val max_key : t -> string
val free : t -> unit

val get : t -> string -> Util.Kv.entry option
(** Newest version of the key in this table. *)

val iter : t -> (Util.Kv.entry -> unit) -> unit
(** All entries in (key asc, seq desc) order at sequential-read cost. *)

val to_list : t -> Util.Kv.entry list

val range : t -> start:string -> stop:string -> (Util.Kv.entry -> unit) -> unit
(** Entries with key in [\[start, stop)]. *)

val region_id : t -> int
(** The PM region id, manifest-stable across restarts. *)
