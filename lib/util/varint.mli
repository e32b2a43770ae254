(** LEB128-style variable-length integer and length-prefixed string codecs,
    shared by the PM-table and SSTable on-device encodings. *)

val write : Buffer.t -> int -> unit
(** Append a non-negative integer. Raises [Invalid_argument] on negatives. *)

val put : Bytes.t -> int -> int -> int
(** [put b pos v] encodes [v] at [pos] in a sized image and returns the
    position after it: {!write} without a [Buffer]. Raises
    [Invalid_argument] on negatives or when the image is too short. *)

val read : string -> int -> int * int
(** [read s pos] decodes at [pos], returning [(value, next_pos)].
    Raises [Failure] on truncated or overlong input. *)

val read_at : string -> int ref -> int
(** [read_at s cur] decodes at [!cur] and advances [cur] past the varint:
    [read] without the result pair, for scans that must not allocate.
    Raises as [read] does. *)

val size : int -> int
(** Encoded byte length of a non-negative integer. *)

val write_string : Buffer.t -> string -> unit
(** Append a length-prefixed string. *)

val put_string : Bytes.t -> int -> string -> int
(** {!write_string} at [pos] in a sized image; returns the next position. *)

val read_string : string -> int -> string * int
(** Decode a length-prefixed string, returning [(value, next_pos)]. *)
