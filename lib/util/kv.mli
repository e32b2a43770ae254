(** The versioned key-value record flowing through every layer of the tree.

    A [(key, seq)] pair identifies one version; within a key, higher [seq]
    shadows lower. Deletes are tombstones dropped only at the bottom level. *)

type kind = Put | Delete

type entry = { key : string; seq : int; kind : kind; value : string }

val entry : ?kind:kind -> key:string -> seq:int -> string -> entry
val tombstone : key:string -> seq:int -> entry

val compare_entry : entry -> entry -> int
(** Key ascending, then seq {e descending} — newest version of a key first.
    This is the invariant every merge iterator relies on. *)

val encoded_size : entry -> int

val encode : Buffer.t -> entry -> unit

val encode_into : Bytes.t -> int -> entry -> int
(** {!encode} at a position of a sized image ({!encoded_size} bytes);
    returns the position after the entry. *)

val decode : string -> int -> entry * int

val pp : entry Fmt.t
