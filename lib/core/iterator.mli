(** Forward iterator over the live keyspace of an engine: merged across the
    memtable, level-0, and the SSD levels, tombstone-resolved, served in
    windows of {!Engine.scan}, each charged, accounted and degraded like
    any bounded scan. No snapshot is taken (the usual unpinned-LSM-cursor
    contract). *)

type t

val seek : ?window:int -> Engine.t -> string -> t
(** Position at the first live key >= the probe. [window] is the fetch
    granularity (default 64 keys). *)

val valid : t -> bool
val key : t -> string
(** Raises [Invalid_argument] when exhausted. *)

val value : t -> string
val next : t -> unit

val fold :
  ?window:int -> Engine.t -> start:string -> init:'a -> ('a -> string -> string -> 'a) -> 'a
(** Fold over every live pair from [start] to the end of the keyspace. *)

val take : t -> int -> (string * string) list
(** Consume up to [n] pairs from the cursor. *)
