(** DRAM memtable: skiplist ordered by (key asc, seq desc).

    Newest version of a key first, which is the order every merge and point
    lookup relies on. DRAM access costs (100 ns) are charged to the virtual clock per
    touched node so memtable reads participate in simulated latency. *)

type t

val create : ?seed:int -> Sim.Clock.t -> t
val count : t -> int
val byte_size : t -> int
(** Sum of encoded entry sizes; the rotation trigger compares this against
    the configured memtable limit (64 MB in the paper, scaled here). *)

val is_empty : t -> bool

val insert : t -> Util.Kv.entry -> unit

val find : t -> string -> Util.Kv.entry option
(** Newest version of the key (may be a tombstone). *)

val get : t -> string -> string option
(** Newest visible value; [None] for absent or deleted keys. *)

val to_list : t -> Util.Kv.entry list
(** All entries in (key asc, seq desc) order. *)

val iter : t -> (Util.Kv.entry -> unit) -> unit

val range : t -> start:string -> stop:string -> Util.Kv.entry list
(** Entries with key in [\[start, stop)]. *)

val from : t -> start:string -> limit:int -> Util.Kv.entry list
(** Up to [limit] entries with key >= [start] (windowed iteration). *)
