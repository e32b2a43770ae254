(** Unified handle over the level-0 table structures a configuration can
    select, so the engine and compaction machinery are agnostic to which
    one it is. *)

type kind =
  | Pm_compressed  (** the paper's three-layer prefix-compressed table *)
  | Array_plain  (** the array-based table of the ablation variants *)

type t

val kind : t -> kind

val build : Pmem.t -> kind:kind -> Util.Kv.entry array -> t
(** Build from entries sorted by {!Util.Kv.compare_entry}, in groups of
    the paper's 8 keys (see {!Pm_table.build}). *)

val of_sorted_list : Pmem.t -> kind:kind -> Util.Kv.entry list -> t

val count : t -> int
val byte_size : t -> int
val payload_bytes : t -> int
val min_key : t -> string
val max_key : t -> string
val free : t -> unit

val get : t -> string -> Util.Kv.entry option
(** A {!Pm_compressed} table's Bloom filter screens absent keys before any
    PM access. *)

val iter : t -> (Util.Kv.entry -> unit) -> unit
val to_list : t -> Util.Kv.entry list
val range : t -> start:string -> stop:string -> (Util.Kv.entry -> unit) -> unit

val overlaps : t -> min:string -> max:string -> bool
(** Does the table's key range intersect [\[min, max\]]? *)

val region_id : t -> int
(** The PM region id backing the table (manifest-stable). *)

val open_existing : Pmem.t -> Pmem.region -> t
(** Reopen a persisted {!Pm_compressed} table from its region (recovery).
    Raises [Failure] when the region does not hold a PM table and
    [Integrity.Corrupted] when it holds one whose footer or meta layer
    rotted. *)

val verify : t -> (string * int) list
(** Checksum-walk the table (see {!Pm_table.verify}); [[]] for the
    non-durable array table, which carries no checksums. *)

val salvage_entries : t -> Util.Kv.entry list * (string * string) option
(** Surviving entries plus the conservative lost key range, if any (see
    {!Pm_table.salvage_entries}). *)
