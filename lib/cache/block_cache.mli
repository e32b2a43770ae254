(** Shared DRAM block cache: sharded, strictly capacity-bounded LRU.

    One instance is shared by every SSTable of an engine. Entries are keyed
    by [(file_id, block)] and charged payload size plus a fixed bookkeeping
    overhead; eviction happens {e before} admission, so [resident_bytes]
    never exceeds [capacity_bytes], not even transiently. Hits charge DRAM
    read latency to the simulation clock. *)

type t

val create :
  ?shards:int ->
  ?clock:Sim.Clock.t ->
  capacity_bytes:int ->
  unit ->
  t
(** [shards] defaults to 8; each shard owns [capacity_bytes / shards] and
    runs its own LRU list. Raises [Invalid_argument] if
    [capacity_bytes <= 0]. *)

val find : t -> file_id:int -> block:int -> string option
(** LRU-promotes on hit and charges [100 ns + len * 0.05 ns] of DRAM read
    to the clock (if any); counts a miss otherwise. *)

val insert : t -> file_id:int -> block:int -> string -> unit
(** Admits the block, evicting from the shard's LRU tail first so the
    capacity bound holds at every instant. A block larger than a whole
    shard is rejected (counted, never admitted). Re-inserting an existing
    key replaces it. *)

val mem : t -> file_id:int -> block:int -> bool
(** Presence test without LRU promotion, clock charge or counter update. *)

val invalidate_file : t -> file_id:int -> unit
(** Drop every resident block of [file_id] — used when a table is deleted,
    quarantined or salvage-rewritten so stale bytes can never be served. *)

val capacity_bytes : t -> int
val resident_bytes : t -> int
val resident_blocks : t -> int
val file_resident_bytes : t -> file_id:int -> int
(** O(resident blocks); for tests and forensics, not the hot path. *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
val rejections : t -> int
val invalidations : t -> int
val hit_ratio : t -> float

val register_metrics : Obs.Registry.t -> t -> unit
(** Registers [cache.hits], [cache.misses], [cache.admissions],
    [cache.evictions], [cache.rejections], [cache.invalidations],
    [cache.resident_bytes], [cache.resident_blocks],
    [cache.capacity_bytes] and [cache.hit_ratio]. *)
