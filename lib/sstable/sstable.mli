(** SSTable on the simulated SSD, RocksDB-flavoured: ~4 KiB data blocks in
    key order, with the index and Bloom filter pinned in the DRAM handle.
    Data block reads hit the device, or the shared DRAM block cache when
    one is attached (the "SSTable in cache" configuration of Table I). *)

type t
type builder

val default_block_bytes : int

(** {1 Building} *)

val create_builder : ?block_bytes:int -> Ssd.t -> builder
val add : builder -> Util.Kv.entry -> unit
(** Entries must arrive in {!Util.Kv.compare_entry} order. *)

val finish : builder -> t
(** [write_image (finish_image b)]. Raises [Invalid_argument] when no
    entries were added. *)

type image
(** A finished table laid out in DRAM at its exact file size, not yet on
    the device. *)

val finish_image : builder -> image
(** Encode the table (data blocks, index, Bloom filter, meta block) into
    one image. Touches no device and charges no time. Raises
    [Invalid_argument] when no entries were added. *)

val write_image : image -> t
(** Create the table's file, write the image as one request (the file
    adopts its bytes; the image must not be used again) and seal it. *)

val build : ?block_bytes:int -> Ssd.t -> Util.Kv.entry array -> t
val of_sorted_list : ?block_bytes:int -> Ssd.t -> Util.Kv.entry list -> t

(** {1 Reading} *)

val open_existing : Ssd.t -> Ssd.file -> t
(** Reopen a sealed table from its file after a restart: the persisted meta
    block restores the index, Bloom filter, and statistics. Raises
    [Failure] on a bad magic and {!Corrupted_block} (with [block = -1])
    when the meta block fails its checksum. *)

val file_id : t -> int
(** The underlying device file id (manifest-stable across restarts). *)

val count : t -> int
val byte_size : t -> int
val payload_bytes : t -> int
val min_key : t -> string
val max_key : t -> string
val block_count : t -> int

val delete : t -> unit
(** Deletes the underlying file and drops its blocks from the shared
    cache. *)

val attach_shared_cache : t -> Cache.Block_cache.t -> unit
(** Route this table's block reads through the engine-wide capacity-bounded
    cache: misses are admitted, hits are charged DRAM latency. *)

val invalidate_cache : t -> unit
(** Drop this table's blocks from the shared cache. Must run whenever the file's bytes stop being
    authoritative (quarantine, salvage rewrite); {!delete} calls it. *)

val get : ?use_bloom:bool -> t -> string -> Util.Kv.entry option
(** Newest version of the key. The Bloom filter screens absent keys unless
    [~use_bloom:false]. *)

type cursor
(** A compaction input: every entry in order, decoded one at a time. *)

val cursor : t -> cursor
(** Open the table as a compaction input, paying all of its cost now: one
    read request over the data region, a CRC check of every block (raises
    {!Corrupted_block} with the failing block's index), then the decode
    CPU of every entry, one charge each. Entries are then decoded in place
    from the device's bytes at no further charge, so the cursor must be
    drained before the table's file is deleted or damaged. The block cache
    is neither consulted nor filled. *)

val next : cursor -> Util.Kv.entry option
(** The next entry, [None] once drained. *)

val to_list : t -> Util.Kv.entry list
(** A drained {!cursor}. *)

val range : t -> start:string -> stop:string -> (Util.Kv.entry -> unit) -> unit
val overlaps : t -> min:string -> max:string -> bool

exception Corrupted_block of { file_id : int; block : int }
(** Raised by reads whose data block fails its persisted CRC32; [block = -1]
    means the meta block (index/filter/stats) failed instead. *)

(** {1 Integrity} *)

val verify : t -> int list
(** Full checksum walk from the medium (scrub): re-verifies the persisted
    meta block (the pinned DRAM index can outlive rot) and every data block
    around the cache. Returns failing block indices ([-1] for meta), [[]]
    when clean (and always [[]] while {!verify_checksums} is off). *)

val salvage_entries : t -> Util.Kv.entry list * (string * string) option
(** Entries of every data block that still checksums, in order, plus a
    conservative [lo, hi] bound on the keys lost with the failing blocks
    ([None] when nothing was lost). *)

val verify_checksums : bool ref
(** Kill switch for every CRC comparison in this module — exists so a fault
    sweep can plant the "forgot to verify checksums" bug and prove it gets
    caught. Leave it [true]. *)
