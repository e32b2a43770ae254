(** The paper's three-layer compressed PM table (§IV-A, Fig. 2b):
    meta layer ({tableID} tags stored once), fixed-width binary-searchable
    prefix layer (one record per group of up to 8/16 keys and at most one
    SSD block), and entry layer (prefix-stripped entries). A lookup costs
    one PM access per binary-search probe plus one sequential group read —
    versus two accesses per probe in the array table. *)

type t

val build : ?group_size:int -> Pmem.t -> Util.Kv.entry array -> t
(** Build from entries sorted by {!Util.Kv.compare_entry}. A group closes
    at [group_size] entries (default the paper's 8) or before its entries
    would pass {!max_group_bytes}, and never splits one key's versions: a
    group past either bound holds a single key's version run. Prefix-layer
    slots are 24 bytes wide. A Bloom filter of 10 bits per key is
    persisted in the meta layer. Raises [Invalid_argument] on
    unsorted or empty input or a key with over 65535 versions, [Pmem.Out_of_space] when the device is
    full. *)

val open_existing : Pmem.t -> Pmem.region -> t
(** Reopen a table from its persisted region after a restart: the footer
    locates the layers, the meta layer restores the tag index, statistics
    and the Bloom filter; no table data moves. Raises [Failure] on a bad magic (torn or foreign
    region) and [Integrity.Corrupted] on a footer or meta-layer checksum
    failure. *)

val count : t -> int
val byte_size : t -> int
val payload_bytes : t -> int
(** Uncompressed logical size; [byte_size t < payload_bytes t] measures the
    compression win. *)

val max_group_bytes : int
(** The encoded-entry budget of one group: the SSD block,
    {!Sstable.default_block_bytes}, so a PM point read decodes no more
    than an SSD one. *)

val groups : t -> (int * int) list
(** Entry count and entry-layer bytes of every group, in order (reads each
    prefix record once). *)

val min_key : t -> string
val max_key : t -> string
val free : t -> unit

val get : t -> string -> Util.Kv.entry option
(** Newest version of the key in this table. The Bloom filter screens
    absent keys in DRAM before any PM access. *)

val bloom_probes : int ref
val bloom_negatives : int ref
(** Module-wide telemetry: gets that consulted a PM bloom, and those
    answered "absent" without touching PM. *)

val group_reads : int ref
(** Module-wide telemetry: group extents read and decoded. A point
    {!get} reads at most one per tag run that can hold the key. *)

val iter : t -> (Util.Kv.entry -> unit) -> unit
val to_list : t -> Util.Kv.entry list
val range : t -> start:string -> stop:string -> (Util.Kv.entry -> unit) -> unit

val region_id : t -> int
(** The PM region id, manifest-stable across restarts. *)

(** {1 Integrity}

    Every layer is checksummed: inline CRC32 per prefix record (verified on
    every probe), per-group entry-extent CRC32s cached in the handle
    (verified on every group read at no extra PM access), and meta/footer
    CRC32s (verified at {!open_existing} and by {!verify}). A failed
    comparison on the read path raises [Integrity.Corrupted]. *)

val verify : t -> (string * int) list
(** Full checksum walk, re-reading footer and meta from the medium: returns
    [(layer, group index)] per failure, [[]] when clean (and always [[]]
    while {!verify_checksums} is off). *)

val salvage_entries : t -> Util.Kv.entry list * (string * string) option
(** Decode every group that still checksums; returns the surviving entries
    in order and, when groups were lost, a conservative [lo, hi] bound on
    the keys lost with them. *)

val verify_checksums : bool ref
(** Kill switch for every CRC comparison in this module — exists so a fault
    sweep can plant the "forgot to verify checksums" bug and prove it gets
    caught. Leave it [true]. *)
