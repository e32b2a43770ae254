(** Per-shard group commit: coalesce concurrent writers' WAL syncs into
    one PM ring write and one fence.

    An engine's put only stages its record; the durability point, the
    one call of {!Core.Engine.sync_wal}, happens here. In
    [Sync] mode (no scheduler) every commit syncs immediately, a batch of
    one, so an ack still implies durability. In [Batch] mode the first
    committing coroutine leads: it holds the batch open for
    [group_commit_window]/[group_commit_max], syncs once for every
    member's staged record, and signals the members' latch — a crash
    before that sync loses the whole batch, never a subset. *)

type mode = Sync | Batch

type t

val plant_race : bool ref
(** Kill switch for the sanitizer test: skip the schedsan mutex around the
    batch state while keeping the shared-var annotations, so schedsan must
    report the leader/follower write-write race. *)

val create : name:string -> window_ns:float -> max_batch:int -> t
(** [name] ("shard3") labels the sanitizer variable and latch. *)

val set_mode : t -> mode -> san:Sanitize.Schedsan.t option -> unit
(** Switch modes; [Batch] requires the callers to be coroutines under one
    scheduler (whose sanitizer is passed as [san]). *)

val commit : t -> Core.Engine.t -> unit
(** The calling writer has just staged its WAL record into [engine]'s
    group buffer; return once that record is durable (leading, joining, or
    syncing inline per mode). *)

val batches : t -> int
val synced_entries : t -> int
val size_hist : t -> Util.Histogram.t
