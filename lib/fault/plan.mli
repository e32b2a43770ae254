(** Deterministic fault plan: arms the device hook points ([Pmem],
    [Ssd], [Core.Wal]) with a seeded schedule of faults and crashes.

    Sites are named ["pm.flush"], ["pm.drain"], ["ssd.write"],
    ["ssd.read"], ["ssd.fsync"], ["wal.sync"]. Every time execution
    reaches an armed site the plan counts the hit; a crash schedule
    ([crash_at]) raises {!Crashed} at exactly the Nth global hit, and
    rules inject non-fatal faults at specific hits of a specific site.
    All randomness is seeded, so the same seed replays the same site
    sequence — the foundation of the crash sweep ([Shard.Sweep]). *)

type action =
  | Crash  (** raise {!Crashed} at the site *)
  | Pm_partial_flush of float
      (** only this fraction of the flushed range persists *)
  | Pm_drop_flush  (** the clwb is silently lost *)
  | Ssd_io_error  (** fail the request with [Ssd.Io_error] (transient) *)
  | Wal_sync_loss
      (** the WAL group is written but its write-back never reaches the
          medium: the ring's next flush is dropped on the device *)
  | Slow of float
      (** fail-slow (gray) fault: the operation succeeds but costs this
          multiple of its normal latency. Maps to [Pmem.Flush_slow] at
          ["pm.flush"] and [Ssd.Io_slow] at ["ssd.write"]/["ssd.read"]/
          ["ssd.fsync"]; foreign to ["pm.drain"] and ["wal.sync"]. *)

type trigger =
  | Every
  | Nth of int  (** the Nth hit of that site, 1-based *)
  | Duty of { period : int; on : int }
      (** intermittent storm: matches the first [on] hits out of every
          [period] hits of the site (per-site counter, 1-based) *)

exception Crashed of { site : string; hit : int }
(** Raised from inside a device hook to cut the run at the site; [hit] is
    the global site counter at the crash. *)

type stats = {
  mutable injected : int;
  mutable crashes : int;
  mutable recoveries : int;
}
(** Shared across plans (a sweep makes one plan per crash point) and
    exported through the metrics registry. *)

val make_stats : unit -> stats

type t

val create : ?stats:stats -> ?crash_at:int -> ?counting:bool -> int -> t
(** [create seed] builds an idle plan. [crash_at n] raises {!Crashed} at
    the [n]th global site hit; [counting] makes every site a no-op counter
    (used to measure a run's site total before sweeping). *)

val seed : t -> int
val rng : t -> Util.Xoshiro.t
val stats : t -> stats

val global_hits : t -> int
(** Total site hits so far, across all sites. *)

val sites : t -> (string * int) list
(** Per-site hit counts, sorted by site name. *)

val add_rule :
  t -> site:string -> trigger:trigger -> ?scope:(int -> bool) -> action -> unit
(** First matching rule wins; an action foreign to the site (e.g.
    [Wal_sync_loss] at ["ssd.read"]) counts as injected but acts as ok.
    [scope] restricts the rule to device objects whose id satisfies the
    predicate — PM region ids at ["pm.flush"] and ["wal.sync"] (the
    log's ring), SSD file ids at the ssd sites — so a gray fault can be
    confined to one shard's structures. A scoped rule never matches
    ["pm.drain"] (no id). *)

val arm : t -> pm:Pmem.t -> ssd:Ssd.t -> unit
(** Install the plan's closures on the device hook points. WALs are armed
    separately with [arm_wal]. *)

val disarm : pm:Pmem.t -> ssd:Ssd.t -> unit
(** Uninstall every device hook the plan armed (safe on a fresh system
    too). *)

val arm_wal : t -> Core.Wal.t -> unit
(** Arm one WAL (from [Engine.wal]; one per shard) on the plan's
    ["wal.sync"] site; every log reports to the shared site, so a crash
    schedule covers all of them in global hit order. Hooks survive WAL
    rotation but not recovery (which builds a fresh handle). A
    [Wal_sync_loss] answer at ["wal.sync"] drops the ring's next
    ["pm.flush"] (a one-shot rule scoped to the ring's region): the log
    still issues its clwb, the medium loses it. *)

val disarm_wal : Core.Wal.t -> unit
(** Uninstall one WAL's hook. *)

(** {1 Seeded corruption injection}

    Bit rot as a first-class fault: flip or zero a seeded range of live
    persisted bytes, latency-free. The corruption sweep's invariant is
    that the damage is detected, quarantined, or repaired — never silently
    served. *)

type corruption_target =
  | Pm_table_bytes  (** a seeded live PM region that is not a WAL ring *)
  | Sstable_bytes  (** a seeded SSD file that is not a manifest *)
  | Wal_bytes  (** the durable (fenced) bytes of a live WAL ring *)
  | Manifest_bytes  (** the current superblock slot's manifest snapshot *)

type corruption_mode = Bit_flip | Zero_range of int

type corruption = {
  target : corruption_target;
  corruption_mode : corruption_mode;
  victim : string;  (** human-readable victim description *)
}

val inject_corruption :
  t ->
  pm:Pmem.t ->
  ssd:Ssd.t ->
  wals:Core.Wal.t list ->
  target:corruption_target ->
  mode:corruption_mode ->
  unit ->
  corruption option
(** Corrupt one seeded victim of [target]'s kind (the plan's RNG picks the
    victim and offset, so a seed reproduces the same damage). Counts in
    [stats.injected]. [None] when no eligible victim exists — e.g. no live
    PM regions yet, or no WAL handle supplied. Pass every live log in
    [wals] (a sharded system has one per shard): [Pm_table_bytes]
    must not mistake a WAL ring for a table, [Sstable_bytes] must not
    mistake any shard's superblock chain for a data file, and
    [Wal_bytes]/[Manifest_bytes] pick a seeded victim among all rings /
    all current manifest slots. *)

val register_metrics : Obs.Registry.t -> stats -> unit
(** [fault.injected], [fault.crashes], [fault.recoveries]. *)
