(** The router target of {!Fault.Crash_sweep}: the same sweep, run
    through the {!Router}.

    The devices — hence the fault plan — are shared, and every shard's WAL
    arms the [wal.sync] site, so one counting run measures the seeded
    workload's sites across all shards. Each leg crashes both devices,
    recovers the full router (per-shard named manifest roots plus the
    union orphan GC), and checks the router's merged read paths and every
    shard's manifest against the golden model. The committers run in
    [Sync] mode, so an acked put is durable and the golden mirror's
    single-pending-op story holds unchanged. *)

val config :
  ?seed:int ->
  ?ops:int ->
  ?keyspace:int ->
  ?value_len:int ->
  ?rules:(string * Fault.Plan.trigger * Fault.Plan.action) list ->
  ?double_crash:bool ->
  ?boundaries:string list ->
  Core.Config.t ->
  Fault.Crash_sweep.config
(** A sweep config over routers built from the given config, with
    {!Fault.Crash_sweep.config}'s defaults. Raises [Invalid_argument]
    unless the config is durable. When [boundaries] is omitted a
    multi-shard config gets an even split of the workload's [user%06d]
    key population. *)

val workload_boundaries : keyspace:int -> shards:int -> string list

val of_router : Router.t -> Fault.Crash_sweep.store
(** The sweep's view of a live router: writes through {!Router.sink},
    [settle] flushes every shard and runs its internal compaction, and
    [check] reads the merged paths plus every shard's manifest. *)
