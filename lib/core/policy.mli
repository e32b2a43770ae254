(** The level-0 policy: every choice of when and where level-0 data moves.

    PM-Blade's Algorithm 1 with the §IV-C cost models (Eq. 1-3 and the
    knapsack warm set), the conventional and matrix strategies, admission's
    relief step, the out-of-PM rule and the per-shard budget all live
    here; {!Lsm} keeps the mechanisms they drive. Each entry point matches
    on [Config.l0_strategy] at most once, and no other library code
    matches on it. *)

val step : Lsm.t -> Lsm.partition -> unit
(** Algorithm 1 after a flush into the partition. Cost-based: a trivial
    move of tables that overlap nothing, then Eq. 1 (read amplification)
    and Eq. 2 (write amplification, gated on [tau_w]) internal
    compactions, then Eq. 3 major-compacts every partition outside the
    warm set; each decision is a [cost_model.eq*] trace instant.
    Conventional: major-compact the partition at [max_tables], or every
    partition at [max_bytes]. Matrix: column-compact the fullest
    partition until level-0 is under [trigger_bytes]. *)

type relief = Internal | Major  (** which compaction a relief step ran *)

val relieve : Lsm.t -> relief option
(** One bounded unit of compaction relief on the partition with the most
    level-0 runs ({!partition_pressure}; the first such partition on a
    tie), then a manifest install, quarantining any corrupt input on the
    way. Under the cost-based strategy with a PM level-0, a partition with
    unsorted tables and no SSD level-0 tables is internal-compacted into
    one sorted run when Eq. 2's saving is positive
    ({!Compaction.Cost_model.delta_cost_wf}, without the [tau_w] gate)
    and Eq. 3 is quiet ([l0_bytes < tau_m]); otherwise, or if PM runs out
    during the merge, the partition is major-compacted. [None] when
    level-0 is empty. *)

val make_room : Lsm.t -> unit
(** The out-of-PM rule: major-compact the coldest partition holding
    level-0 data (fewest reads, the first on a tie) and install the
    manifest. A no-op when level-0 is empty. *)

val pressure : Lsm.t -> int
(** Level-0 runs a point read may probe: each unsorted PM table, the
    key-disjoint sorted run as one, each SSD level-0 table. The one debt
    measure — admission, doctor, gauges and the CLI all read it. *)

val partition_pressure : Lsm.partition -> int
(** The partition's share of {!pressure}. *)

val chaos_table_debt : bool ref
(** Planted-bug kill switch: when set, {!pressure} counts every sorted-run
    table again. Exists so the PM-share gate can prove it catches the old
    table-count debt. Leave it [false]. *)

val shard_budget : Config.t -> shards:int -> Config.t
(** One of [shards] range shards' even slice of the level-0 budget: the
    PM capacity and the strategy's byte thresholds ([tau_m]/[tau_t],
    [max_bytes], [trigger_bytes]) divided by [shards], at least 1. *)
