(** Chaos soak: a long seeded run interleaving gray-fault episodes,
    crash-restart cycles (including crashes {e during} recovery), and
    bit-rot injection over the sharded front door, continuously checked
    against the golden model.

    Each round is one episode: calm traffic, a fail-slow device range
    (PM flush, SSD read, or fsync confined to one sick shard's files), an
    intermittent I/O-error storm, a crash checkpoint, or seeded
    corruption. Operations flow through the health-aware router API
    ({!Router.put_checked} / {!Router.get_checked}), so the soak
    exercises breakers, deadline shedding, and degraded serving while
    holding the availability invariants: no silent wrong answer, honest
    typed refusals, ambiguous failed writes resolved by read-back, and
    full golden/manifest/sanitizer checks at every crash point. The first
    rounds follow a fixed curriculum (tracker warm-up, then one round per
    episode kind) so even short CI soaks cover every fault class. *)

type episode_kind =
  | Calm
  | Slow_pm  (** fail-slow PM flush on the sick shard's regions *)
  | Slow_read  (** fail-slow SSD reads on the sick shard's files *)
  | Error_storm  (** duty-cycled [Ssd.Io_error] on the sick shard's files *)
  | Stuck_fsync
      (** stuck durability barriers on the sick shard: each WAL ring
          write-back line hangs for 2.5 ms and its SSD fsyncs crawl *)
  | Crash  (** crash both devices, recover, full checkpoint *)
  | Crash_in_recovery  (** crash, then crash again mid-recovery *)
  | Corrupt  (** seeded bit rot; later checks excuse recorded damage *)

val episode_name : episode_kind -> string

type config = {
  seed : int;
  rounds : int;
  ops_per_round : int;
  keyspace : int;
  router_config : Core.Config.t;
  boundaries : string list;
}

val config :
  ?seed:int ->
  ?rounds:int ->
  ?ops_per_round:int ->
  ?keyspace:int ->
  ?boundaries:string list ->
  Core.Config.t ->
  config
(** Defaults: seed 42, 16 rounds of 600 ops over 400 keys, 48-byte
    values, 25x fail-slow inflation. Raises [Invalid_argument] unless the
    router config is durable (crash episodes need a WAL). Deadline
    budgets come from the config's [deadline_read_ns] /
    [deadline_write_ns]. *)

type report = {
  soak_rounds : int;
  soak_ops : int;
  episode_counts : (string * int) list;
  ledger : Health.Ledger.t;
      (** soak-side availability ledger (budgets measured on the virtual
          clock around each call) *)
  healthy_total : int;  (** ops routed to shards with no injected fault *)
  healthy_served : int;
      (** of those, definitive in-budget answers (acked or served) —
          refusals do not count: a healthy shard must answer *)
  sick_total : int;
  sick_within : int;
      (** sick-shard ops that produced any typed answer within budget *)
  trips : int;
  rejections : int;
  injected : int;
  crashes : int;
  double_crashes : int;
  recovery_ns : float list;  (** time-to-recover per crash, virtual ns *)
  violations : Fault.Checker.violation list;
}

val run : ?progress:(round:int -> episode:string -> unit) -> config -> report
(** Deterministic in the seed: same config, same episode schedule, same
    outcomes. A recovery failure is reported as a ["recovery"] violation
    and ends the soak early rather than raising. *)

val healthy_ratio : report -> float
(** [healthy_served / healthy_total]; the ISSUE gate demands >= 0.99. *)

val sick_within_ratio : report -> float
val deadline_ok_ratio : report -> float
val mean_recovery_ns : report -> float

val clean : report -> bool
(** Zero invariant violations. *)

val pp_report : report Fmt.t
