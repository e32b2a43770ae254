(** Per-operation latency attribution over the simulated clock.

    The engine wraps each user-facing operation in {!with_op}; device and
    subsystem layers report time with point charges ({!charge}) or frames
    ({!with_phase}). At op end the shortfall between the op's clock delta
    and the accounted phase time is booked as [Other], so a breakdown
    always sums to the measured latency.

    Absorbing frames ([Flush], [Compaction], [Stall_wait]) charge their
    full clock delta to the waiting op and divert all nested activity to
    the global background books — this keeps op attribution exact in the
    presence of the scheduler's rewind-based overlap rebates.

    Process-global, disabled by default; the disabled path is a single
    bool check. Not reentrant across ops (ops do not nest — an inner
    [with_op] is a no-op wrapper). *)

type phase =
  | Memtable_probe  (** memtable point/skiplist probe *)
  | Pm_bloom  (** PM-table bloom filter probe *)
  | Cache_hit  (** shared block cache hit (DRAM copy) *)
  | Cache_miss  (** block cache miss bookkeeping; the refill is [Ssd_read] *)
  | Pm_read  (** persistent-memory media read *)
  | Ssd_read  (** SSD media read *)
  | Wal_stage  (** WAL record framing/staging into the group buffer *)
  | Wal_sync  (** WAL group sync to the log device *)
  | Flush  (** memtable/PM flush work *)
  | Compaction  (** compaction work *)
  | Stall_wait  (** foreground write stalled on backpressure relief *)
  | Sched_wait  (** time queued behind the coroutine scheduler *)
  | Router_dispatch  (** shard lookup + dispatch bookkeeping in the router *)
  | Group_commit_wait  (** follower waiting for its group-commit leader's sync *)
  | Admission_stall  (** write held at admission until shard debt drains *)
  | Pipe_read  (** pipelined compaction: block-read stage (source prefetch) *)
  | Pipe_merge  (** pipelined compaction: k-way merge stage *)
  | Pipe_build  (** pipelined compaction: output-table build stage *)
  | Pipe_write  (** pipelined compaction: PM/SSD write stage *)
  | Pipe_queue_wait  (** pipelined compaction: blocked on a stage queue *)
  | Other  (** unattributed remainder, computed at op end *)

type op_kind = Read | Write | Scan

val phase_name : phase -> string
val kind_name : op_kind -> string

val enable : clock:Sim.Clock.t -> unit
(** Start attribution; timestamps come from [clock]. Resets all books. *)

val disable : unit -> unit
val is_enabled : unit -> bool

val reset : unit -> unit
(** Clear all accumulated books, keeping attribution enabled. *)

val charge : phase -> float -> unit
(** [charge phase dt] books [dt] simulated ns (clamped at 0) to [phase] in
    the current domain — the live op, or the background books when no op
    is active or an absorbing frame is open. Safe to call when disabled. *)

val with_phase : phase -> (unit -> 'a) -> 'a
(** Frame [f ()] and book its self time (clock delta minus time claimed by
    nested charges/frames) to [phase]. Absorbing phases book the full
    delta to the waiting op instead and divert nested work to the
    background books. Exception-safe; identity when disabled. *)

val with_op : op_kind -> (unit -> 'a) -> 'a
(** Attribute one user-facing operation. On exit, records per-phase
    contributions into the cumulative books and histograms, books the
    unaccounted remainder as [Other], and (when tracing is on) emits a
    Chrome-trace complete span [op.<kind>] with nonzero phases as args. *)

(** {2 Coroutine context switching} *)

type task_ctx
(** A suspended task's attribution context: its live op and open frames.
    The coroutine scheduler detaches the context when a task suspends and
    reinstalls it on resume, so interleaved clients keep separate books
    (an op's absorbing wait frame spans its suspension; other tasks' work
    never leaks into it). *)

val empty_task_ctx : task_ctx
(** The context of a task that has not run yet. *)

val capture_task : unit -> task_ctx
(** Detach and return the current op/frame context, leaving no live op
    (subsequent charges book to the background domain). *)

val restore_task : task_ctx -> unit
(** Reinstall a context captured by {!capture_task}. *)

type snapshot = {
  reads : int;
  writes : int;
  scans : int;
  read_ns : float;
  write_ns : float;
  scan_ns : float;
  op_phases : (phase * float) list;  (** cumulative op-attributed ns *)
  bg_phases : (phase * float) list;  (** cumulative background ns *)
  phase_counts : (phase * int) list;  (** charge/frame event counts *)
}

val snapshot : unit -> snapshot
(** All-zero when disabled. *)

val op_ns : unit -> float
(** Total measured ns across all attributed ops. *)

val accounted_ns : unit -> float
(** Total ns booked to op phases (including [Other]); equals {!op_ns} up
    to clamping of over-attributed ops. *)

val register_metrics : Registry.t -> unit
(** Register [attr.ops.*], [attr.op_ns.*], [attr.phase_ns.*],
    [attr.bg_ns.*] counters and [attr.phase.*] histograms. *)
