(** Pipelined compaction: staged read / merge / build / write with bounded
    SPSC queues and multi-core overlap (ROADMAP item 1, after Pome).

    The engine timeline is single-threaded over a virtual clock, so the
    pipeline is realised in two planes:

    - {b Data plane} (in the engine, serial): the compaction's byte-exact
      work runs unchanged — same reads, same merge, same manifest commit
      point, same fault-injection sites — but bracketed into stages with
      {!with_stage}, which tags crash sites with the live stage and charges
      the [Pipe_*] attribution phases. Each staged section records a cost
      token (medium, bytes, measured clock delta) into a {!recording}.

    - {b Time plane} ({!simulate}): the recording is replayed as four real
      coroutines — one per stage — on a fresh {!Coroutine.Scheduler} with
      its own clock, DES and shadow SSD, connected by bounded SPSC queues
      with backpressure. The replay's makespan is what the staged pipeline
      would have taken; the engine rewinds its clock by
      [serial_ns - makespan].

    A recording also replays as one serial task ({!replay}) under any of
    the §V scheduling policies. {!synthesize} generates the synthetic
    compactions the §V experiments replay that way: this module is the
    repository's one model of the paper's §V.

    Queue handoffs are checked concurrency: every enqueue signals a
    per-item latch the dequeue awaits, which is exactly the
    release→acquire happens-before edge schedsan draws, and each item is
    also annotated as a schedsan shared variable — drop the edge (the
    {!Drop_hb} plant) and the race checker fires.

    I/O admission extends the paper's [q_flush] policy with per-stage
    quotas: the read stage's prefetch is admitted only while in-flight
    requests stay at or under [q_max - flush_reserve], so flush/write
    admission always finds headroom and never starves behind a deep
    prefetch pipeline. *)

type stage = Read | Merge | Build | Write

val all_stages : stage list
val stage_name : stage -> string

val with_stage : stage -> (unit -> 'a) -> 'a
(** Run a data-plane stage section: publishes the stage in
    {!current_stage} (so fault hooks can tag crash sites with the stage
    they interrupted) and frames the section in the stage's [Pipe_*]
    attribution phase. Nestable and exception-safe. *)

val current_stage : unit -> stage option
(** The data-plane stage executing right now, if any — read from device
    fault hooks by the crash sweep's stage-coverage accounting. *)

(** {1 Cost-token recording (data plane)} *)

type medium = Pm | Ssd

type recording
(** One ordered list of read, merge, build and write cost tokens. *)

val create_recording : unit -> recording
val record_read : recording -> medium -> bytes:int -> cost_ns:float -> unit
val record_merge : recording -> cost_ns:float -> unit
val record_build : recording -> cost_ns:float -> unit
val record_write : recording -> medium -> bytes:int -> cost_ns:float -> unit

val serial_ns : recording -> float
(** Sum of every recorded cost: what the staged sections measurably took
    on the serial engine timeline. *)

val has_overlap_work : recording -> bool
(** True when the recording holds both read and write tokens — the
    degenerate cases (empty merge output, empty level) have nothing to
    overlap and skip the replay. *)

(** {1 Bounded SPSC queues}

    Usable only from coroutines running under a {!Coroutine.Scheduler}
    (push/pop suspend via latches). Single producer, single consumer. *)

type 'a queue

val queue_create :
  ?drop_hb:bool ->
  san:Sanitize.Schedsan.t option ->
  name:string ->
  capacity:int ->
  unit ->
  'a queue
(** [drop_hb] is the planted-bug switch: the consumer polls with
    {!Coroutine.Co.yield} instead of parking and skips the per-item
    handoff acquire, so schedsan must report the enqueue→dequeue pairs as
    races (tests prove the checker has teeth). *)

val queue_push : 'a queue -> 'a -> unit
(** Blocks (parks on a latch) while the queue is at capacity; charges the
    wait to [Pipe_queue_wait]. *)

val queue_pop : 'a queue -> 'a option
(** Blocks while the queue is empty and not closed; [None] once it is
    closed and drained. Acquires the item's handoff edge. *)

val queue_close : 'a queue -> unit
val queue_depth : 'a queue -> int
val queue_max_depth : 'a queue -> int
val queue_wait_ns : 'a queue -> float
(** Producer + consumer wait so far. *)

(** {1 The staged replay (time plane)} *)

type sim_config = {
  cores : int;  (** simulated cores of the stage scheduler *)
  queue_capacity : int;  (** bound of each inter-stage queue *)
  block_bytes : int;  (** granularity blocks stream through the stages *)
  q_max : int;  (** I/O admission cap (the paper's q) *)
  flush_reserve : int;
      (** slots of [q_max] the read stage may never occupy — reserved
          flush/write headroom (the per-stage quota extension of q_flush) *)
  ssd_params : Ssd.params;  (** shadow-device parameters for stage I/O *)
}

val default_sim_config : sim_config
(** The engine's stage scheduler: 4 cores, queues of 4, 256 KiB blocks,
    q_max 8 with 2 slots reserved for flush/write, default SSD. *)

type plant =
  | No_plant
  | Drop_hb  (** drop the enqueue→dequeue happens-before edge (see above) *)
  | Serial_stages
      (** run the stages strictly one-after-another (each stage starts
          only when its predecessor drained) — the planted regression the
          pipeline check script must catch as speedup <= 1 *)

type stage_stat = {
  s_stage : stage;
  busy_ns : float;  (** processing time (CPU work + the stage's own I/O) *)
  wait_ns : float;  (** queue backpressure + admission waits *)
  items : int;  (** blocks processed *)
}

type result = {
  makespan : float;
  sim_serial_ns : float;  (** the recording's {!serial_ns}, for speedup *)
  stages : stage_stat list;  (** in [Read; Merge; Build; Write] order *)
  queue_max_depths : (string * int) list;
  queue_wait_total_ns : float;
  sched : Coroutine.Scheduler.report;
  races : int;  (** schedsan findings inside the replay (0 when healthy) *)
  lost_wakeups : int;
}

val simulate : ?plant:plant -> sim_config -> recording -> result
(** Replay the recording through the staged pipeline. Deterministic;
    never touches the caller's clock or devices (fresh shadow clock, DES,
    SSD and scheduler per call). The caller's {!Obs.Attr} op/frame
    context is detached for the duration, so replay bookkeeping
    ([Pipe_queue_wait], [Sched_wait]) lands in the background books. *)

(** {1 The synthetic §V compaction and its serial replay}

    The paper's Fig. 4/5 compaction process as a {!recording}, replayed as
    one coroutine per task: the input of Fig. 4, Fig. 7b, Fig. 9,
    Table III and the pipeline bench. *)

type synthetic = {
  input_bytes : int;
  value_bytes : int;
  entry_overhead : int;  (** key + metadata bytes per entry *)
  read_block : int;  (** S1 granularity *)
  write_buffer : int;  (** S3 granularity *)
  pm_input_fraction : float;  (** share of input blocks living on PM level-0 *)
  dedup_ratio : float;  (** mean fraction of entries dropped by the merge *)
  dedup_spread : float;  (** per-block variation around the mean *)
  cpu_per_entry_ns : float;  (** merge cost per entry: compares, heap ops *)
  cpu_per_byte_ns : float;  (** build cost per byte: copies, checksums *)
  pm_read_ns_per_byte : float;
  seed : int;
}

val default_synthetic : synthetic

val synthesize : synthetic -> recording
(** Per input block a read (PM or SSD), a merge and a build token; a write
    token per full write buffer, and the remainder at the end. SSD tokens
    cost the default device's service time. *)

val replay : ?on_stage:(stage -> float -> float -> unit) -> recording -> unit -> unit
(** The recording as one task for {!Coroutine.Scheduler.spawn}. A merge
    token and the build token after it are one CPU burst ([Merge]); every
    write is a {!Coroutine.Co.offload_write}. [on_stage] sees each step's
    stage, start and finish — what the Fig. 4 timelines render. *)

val subtasks :
  policy:Coroutine.Scheduler.policy -> cores:int -> q_max:int -> tasks:int -> synthetic ->
  recording list
(** §V-C's task manager: [tasks] tasks of [input_bytes] each become
    k = max(q_max / cores, 1) subtasks per core under the coroutine
    policies, one per task under threads; unit i draws seed [seed + 31 i]. *)

val replay_all :
  ?inspect:(Coroutine.Scheduler.t -> unit) -> ?ssd_params:Ssd.params ->
  ?on_stage:(int -> stage -> float -> float -> unit) -> policy:Coroutine.Scheduler.policy ->
  cores:int -> recording list -> Coroutine.Scheduler.report
(** Replay recording i on worker i of a fresh clock, DES, SSD (default
    parameters) and scheduler; [on_stage i] traces recording i.
    [inspect] sees the scheduler after the run, e.g. to read its
    sanitizer findings. *)

(** {1 Cumulative accounting and metrics} *)

type totals = {
  mutable runs : int;
  mutable serial_total_ns : float;
  mutable pipelined_total_ns : float;
  mutable rebate_total_ns : float;
  mutable blocks_total : int;
  mutable queue_wait_total : float;
  mutable races_total : int;
  mutable lost_wakeups_total : int;
  stage_busy_total : float array;  (** indexed in {!all_stages} order *)
  mutable last : result option;
}

val create_totals : unit -> totals
val note_result : totals -> result -> rebate_ns:float -> unit

val sum_totals : totals list -> totals
(** Fresh totals adding up every count and busy time; [last] is the last
    list element's that has one. *)

val register_metrics : Obs.Registry.t -> (unit -> totals) -> unit
(** Register [pipeline.*] readouts: run/rebate counters, per-stage busy
    counters, per-stage-queue depth gauges (last replay's high-water
    marks) and the replay sanitizer counters. Each readout pulls fresh
    totals from the thunk. *)
