(* The PM-Blade storage engine (§III), configuration-driven so that every
   variant of the evaluation — PMBlade, PMBlade-PM, PMBlade-SSD, the
   PMB-P/PI/PIC ablation ladder, RocksDB-like and MatrixKV-like — runs
   through the same code paths.

   Data flow: writes land in the DRAM memtable; a full memtable is split by
   key range across partitions and flushed (minor compaction) to each
   partition's level-0 — PM tables on the PM device, or SSTables on the SSD
   for the SSD-level-0 variants. Within a partition, level-0 holds a stack
   of *unsorted* tables (mutually overlapping, newest first) plus one
   *sorted run* (key-disjoint tables). Internal compaction merges the stack
   into the run (§IV-B); the cost models of §IV-C decide when, and which
   partitions a major compaction pushes to the SSD levels (L1..Ln,
   levelled, ratio 10).

   Reads go memtable -> unsorted L0 (newest first) -> sorted run -> SSD L0
   (variants) -> L1..Ln, returning the first version found; every device
   touch charges the virtual clock, so an operation's latency is the clock
   delta across the call. *)

(* Fence pointers: per-partition arrays of table boundaries, rebuilt lazily
   so a [get] binary-searches to its candidate tables instead of walking
   every structure with [overlaps].

   Invalidation is structural, not imperative: the set stores the exact
   list values it was built from, and OCaml lists are immutable, so every
   structural change (flush, compaction, split, quarantine, salvage)
   necessarily assigns a new list and the physical-equality check in
   [fences_of] rejects the stale set. No mutation site needs to remember
   to invalidate — the whole bug class is off the table. *)
type fences = {
  f_src_sorted : Pmtable.Table.t list;     (* == p.sorted_run while valid *)
  f_src_ssd_l0 : Sstable.t list;           (* == p.ssd_l0 while valid *)
  f_src_levels : Sstable.t list array;     (* .(j) == p.levels.(j) while valid *)
  (* sorted_run and each level hold key-disjoint tables: ascending by min
     key, binary-searched to at most one candidate per probe *)
  f_sorted : Pmtable.Table.t array;
  f_sorted_min : string array;
  f_levels : Sstable.t array array;
  f_levels_min : string array array;
  (* unsorted-stack SSTables (SSD-L0 variants) mutually overlap: kept
     newest-first, pruned by a min/max scan without touching the tables *)
  f_l0 : Sstable.t array;
  f_l0_min : string array;
  f_l0_max : string array;
}

type partition = {
  mutable idx : int;
  mutable lo : string;
  mutable hi : string;  (* key range [lo, hi); splits shrink it *)
  mutable unsorted : Pmtable.Table.t list;       (* newest first *)
  mutable sorted_run : Pmtable.Table.t list;     (* key-disjoint, ascending *)
  mutable ssd_l0 : Sstable.t list;               (* newest first (SSD-L0 variants) *)
  mutable levels : Sstable.t list array;         (* levels.(j) = L(j+1), ascending *)
  mutable fences : fences option;                (* lazily built, self-invalidating *)
  (* matrix-container watermarks, one per row (physical assq): the row's
     keys below its watermark have been column-compacted into L1 already.
     Rows flushed after a column compaction are absent (watermark ""), so
     fresh writes are never skipped. *)
  mutable matrix_wms : (Pmtable.Table.t * string) list;
  (* cost-model statistics (reset at each compaction of this partition) *)
  mutable reads : int;
  mutable writes : int;
  mutable updates : int;
  mutable window_start : float;
}

type t = {
  config : Config.t;
  clock : Sim.Clock.t;
  pm : Pmem.t;
  ssd : Ssd.t;
  (* engine-wide capacity-bounded DRAM block cache shared by all SSTables
     (config.block_cache_mb; None when 0) *)
  block_cache : Cache.Block_cache.t option;
  mutable memtable : Memtable.t;
  mutable next_seq : int;
  mutable partitions : partition array;
  metrics : Metrics.t;
  mutable memtable_seed : int;
  (* seeded jitter source for retry backoff; deterministic per engine seed
     and independent of the workload/memtable streams *)
  retry_rng : Util.Xoshiro.t;
  (* true while executing a foreground operation (put/delete): compactions
     triggered inside it charge only config.background_share of their
     duration to the operation's timeline *)
  mutable in_foreground : bool;
  (* durability (config.durable): WAL ahead of the memtable, manifest
     persisted on structural changes *)
  mutable wal : Wal.t option;
  (* damage records of structures pulled from the read path (or salvaged
     with losses): persisted with the manifest so recovery neither reopens
     nor garbage-collects them, and so callers can ask whether a missing
     key may have been lost rather than never written *)
  mutable quarantined : Manifest.quarantine list;
  (* staged compaction pipeline (config.pipeline_compaction): the live
     cost-token recording while a staged compaction runs, and the
     cumulative replay totals behind the pipeline.* metrics *)
  mutable pipe_recording : Compaction.Pipeline.recording option;
  pipe_totals : Compaction.Pipeline.totals;
}

(* A read that crossed a quarantine: [fallback] is the best surviving
   answer (an older version, a deeper level, or nothing), which may be
   stale if the newest version lived in the corrupt structure. *)
type read_error = {
  key : string;
  fallback : string option;
  quarantined : Manifest.quarantined_source list;
}

type scan_error = {
  partial : (string * string) list;
  scan_quarantined : Manifest.quarantined_source list;
}

exception Degraded_read of read_error
exception Degraded_scan of scan_error

let max_key_sentinel = "\xff\xff\xff\xff\xff\xff\xff\xff"

(* SSD level shape: each level [level_ratio] times its parent's target;
   [bottom_level] is the deepest level index (1-based), where tombstones
   drop. *)
let level_ratio = 10
let bottom_level = 3

(* --- Construction ---------------------------------------------------- *)

let wal_capacity config = Wal.ring_bytes ~memtable_bytes:config.Config.memtable_bytes

(* The engine starts with a single partition covering the whole keyspace
   and splits partitions at their data median as they grow (see
   maybe_split), up to [config.partition_count]. Explicit [boundaries]
   pre-create the partitioning instead. *)
let create ?(boundaries = []) ?(clock = Sim.Clock.create ()) ?pm ?ssd ?cache config =
  (* Shards pass shared [pm]/[ssd]/[cache] devices; the clock is then the
     devices' clock so every shard charges time to the same timeline. *)
  let clock = match pm with Some p -> Pmem.clock p | None -> clock in
  let boundaries = List.sort_uniq String.compare boundaries in
  let lows = "" :: boundaries in
  let highs = boundaries @ [ max_key_sentinel ] in
  let partitions =
    Array.of_list
      (List.mapi
         (fun idx (lo, hi) ->
           {
             idx;
             lo;
             hi;
             unsorted = [];
             sorted_run = [];
             ssd_l0 = [];
             levels = Array.make bottom_level [];
             fences = None;
             matrix_wms = [];
             reads = 0;
             writes = 0;
             updates = 0;
             window_start = Sim.Clock.now clock;
           })
         (List.combine lows highs))
  in
  let pm =
    match pm with
    | Some p -> p
    | None ->
        let p = Pmem.create ~params:config.Config.pm_params clock in
        if not config.Config.sanitize then Pmem.set_sanitizer p None;
        p
  in
  let ssd =
    match ssd with Some s -> s | None -> Ssd.create ~params:config.Config.ssd_params clock
  in
  {
    config;
    clock;
    pm;
    ssd;
    block_cache =
      (match cache with
      | Some _ as c -> c
      | None ->
          if config.Config.block_cache_mb > 0 then
            Some
              (Cache.Block_cache.create ~clock
                 ~capacity_bytes:(config.Config.block_cache_mb * 1024 * 1024) ())
          else None);
    memtable = Memtable.create ~seed:config.Config.seed clock;
    next_seq = 1;
    partitions;
    metrics = Metrics.create ();
    memtable_seed = config.Config.seed;
    retry_rng = Util.Xoshiro.create (config.Config.seed lxor 0x7e77);
    in_foreground = false;
    wal =
      (if config.Config.durable then Some (Wal.create ~capacity:(wal_capacity config) pm)
       else None);
    quarantined = [];
    pipe_recording = None;
    pipe_totals = Compaction.Pipeline.create_totals ();
  }

let config t = t.config
let clock t = t.clock
let pm t = t.pm
let ssd t = t.ssd
let metrics t = t.metrics
let wal t = t.wal
let block_cache t = t.block_cache

(* Every SSTable the engine creates reads through the shared cache (when
   one is configured); tables built elsewhere (tests, tools) stay
   cache-less unless attached explicitly. *)
let new_sst t entries =
  let sst = Sstable.of_sorted_list t.ssd entries in
  (match t.block_cache with
  | Some c -> Sstable.attach_shared_cache sst c
  | None -> ());
  sst

let pm_bloom_bits t = t.config.Config.pm_bloom_bits_per_key

(* Transient SSD errors (injected by lib/fault, or a flaky device model)
   are retried with bounded exponential backoff before they surface; each
   retry charges the backoff to the virtual clock. Only wrap operations
   that are idempotent at the device level: reads. *)
let ssd_retry_limit = 3
let ssd_retry_backoff_ns = 100_000.0 (* 100 us, doubling per attempt *)

let rec with_ssd_retry ?(attempt = 0) t f =
  try f ()
  with Ssd.Io_error _ as e ->
    if attempt >= ssd_retry_limit then raise e
    else begin
      t.metrics.Metrics.ssd_retries <- t.metrics.Metrics.ssd_retries + 1;
      let backoff = ssd_retry_backoff_ns *. (2.0 ** float_of_int attempt) in
      (* Seeded jitter decorrelates retry storms across engines that share
         a sick device: scale each sleep uniformly within [1-j/2, 1+j/2]. *)
      let backoff =
        let j = t.config.Config.ssd_retry_jitter in
        if j <= 0.0 then backoff
        else backoff *. (1.0 -. (j /. 2.0) +. Util.Xoshiro.float t.retry_rng j)
      in
      if Obs.Trace.is_enabled () then
        Obs.Trace.instant "engine.ssd_retry" ~attrs:(fun () ->
            [ ("attempt", Obs.Trace.Int (attempt + 1)); ("backoff_ns", Obs.Trace.Float backoff) ]);
      Sim.Clock.advance t.clock backoff;
      with_ssd_retry ~attempt:(attempt + 1) t f
    end

let partition_of t key =
  let n = Array.length t.partitions in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if String.compare t.partitions.(mid).lo key <= 0 then lo := mid else hi := mid - 1
  done;
  t.partitions.(!lo)

let partitions t = t.partitions

(* Level-0 bytes of one partition (PM variants). *)
let partition_l0_bytes p =
  List.fold_left (fun acc tbl -> acc + Pmtable.Table.byte_size tbl) 0 p.unsorted
  + List.fold_left (fun acc tbl -> acc + Pmtable.Table.byte_size tbl) 0 p.sorted_run

let l0_bytes t =
  Array.fold_left (fun acc p -> acc + partition_l0_bytes p) 0 t.partitions

(* --- Write amplification --------------------------------------------- *)

let user_bytes t = t.metrics.Metrics.user_bytes_written
let pm_bytes_written t = (Pmem.stats t.pm).Pmem.bytes_written
let ssd_bytes_written t = (Ssd.stats t.ssd).Ssd.bytes_written
let pm_bytes_read t = (Pmem.stats t.pm).Pmem.bytes_read
let ssd_bytes_read t = (Ssd.stats t.ssd).Ssd.bytes_read

let write_amplification t =
  float_of_int (pm_bytes_written t + ssd_bytes_written t)
  /. float_of_int (max 1 t.metrics.Metrics.user_bytes_written)

let read_amplification t =
  float_of_int (pm_bytes_read t + ssd_bytes_read t)
  /. float_of_int (max 1 t.metrics.Metrics.user_bytes_read)

(* Compaction debt: the level-0 backlog (both media) still awaiting
   internal or major compaction. *)
let compaction_debt_bytes t =
  l0_bytes t
  + Array.fold_left
      (fun acc p ->
        acc + List.fold_left (fun a sst -> a + Sstable.byte_size sst) 0 p.ssd_l0)
      0 t.partitions

(* Planted-bug kill switch for the PM-share gate: count every sorted-run
   table as debt, which pushes a resident store to the SSD. Leave it
   [false]. *)
let chaos_table_debt = ref false

(* Compaction debt in runs: the level-0 structures a point read may probe
   — each unsorted PM table, the key-disjoint sorted run as one run (a
   probe binary-searches it to one table), each SSD level-0 table. *)
let partition_runs p =
  let run =
    if !chaos_table_debt then List.length p.sorted_run
    else if p.sorted_run = [] then 0
    else 1
  in
  List.length p.unsorted + run + List.length p.ssd_l0

let compaction_debt_runs t =
  Array.fold_left (fun acc p -> acc + partition_runs p) 0 t.partitions

(* --- Level helpers ---------------------------------------------------- *)

let level_target t j = t.config.Config.level_base_bytes * int_of_float (float_of_int level_ratio ** float_of_int j)

let level_bytes p j =
  List.fold_left (fun acc sst -> acc + Sstable.byte_size sst) 0 p.levels.(j)

(* Is [level_idx] the deepest level holding data overlapping [lo, hi]?
   Tombstones can be dropped when compacting into such a level. *)
let is_bottom_for p ~into_level ~lo ~hi =
  let deeper_has_data = ref false in
  for j = into_level + 1 to Array.length p.levels - 1 do
    if List.exists (fun sst -> Sstable.overlaps sst ~min:lo ~max:hi) p.levels.(j) then
      deeper_has_data := true
  done;
  not !deeper_has_data

(* Replace the overlapping SSTables of level [j] with [fresh] (ascending),
   keeping the level sorted by min key. *)
let install_level p j ~removed ~fresh =
  let kept = List.filter (fun sst -> not (List.memq sst removed)) p.levels.(j) in
  let merged =
    List.sort (fun a b -> String.compare (Sstable.min_key a) (Sstable.min_key b)) (kept @ fresh)
  in
  p.levels.(j) <- merged;
  List.iter Sstable.delete removed

(* --- Staged compaction pipeline (§V extension; ROADMAP item 1) --------- *)

(* Compaction is staged read / merge / build / write. The data plane below
   stays serial and byte-exact — same merge, same crash sites, same
   manifest commit point — but each stage section runs under
   [Compaction.Pipeline.with_stage] (Pipe_* attribution, crash-site stage
   tagging) and records a cost token into the live recording. After the
   serial sections finish, [with_pipeline_overlap] replays the recording
   as four coroutines on simulated cores connected by bounded SPSC queues
   and rewinds the clock by the measured overlap (serial - makespan). *)

let pipeline_sim_config t =
  { Compaction.Pipeline.default_sim_config with ssd_params = t.config.Config.ssd_params }

let pipeline_stats t = t.pipe_totals

(* Run one compaction's staged sections under a fresh recording, then
   replay it and rebate the overlap. Reentrant (cascades nest inside the
   enclosing compaction's recording; a nested compaction gets its own). *)
let with_pipeline_overlap t f =
  if not t.config.Config.pipeline_compaction then f ()
  else begin
    let saved = t.pipe_recording in
    let r = Compaction.Pipeline.create_recording () in
    t.pipe_recording <- Some r;
    let finish () = t.pipe_recording <- saved in
    let result =
      try f ()
      with e ->
        finish ();
        raise e
    in
    finish ();
    if Compaction.Pipeline.has_overlap_work r then begin
      let res = Compaction.Pipeline.simulate (pipeline_sim_config t) r in
      let rebate =
        Float.max 0.0 (Compaction.Pipeline.serial_ns r -. res.Compaction.Pipeline.makespan)
      in
      if rebate > 0.0 then Sim.Clock.rewind t.clock rebate;
      Compaction.Pipeline.note_result t.pipe_totals res ~rebate_ns:rebate
    end;
    result
  end

(* Read-stage section: [f] materialises one input run; its clock delta
   becomes a read token on [medium]. *)
let staged_read t ~medium f =
  match t.pipe_recording with
  | None -> f ()
  | Some r ->
      Compaction.Pipeline.with_stage Compaction.Pipeline.Read @@ fun () ->
      let t0 = Sim.Clock.now t.clock in
      let entries = f () in
      let bytes =
        List.fold_left (fun acc e -> acc + Util.Kv.encoded_size e) 0 entries
      in
      Compaction.Pipeline.record_read r medium ~bytes
        ~cost_ns:(Sim.Clock.now t.clock -. t0);
      entries

(* Merge-stage section around a [Compaction.Merge.merge] call. *)
let staged_merge t f =
  match t.pipe_recording with
  | None -> f ()
  | Some r ->
      Compaction.Pipeline.with_stage Compaction.Pipeline.Merge @@ fun () ->
      let t0 = Sim.Clock.now t.clock in
      let merged, stats = f () in
      Compaction.Pipeline.record_merge r ~entries:(List.length merged)
        ~cost_ns:(Sim.Clock.now t.clock -. t0);
      (merged, stats)

(* Build+write section for one output SSTable: the SSD write time of the
   section is the write token, the remainder (serialisation CPU) the
   build token. Runs under the Write frame so the ssd.write crash sites
   it reaches are tagged with the stage that issues them. *)
let staged_new_sst t slice =
  match t.pipe_recording with
  | None -> new_sst t slice
  | Some r ->
      let wr0 = (Ssd.stats t.ssd).Ssd.write_time in
      let t0 = Sim.Clock.now t.clock in
      let sst =
        Compaction.Pipeline.with_stage Compaction.Pipeline.Write (fun () -> new_sst t slice)
      in
      let total = Sim.Clock.now t.clock -. t0 in
      let io = (Ssd.stats t.ssd).Ssd.write_time -. wr0 in
      Compaction.Pipeline.record_build r ~cost_ns:(Float.max 0.0 (total -. io));
      Compaction.Pipeline.record_write r Compaction.Pipeline.Ssd
        ~bytes:(Sstable.byte_size sst) ~cost_ns:(Float.min io total);
      sst

(* PM-table counterpart (internal compaction's output): build and write
   are one section on PM — recorded as a PM write token. *)
let staged_new_pmtable t slice =
  let build () =
    Pmtable.Table.of_sorted_list ~group_size:t.config.Config.group_size
      ~bloom_bits_per_key:(pm_bloom_bits t) t.pm ~kind:t.config.Config.table_kind slice
  in
  match t.pipe_recording with
  | None -> build ()
  | Some r ->
      let t0 = Sim.Clock.now t.clock in
      let tbl = Compaction.Pipeline.with_stage Compaction.Pipeline.Write build in
      Compaction.Pipeline.record_write r Compaction.Pipeline.Pm
        ~bytes:(Pmtable.Table.byte_size tbl)
        ~cost_ns:(Sim.Clock.now t.clock -. t0);
      tbl

(* --- Compaction: shared write-out ------------------------------------ *)

(* Write a merged run into level [j] of partition [p] as target-sized
   SSTables, removing the inputs it replaces. *)
let write_run_to_level t p ~into_level ~replaced entries =
  let split () =
    Compaction.Merge.split_run ~target_bytes:t.config.Config.sstable_target_bytes entries
  in
  let slices =
    match t.pipe_recording with
    | None -> split ()
    | Some r ->
        Compaction.Pipeline.with_stage Compaction.Pipeline.Build @@ fun () ->
        let t0 = Sim.Clock.now t.clock in
        let slices = split () in
        Compaction.Pipeline.record_build r ~cost_ns:(Sim.Clock.now t.clock -. t0);
        slices
  in
  let fresh =
    List.filter_map
      (fun slice ->
        match slice with
        | [] -> None
        | _ -> Some (staged_new_sst t slice))
      slices
  in
  install_level p into_level ~removed:replaced ~fresh

(* Cascade: while level j exceeds its target, push its oldest tables down.
   level_target t 0 is the (per-partition) L1 target. *)
let rec cascade t p j =
  if j < Array.length p.levels - 1 && level_bytes p j > level_target t j then begin
    (* Pick the first (lowest-key) table as the compaction seed, RocksDB
       round-robin style simplified. *)
    match p.levels.(j) with
    | [] -> ()
    | seed :: _ ->
        let lo = Sstable.min_key seed and hi = Sstable.max_key seed in
        let overlapping =
          List.filter (fun sst -> Sstable.overlaps sst ~min:lo ~max:hi) p.levels.(j + 1)
        in
        let drop_tombstones = is_bottom_for p ~into_level:(j + 1) ~lo ~hi in
        let read_sst sst =
          staged_read t ~medium:Compaction.Pipeline.Ssd (fun () -> Sstable.to_list sst)
        in
        let runs = read_sst seed :: List.map read_sst overlapping in
        let merged, _stats =
          staged_merge t (fun () -> Compaction.Merge.merge ~drop_tombstones ~clock:t.clock runs)
        in
        install_level p j ~removed:[ seed ] ~fresh:[];
        write_run_to_level t p ~into_level:(j + 1) ~replaced:overlapping merged;
        cascade t p (j + 1)
  end

(* --- Internal compaction (§IV-B) -------------------------------------- *)

let internal_compaction t p =
  if p.unsorted <> [] then
    Obs.Attr.with_phase Obs.Attr.Compaction @@ fun () ->
    Obs.Trace.with_span "internal_compaction"
      ~attrs:(fun () ->
        [
          ("partition", Obs.Trace.Int p.idx);
          ("unsorted_tables", Obs.Trace.Int (List.length p.unsorted));
          ("sorted_tables", Obs.Trace.Int (List.length p.sorted_run));
          ("l0_bytes", Obs.Trace.Int (partition_l0_bytes p));
        ])
      (fun () ->
    let t0 = Sim.Clock.now t.clock in
    with_pipeline_overlap t (fun () ->
        let read_pm tbl =
          staged_read t ~medium:Compaction.Pipeline.Pm (fun () -> Pmtable.Table.to_list tbl)
        in
        let runs = List.map read_pm p.unsorted @ List.map read_pm p.sorted_run in
        let merged, _stats =
          staged_merge t (fun () ->
              Compaction.Merge.merge ~drop_tombstones:false ~clock:t.clock runs)
        in
        let slices =
          Compaction.Merge.split_run ~target_bytes:t.config.Config.l0_run_table_bytes merged
        in
        (* Build the new run before freeing the old tables (they are the merge
           inputs); if PM runs out mid-build, release the partial output so the
           retry after relieve_pm_pressure starts clean. *)
        let fresh =
          let built = ref [] in
          (try
             List.iter
               (fun slice ->
                 if slice <> [] then built := staged_new_pmtable t slice :: !built)
               slices
           with e ->
             List.iter Pmtable.Table.free !built;
             raise e);
          List.rev !built
        in
        List.iter Pmtable.Table.free p.unsorted;
        List.iter Pmtable.Table.free p.sorted_run;
        p.unsorted <- [];
        p.sorted_run <- fresh);
    p.reads <- 0;
    p.writes <- 0;
    p.updates <- 0;
    p.window_start <- Sim.Clock.now t.clock;
    t.metrics.Metrics.internal_compactions <- t.metrics.Metrics.internal_compactions + 1;
    let duration = Sim.Clock.now t.clock -. t0 in
    t.metrics.Metrics.internal_compaction_time <-
      t.metrics.Metrics.internal_compaction_time +. duration;
    (* Foreground-triggered compaction runs on a background core. *)
    if t.in_foreground then
      Sim.Clock.rewind t.clock ((1.0 -. t.config.Config.background_share) *. duration))

(* --- Major compaction -------------------------------------------------- *)

(* Under the coroutine-based method (§V), major compaction's CPU work
   overlaps its I/O instead of serialising with it. The staged pipeline
   (config.pipeline_compaction, the default) measures that overlap by
   replaying the compaction's recorded stage costs on simulated cores —
   see [with_pipeline_overlap] above; with the pipeline off compaction
   runs serially. *)
let with_major_timing t f =
  Obs.Attr.with_phase Obs.Attr.Compaction @@ fun () ->
  let t0 = Sim.Clock.now t.clock in
  let result = with_pipeline_overlap t f in
  let duration = Sim.Clock.now t.clock -. t0 in
  t.metrics.Metrics.major_compactions <- t.metrics.Metrics.major_compactions + 1;
  t.metrics.Metrics.major_compaction_time <-
    t.metrics.Metrics.major_compaction_time +. duration;
  (* Foreground-triggered compaction runs on a background core. *)
  if t.in_foreground then
    Sim.Clock.rewind t.clock ((1.0 -. t.config.Config.background_share) *. duration);
  result

let matrix_wm_of p row = try List.assq row p.matrix_wms with Not_found -> ""

(* Push the whole level-0 of partition [p] into L1. Matrix rows may hold
   entries below their watermark whose newer versions already moved to the
   SSD levels; resurrecting them into L1 would shadow deeper, newer data,
   so they are filtered out. *)
let major_compact_partition t p =
  Obs.Trace.with_span "major_compaction"
    ~attrs:(fun () ->
      [
        ("partition", Obs.Trace.Int p.idx);
        ("l0_bytes", Obs.Trace.Int (partition_l0_bytes p));
        ("ssd_l0_tables", Obs.Trace.Int (List.length p.ssd_l0));
      ])
  @@ fun () ->
  with_major_timing t (fun () ->
      let live_row tbl =
        let wm = matrix_wm_of p tbl in
        let entries = Pmtable.Table.to_list tbl in
        if wm = "" then entries
        else List.filter (fun (e : Util.Kv.entry) -> String.compare e.key wm >= 0) entries
      in
      let l0_runs =
        List.map
          (fun tbl -> staged_read t ~medium:Compaction.Pipeline.Pm (fun () -> live_row tbl))
          p.unsorted
        @ List.map
            (fun tbl ->
              staged_read t ~medium:Compaction.Pipeline.Pm (fun () ->
                  Pmtable.Table.to_list tbl))
            p.sorted_run
        @ List.map
            (fun sst ->
              staged_read t ~medium:Compaction.Pipeline.Ssd (fun () -> Sstable.to_list sst))
            p.ssd_l0
      in
      if l0_runs <> [] then begin
        let lo = p.lo and hi = p.hi in
        let overlapping = p.levels.(0) in
        let drop_tombstones = is_bottom_for p ~into_level:0 ~lo ~hi in
        let runs =
          l0_runs
          @ List.map
              (fun sst ->
                staged_read t ~medium:Compaction.Pipeline.Ssd (fun () -> Sstable.to_list sst))
              overlapping
        in
        let merged, _stats =
          staged_merge t (fun () ->
              Compaction.Merge.merge ~drop_tombstones ~clock:t.clock runs)
        in
        List.iter Pmtable.Table.free p.unsorted;
        List.iter Pmtable.Table.free p.sorted_run;
        List.iter Sstable.delete p.ssd_l0;
        p.unsorted <- [];
        p.sorted_run <- [];
        p.ssd_l0 <- [];
        p.matrix_wms <- [];
        write_run_to_level t p ~into_level:0 ~replaced:overlapping merged;
        cascade t p 0;
        p.reads <- 0;
        p.writes <- 0;
        p.updates <- 0;
        p.window_start <- Sim.Clock.now t.clock
      end)

(* MatrixKV column compaction: take the lowest uncompacted key range worth
   ~1/columns of the level-0 entries from every row and push it into L1,
   advancing each row's watermark instead of rewriting rows on PM. *)

let column_compaction t p ~columns =
  Obs.Trace.with_span "column_compaction"
    ~attrs:(fun () ->
      [
        ("partition", Obs.Trace.Int p.idx);
        ("columns", Obs.Trace.Int columns);
        ("rows", Obs.Trace.Int (List.length p.unsorted));
        ("l0_bytes", Obs.Trace.Int (partition_l0_bytes p));
      ])
  @@ fun () ->
  with_major_timing t (fun () ->
      let rows = p.unsorted in
      if rows <> [] then begin
        let lo =
          List.fold_left
            (fun acc row -> min acc (matrix_wm_of p row))
            max_key_sentinel rows
        in
        (* Read a bounded slice of candidates from each row's live range,
           the way the matrix container's column fence pointers bound the
           real read cost: a row never contributes more than ~a column's
           worth of entries per compaction. *)
        let total_live =
          List.fold_left (fun acc row -> acc + Pmtable.Table.count row) 0 rows
        in
        let per_row_cap =
          max 2 ((total_live / max 1 columns / max 1 (List.length rows)) + 2)
        in
        let exhausted_rows = ref 0 in
        let candidate_runs =
          List.map
            (fun row ->
              staged_read t ~medium:Compaction.Pipeline.Pm @@ fun () ->
              let wm = matrix_wm_of p row in
              let acc = ref [] and n = ref 0 in
              (try
                 Pmtable.Table.range row ~start:wm ~stop:max_key_sentinel (fun e ->
                     acc := e :: !acc;
                     incr n;
                     if !n >= per_row_cap then raise Exit)
               with Exit -> ());
              let run = List.rev !acc in
              if !n < per_row_cap then incr exhausted_rows;
              run)
            rows
        in
        (* Keys below the smallest last-candidate of any non-exhausted row
           are completely represented in the candidates: that key is the
           safe new watermark. Exhausted rows impose no bound. *)
        let new_wm =
          List.fold_left2
            (fun acc row run ->
              match run with
              | [] -> acc
              | _ ->
                  let last = List.nth run (List.length run - 1) in
                  let complete =
                    List.length run < per_row_cap
                    || String.compare (Pmtable.Table.max_key row) last.Util.Kv.key <= 0
                  in
                  if complete then acc else min acc last.Util.Kv.key)
            max_key_sentinel rows candidate_runs
        in
        let merged, _stats =
          staged_merge t (fun () ->
              Compaction.Merge.merge ~drop_tombstones:false ~clock:t.clock candidate_runs)
        in
        let column =
          List.filter (fun (e : Util.Kv.entry) -> String.compare e.key new_wm < 0) merged
        in
        if column = [] && new_wm <> max_key_sentinel then
          (* Degenerate slice (duplicate-heavy boundary): fall back to a
             full major compaction of the partition. *)
          major_compact_partition t p
        else begin
          (if column <> [] then begin
             let overlapping =
               List.filter (fun sst -> Sstable.overlaps sst ~min:lo ~max:new_wm) p.levels.(0)
             in
             let drop_tombstones = is_bottom_for p ~into_level:0 ~lo ~hi:new_wm in
             let overlapping_runs =
               List.map
                 (fun sst ->
                   staged_read t ~medium:Compaction.Pipeline.Ssd (fun () ->
                       Sstable.to_list sst))
                 overlapping
             in
             let merged_out, _ =
               staged_merge t (fun () ->
                   Compaction.Merge.merge ~drop_tombstones ~clock:t.clock
                     (column :: overlapping_runs))
             in
             write_run_to_level t p ~into_level:0 ~replaced:overlapping merged_out;
             cascade t p 0
           end);
          (* Advance every row's watermark — never backwards: lowering one
             would resurface versions already compacted to the SSD levels,
             shadowing newer data there. Rows fully below their watermark
             are dead and their PM space is reclaimed. *)
          let advanced_wm row =
            let old = matrix_wm_of p row in
            if String.compare old new_wm > 0 then old else new_wm
          in
          let live, dead =
            List.partition
              (fun row ->
                let wm = advanced_wm row in
                wm <> max_key_sentinel
                && String.compare (Pmtable.Table.max_key row) wm >= 0)
              rows
          in
          let fresh_wms = List.map (fun row -> (row, advanced_wm row)) live in
          List.iter Pmtable.Table.free dead;
          p.unsorted <- live;
          p.matrix_wms <- fresh_wms;
          p.reads <- 0;
          p.writes <- 0;
          p.updates <- 0;
          p.window_start <- Sim.Clock.now t.clock
        end
      end)

(* --- Compaction strategy (Algorithm 1) --------------------------------- *)

let reads_per_sec t p =
  let window = Sim.Clock.now t.clock -. p.window_start in
  if window <= 0.0 then 0.0 else float_of_int p.reads /. (window /. 1e9)

(* Step 0: an unsorted table whose key range overlaps no other level-0
   table of its partition joins the sorted run unchanged — a trivial move,
   no PM rewrite. No other level-0 table holds any of its keys, so recency
   order stays exact and the run stays key-disjoint. The flush's manifest
   install records the move. *)
let trivial_move p =
  let l0 = p.unsorted @ p.sorted_run in
  let alone tbl =
    let min = Pmtable.Table.min_key tbl and max = Pmtable.Table.max_key tbl in
    List.for_all (fun o -> o == tbl || not (Pmtable.Table.overlaps o ~min ~max)) l0
  in
  match List.partition alone p.unsorted with
  | [], _ -> ()
  | moved, kept ->
      p.unsorted <- kept;
      p.sorted_run <-
        List.sort
          (fun a b -> String.compare (Pmtable.Table.min_key a) (Pmtable.Table.min_key b))
          (moved @ p.sorted_run)

let run_cost_based t p params =
  trivial_move p;
  (* Eq. 1: internal compaction for read amplification. *)
  let rps = reads_per_sec t p in
  let eq1 =
    Compaction.Cost_model.should_internal_compact_rf params ~reads_per_sec:rps
      ~unsorted:(List.length p.unsorted)
  in
  if Obs.Trace.is_enabled () then
    Obs.Trace.instant "cost_model.eq1" ~attrs:(fun () ->
        [
          ("partition", Obs.Trace.Int p.idx);
          ("reads_per_sec", Obs.Trace.Float rps);
          ("unsorted_tables", Obs.Trace.Int (List.length p.unsorted));
          ("compact", Obs.Trace.Bool eq1);
        ]);
  if eq1 then internal_compaction t p;
  (* Eq. 2: internal compaction to curb SSD write amplification. *)
  (if p.unsorted <> [] then begin
     let l0_records =
       List.fold_left (fun acc tbl -> acc + Pmtable.Table.count tbl) 0 p.unsorted
       + List.fold_left (fun acc tbl -> acc + Pmtable.Table.count tbl) 0 p.sorted_run
     in
     let eq2 =
       Compaction.Cost_model.should_internal_compact_wf params
         ~size:(partition_l0_bytes p) ~l0_records ~updates:p.updates
     in
     if Obs.Trace.is_enabled () then
       Obs.Trace.instant "cost_model.eq2" ~attrs:(fun () ->
           [
             ("partition", Obs.Trace.Int p.idx);
             ("l0_bytes", Obs.Trace.Int (partition_l0_bytes p));
             ("l0_records", Obs.Trace.Int l0_records);
             ("updates", Obs.Trace.Int p.updates);
             ("compact", Obs.Trace.Bool eq2);
           ]);
     if eq2 then internal_compaction t p
   end);
  (* Eq. 3: major-compact everything outside the preserved warm set. *)
  let eq3 = Compaction.Cost_model.should_major_compact params ~l0_bytes:(l0_bytes t) in
  if Obs.Trace.is_enabled () then
    Obs.Trace.instant "cost_model.eq3" ~attrs:(fun () ->
        [
          ("l0_bytes", Obs.Trace.Int (l0_bytes t));
          ("compact", Obs.Trace.Bool eq3);
        ]);
  if eq3 then begin
    let candidates =
      Array.to_list t.partitions
      |> List.filter_map (fun p ->
             let size = partition_l0_bytes p in
             if size = 0 then None else Some (p.idx, p.reads, size))
    in
    let preserved = Compaction.Cost_model.select_preserved params candidates in
    if Obs.Trace.is_enabled () then
      Obs.Trace.instant "cost_model.warm_set" ~attrs:(fun () ->
          [
            ("candidates", Obs.Trace.Int (List.length candidates));
            ("preserved", Obs.Trace.Int (List.length preserved));
          ]);
    Array.iter
      (fun p ->
        if partition_l0_bytes p > 0 && not (List.mem p.idx preserved) then
          major_compact_partition t p)
      t.partitions
  end

let run_strategy t p =
  match t.config.Config.l0_strategy with
  | Config.Cost_based params -> run_cost_based t p params
  | Config.Conventional { max_tables; max_bytes } ->
      let table_count =
        match t.config.Config.l0_medium with
        | Config.L0_pm -> List.length p.unsorted
        | Config.L0_ssd -> List.length p.ssd_l0
      in
      let trigger_tables =
        match max_tables with Some m -> table_count >= m | None -> false
      in
      let trigger_bytes =
        match max_bytes with Some m -> l0_bytes t >= m | None -> false
      in
      if trigger_tables then major_compact_partition t p
      else if trigger_bytes then
        (* PM full: flush every partition's level-0 (the conventional
           whole-level-0 compaction of PMBlade-PM). *)
        Array.iter (fun p -> if partition_l0_bytes p > 0 then major_compact_partition t p)
          t.partitions
  | Config.Matrix { columns; trigger_bytes } ->
      (* Column-compact the fullest partition until the matrix container
         fits its budget again; a small container compacts constantly and
         incoming writes absorb the stall (the MatrixKV-8GB behaviour the
         paper measures). *)
      let guard = ref (2 * columns) in
      while l0_bytes t >= trigger_bytes && !guard > 0 do
        decr guard;
        let victim =
          Array.fold_left
            (fun best p ->
              if partition_l0_bytes p > partition_l0_bytes best then p else best)
            t.partitions.(0) t.partitions
        in
        column_compaction t victim ~columns
      done

(* --- Partition splitting ------------------------------------------------ *)

(* Total bytes a partition holds across media. *)
let partition_total_bytes p =
  partition_l0_bytes p
  + List.fold_left (fun acc sst -> acc + Sstable.byte_size sst) 0 p.ssd_l0
  + Array.fold_left
      (fun acc level ->
        acc + List.fold_left (fun acc sst -> acc + Sstable.byte_size sst) 0 level)
      0 p.levels

(* Physical live bytes across PM and SSD structures — the space-amp
   numerator. *)
let space_bytes t =
  Array.fold_left (fun acc p -> acc + partition_total_bytes p) 0 t.partitions

(* Median-ish split key from structure boundaries (no data reads): the
   middle of the sorted min/max keys of every table in the partition. *)
let choose_split_key p =
  let keys = ref [] in
  let add_t tbl = keys := Pmtable.Table.min_key tbl :: Pmtable.Table.max_key tbl :: !keys in
  let add_s sst = keys := Sstable.min_key sst :: Sstable.max_key sst :: !keys in
  List.iter add_t p.unsorted;
  List.iter add_t p.sorted_run;
  List.iter add_s p.ssd_l0;
  Array.iter (List.iter add_s) p.levels;
  let sorted = List.sort_uniq String.compare !keys in
  let inside = List.filter (fun k -> String.compare k p.lo > 0 && String.compare k p.hi < 0) sorted in
  let n = List.length inside in
  if n = 0 then None else Some (List.nth inside (n / 2))

(* Cut a PM table at [key]: tables fully on one side move; a straddling
   table is read back and rebuilt as two (charged like a small internal
   compaction). Returns (left, right) replacement lists in order. *)
let split_pm_table t key tbl =
  if String.compare (Pmtable.Table.max_key tbl) key < 0 then ([ tbl ], [])
  else if String.compare (Pmtable.Table.min_key tbl) key >= 0 then ([], [ tbl ])
  else begin
    let entries = Pmtable.Table.to_list tbl in
    let left, right = List.partition (fun (e : Util.Kv.entry) -> String.compare e.key key < 0) entries in
    let build slice =
      if slice = [] then []
      else
        [ Pmtable.Table.of_sorted_list ~group_size:t.config.Config.group_size
            ~bloom_bits_per_key:(pm_bloom_bits t) t.pm
            ~kind:(Pmtable.Table.kind tbl) slice ]
    in
    let fresh_left = build left and fresh_right = build right in
    Pmtable.Table.free tbl;
    (fresh_left, fresh_right)
  end

let split_sstable t key sst =
  if String.compare (Sstable.max_key sst) key < 0 then ([ sst ], [])
  else if String.compare (Sstable.min_key sst) key >= 0 then ([], [ sst ])
  else begin
    let entries = Sstable.to_list sst in
    let left, right = List.partition (fun (e : Util.Kv.entry) -> String.compare e.key key < 0) entries in
    let build slice = if slice = [] then [] else [ new_sst t slice ] in
    let fresh_left = build left and fresh_right = build right in
    Sstable.delete sst;
    (fresh_left, fresh_right)
  end

let split_partition t p key =
  (* Matrix rows carry watermarks: entries below a row's watermark already
     live in L1, so a rebuilt (straddling) row must drop them physically —
     otherwise stale versions would resurface under the halves' watermark
     bookkeeping. Intact rows keep their watermark association. *)
  let split_unsorted rows =
    List.fold_right
      (fun row (ls, rs, wms) ->
        let wm = matrix_wm_of p row in
        if String.compare (Pmtable.Table.max_key row) key < 0 then
          (row :: ls, rs, (row, wm) :: wms)
        else if String.compare (Pmtable.Table.min_key row) key >= 0 then
          (ls, row :: rs, (row, wm) :: wms)
        else begin
          let entries =
            Pmtable.Table.to_list row
            |> List.filter (fun (e : Util.Kv.entry) -> String.compare e.key wm >= 0)
          in
          let left, right =
            List.partition (fun (e : Util.Kv.entry) -> String.compare e.key key < 0) entries
          in
          let build slice =
            if slice = [] then []
            else
              [ Pmtable.Table.of_sorted_list ~group_size:t.config.Config.group_size
                  ~bloom_bits_per_key:(pm_bloom_bits t) t.pm
                  ~kind:(Pmtable.Table.kind row) slice ]
          in
          let fresh_left = build left and fresh_right = build right in
          Pmtable.Table.free row;
          ( fresh_left @ ls,
            fresh_right @ rs,
            List.map (fun tbl -> (tbl, wm)) (fresh_left @ fresh_right) @ wms )
        end)
      rows ([], [], [])
  in
  let split_tables tables =
    List.fold_right
      (fun tbl (ls, rs) ->
        let l, r = split_pm_table t key tbl in
        (l @ ls, r @ rs))
      tables ([], [])
  in
  let split_sstables tables =
    List.fold_right
      (fun sst (ls, rs) ->
        let l, r = split_sstable t key sst in
        (l @ ls, r @ rs))
      tables ([], [])
  in
  let unsorted_l, unsorted_r, wms = split_unsorted p.unsorted in
  let sorted_l, sorted_r = split_tables p.sorted_run in
  let ssd_l, ssd_r = split_sstables p.ssd_l0 in
  let levels_r = Array.map (fun _ -> []) p.levels in
  Array.iteri
    (fun j level ->
      let l, r = split_sstables level in
      p.levels.(j) <- l;
      levels_r.(j) <- r)
    p.levels;
  let wm_of tbl = try List.assq tbl wms with Not_found -> "" in
  let fresh =
    {
      idx = p.idx + 1;
      lo = key;
      hi = p.hi;
      unsorted = unsorted_r;
      sorted_run = sorted_r;
      ssd_l0 = ssd_r;
      levels = levels_r;
      fences = None;
      matrix_wms = List.map (fun tbl -> (tbl, wm_of tbl)) unsorted_r;
      reads = p.reads / 2;
      writes = p.writes / 2;
      updates = p.updates / 2;
      window_start = p.window_start;
    }
  in
  p.hi <- key;
  p.unsorted <- unsorted_l;
  p.sorted_run <- sorted_l;
  p.ssd_l0 <- ssd_l;
  p.matrix_wms <- List.map (fun tbl -> (tbl, wm_of tbl)) unsorted_l;
  p.reads <- p.reads / 2;
  p.writes <- p.writes / 2;
  p.updates <- p.updates / 2;
  let before = Array.to_list t.partitions in
  let expanded =
    List.concat_map (fun q -> if q == p then [ q; fresh ] else [ q ]) before
  in
  t.partitions <- Array.of_list expanded;
  Array.iteri (fun i q -> q.idx <- i) t.partitions

(* Split the biggest partition once it clearly outweighs an even share of
   the data, until the configured partition count is reached. *)
let maybe_split t =
  let count = Array.length t.partitions in
  if count < t.config.Config.partition_count then begin
    let total = Array.fold_left (fun acc p -> acc + partition_total_bytes p) 0 t.partitions in
    let threshold =
      max (8 * t.config.Config.memtable_bytes)
        (total * 3 / (2 * t.config.Config.partition_count))
    in
    let biggest =
      Array.fold_left
        (fun best p -> if partition_total_bytes p > partition_total_bytes best then p else best)
        t.partitions.(0) t.partitions
    in
    if partition_total_bytes biggest > threshold then
      match choose_split_key biggest with
      | Some key -> split_partition t biggest key
      | None -> ()
  end

(* --- Durability: manifest + WAL ------------------------------------------ *)

let manifest_state t =
  {
    Manifest.next_seq = t.next_seq;
    wal_region_id = Option.map Wal.region_id t.wal;
    partitions =
      Array.to_list t.partitions
      |> List.map (fun p ->
             {
               Manifest.lo = p.lo;
               hi = p.hi;
               unsorted =
                 List.map
                   (fun tbl ->
                     { Manifest.region_id = Pmtable.Table.region_id tbl;
                       watermark = matrix_wm_of p tbl })
                   p.unsorted;
               sorted_run = List.map Pmtable.Table.region_id p.sorted_run;
               ssd_l0 = List.map Sstable.file_id p.ssd_l0;
               levels = Array.to_list p.levels |> List.map (List.map Sstable.file_id);
             });
    quarantined = t.quarantined;
  }

let persist_manifest t =
  if t.config.Config.durable then begin
    Manifest.persist ~root:t.config.Config.manifest_root t.ssd (manifest_state t);
    (* the manifest now references the current PM tables: all of them must
       be fenced or a crash here recovers into unpersisted bytes *)
    Pmem.commit_point t.pm "manifest.install"
  end

(* --- Quarantine & graceful degradation ----------------------------------

   A failed checksum marks a structure as untrustworthy: it is pulled from
   the read path immediately (the DRAM handle keeps its key range, so the
   damage record bounds what may have been lost) but its PM region / SSD
   file is kept for a later salvage pass or forensics. The caller's
   operation is then retried against the remaining structures — it degrades
   to an older or deeper version instead of crashing or, worse, returning
   bytes that failed verification. *)

let note_quarantine (t : t) source ~q_lo ~q_hi =
  let already =
    List.exists (fun (q : Manifest.quarantine) -> q.source = source) t.quarantined
  in
  if not already then begin
    t.quarantined <- t.quarantined @ [ { Manifest.source; q_lo; q_hi } ];
    t.metrics.Metrics.quarantined <- t.metrics.Metrics.quarantined + 1;
    if Obs.Trace.is_enabled () then
      Obs.Trace.instant "engine.quarantine" ~attrs:(fun () ->
          [
            ( "source",
              Obs.Trace.Str
                (match source with
                | Manifest.Q_region id -> Printf.sprintf "pm_region:%d" id
                | Manifest.Q_file id -> Printf.sprintf "ssd_file:%d" id) );
            ("lost_lo", Obs.Trace.Str q_lo);
            ("lost_hi", Obs.Trace.Str q_hi);
          ]);
    persist_manifest t
  end

(* Pull the table backed by [region_id] out of every read path (its region
   stays allocated for salvage). *)
let quarantine_region t region_id =
  let removed = ref None in
  Array.iter
    (fun p ->
      let keep tbl =
        if Pmtable.Table.region_id tbl = region_id then begin
          removed := Some tbl;
          false
        end
        else true
      in
      p.unsorted <- List.filter keep p.unsorted;
      p.sorted_run <- List.filter keep p.sorted_run;
      p.matrix_wms <-
        List.filter (fun (tbl, _) -> Pmtable.Table.region_id tbl <> region_id) p.matrix_wms)
    t.partitions;
  let q_lo, q_hi =
    match !removed with
    | Some tbl -> (Pmtable.Table.min_key tbl, Pmtable.Table.max_key tbl)
    | None -> ("", max_key_sentinel)
  in
  note_quarantine t (Manifest.Q_region region_id) ~q_lo ~q_hi

let quarantine_file t file_id =
  let removed = ref None in
  Array.iter
    (fun p ->
      let keep sst =
        if Sstable.file_id sst = file_id then begin
          removed := Some sst;
          false
        end
        else true
      in
      p.ssd_l0 <- List.filter keep p.ssd_l0;
      Array.iteri (fun j level -> p.levels.(j) <- List.filter keep level) p.levels)
    t.partitions;
  (* The file stays on the device for salvage/forensics, but its cached
     blocks must leave DRAM with it: a later hit would serve bytes from a
     structure the read path no longer trusts. (The fence set invalidates
     itself: the list filters above installed new list values.) *)
  (match !removed with Some sst -> Sstable.invalidate_cache sst | None -> ());
  let q_lo, q_hi =
    match !removed with
    | Some sst -> (Sstable.min_key sst, Sstable.max_key sst)
    | None -> ("", max_key_sentinel)
  in
  note_quarantine t (Manifest.Q_file file_id) ~q_lo ~q_hi

(* Run [f]; when it trips over a corrupt structure, quarantine the
   structure and retry — each retry has strictly fewer structures to
   distrust, so the loop terminates. Returns [f]'s result plus the sources
   quarantined along the way (empty on the clean fast path). *)
let guard_integrity t f =
  let hit = ref [] in
  let rec loop n =
    if n > 4096 then failwith "Engine.guard_integrity: corruption retry loop"
    else
      try f () with
      | Pmtable.Integrity.Corrupted { region_id; _ } ->
          quarantine_region t region_id;
          hit := Manifest.Q_region region_id :: !hit;
          loop (n + 1)
      | Sstable.Corrupted_block { file_id; _ } ->
          quarantine_file t file_id;
          hit := Manifest.Q_file file_id :: !hit;
          loop (n + 1)
  in
  let result = loop 0 in
  (result, List.rev !hit)

(* Is [key] inside a quarantined/salvaged structure's lost range? A [None]
   from {!get} for such a key means "possibly lost", not "never written". *)
let damaged_key (t : t) key =
  List.exists
    (fun (q : Manifest.quarantine) ->
      String.compare q.q_lo key <= 0 && String.compare key q.q_hi <= 0)
    t.quarantined

let quarantined (t : t) = t.quarantined

(* Durable engines record their (empty) structure immediately, so recovery
   works even before the first flush. *)
let create ?boundaries ?clock ?pm ?ssd ?cache config =
  let t = create ?boundaries ?clock ?pm ?ssd ?cache config in
  if config.Config.durable then persist_manifest t;
  t

(* --- Minor compaction (memtable flush) --------------------------------- *)

(* Push one partition's level-0 to the SSD and record the new structure.
   A rotten input is quarantined and the compaction retried without it. *)
let relieve_partition t p =
  ignore (guard_integrity t (fun () -> major_compact_partition t p));
  persist_manifest t

(* Out-of-space fallback: force major compaction of the coldest partitions
   until the allocation fits. *)
let relieve_pm_pressure t =
  let by_coldness =
    Array.to_list t.partitions
    |> List.filter (fun p -> partition_l0_bytes p > 0)
    |> List.sort (fun a b -> compare a.reads b.reads)
  in
  match by_coldness with [] -> () | coldest :: _ -> relieve_partition t coldest

(* One bounded relief step: the partition with the most level-0 runs (the
   first on a tie), so each major compaction retires the most probe
   targets it can; then the next such partition, until the debt is below
   [below]. Each round empties a partition, so a step takes at most one
   round per partition. *)
let relieve_step ?below t =
  let below = Option.value below ~default:(compaction_debt_runs t) in
  let rec round n =
    let most =
      Array.fold_left
        (fun best p -> if partition_runs p > partition_runs best then p else best)
        t.partitions.(0) t.partitions
    in
    if partition_runs most > 0 then begin
      relieve_partition t most;
      if n > 1 && compaction_debt_runs t >= below then round (n - 1)
    end
  in
  round (Array.length t.partitions)

(* A fresh ring needs PM room like any level-0 table. *)
let rec rotate_wal ?(attempts = 0) t w =
  try Wal.rotate w
  with Pmem.Out_of_space _ when attempts < 32 ->
    relieve_pm_pressure t;
    rotate_wal ~attempts:(attempts + 1) t w

let flush_memtable t =
  if not (Memtable.is_empty t.memtable) then begin
    let flushed_entries = Memtable.count t.memtable in
    let flushed_bytes = Memtable.byte_size t.memtable in
    Obs.Attr.with_phase Obs.Attr.Flush @@ fun () ->
    Obs.Trace.with_span "flush"
      ~attrs:(fun () ->
        [
          ("entries", Obs.Trace.Int flushed_entries);
          ("bytes", Obs.Trace.Int flushed_bytes);
        ])
    @@ fun () ->
    let entries = Memtable.to_list t.memtable in
    t.memtable_seed <- t.memtable_seed + 1;
    t.memtable <- Memtable.create ~seed:t.memtable_seed t.clock;
    t.metrics.Metrics.minor_compactions <- t.metrics.Metrics.minor_compactions + 1;
    (* Split by partition; entries are already sorted so each slice is too. *)
    let by_partition = Hashtbl.create 8 in
    List.iter
      (fun e ->
        let p = partition_of t e.Util.Kv.key in
        let slice = try Hashtbl.find by_partition p.idx with Not_found -> [] in
        Hashtbl.replace by_partition p.idx (e :: slice))
      entries;
    Hashtbl.iter
      (fun idx rev_slice ->
        let p = t.partitions.(idx) in
        let slice = List.rev rev_slice in
        (match t.config.Config.l0_medium with
        | Config.L0_pm ->
            let bytes =
              List.fold_left (fun acc e -> acc + Util.Kv.encoded_size e) 0 slice
            in
            (* MatrixKV's matrix container pays extra construction cost
               (cross-hint indexing) on every flush. *)
            if t.config.Config.matrix_flush_overhead_ns_per_byte > 0.0 then
              Sim.Clock.advance t.clock
                (float_of_int bytes *. t.config.Config.matrix_flush_overhead_ns_per_byte);
            let table =
              Pmtable.Table.of_sorted_list ~group_size:t.config.Config.group_size
                ~bloom_bits_per_key:(pm_bloom_bits t) t.pm
                ~kind:t.config.Config.table_kind slice
            in
            p.unsorted <- table :: p.unsorted
        | Config.L0_ssd ->
            let sst = new_sst t slice in
            p.ssd_l0 <- sst :: p.ssd_l0);
        (* Compaction reads whole tables; a corrupt one is quarantined and
           the strategy retried against the survivors (the merge inputs are
           materialised before any structure is freed, so a retry starts
           clean). *)
        ignore (guard_integrity t (fun () -> run_strategy t p)))
      by_partition;
    maybe_split t;
    (* The flushed data is durable in level-0: retire the old log and
       record the new structure. *)
    (match t.wal with Some w -> rotate_wal t w | None -> ());
    persist_manifest t
  end

(* --- Write path --------------------------------------------------------- *)

(* Flush the memtable on the foreground path. The write blocks until
   level-0 has room: everything from here to the flush's return is stall
   time, whatever mix of flush and emergency compaction it took to clear
   the backlog. *)
let flush_in_foreground t =
  t.in_foreground <- true;
  let attempts = ref 0 in
  let rec try_flush () =
    match flush_memtable t with
    | () -> ()
    | exception Pmem.Out_of_space _ when !attempts < 32 ->
        incr attempts;
        relieve_pm_pressure t;
        try_flush ()
  in
  let stall0 = Sim.Clock.now t.clock in
  Obs.Attr.with_phase Obs.Attr.Stall_wait (fun () ->
      Fun.protect ~finally:(fun () -> t.in_foreground <- false) try_flush);
  t.metrics.Metrics.write_stalls <- t.metrics.Metrics.write_stalls + 1;
  t.metrics.Metrics.write_stall_time <-
    t.metrics.Metrics.write_stall_time +. Float.max 0.0 (Sim.Clock.now t.clock -. stall0)

(* Durability point: sync whatever the WAL has staged (every writer's
   records since the last sync) as one ring write and one fence. A group
   that would overflow the ring flushes the memtable first — it holds
   every logged and staged record — which rotates the log and leaves
   nothing to sync. A no-op without a WAL. *)
let sync_wal t =
  match t.wal with
  | Some w ->
      if not (Wal.fits w) then begin
        t.metrics.Metrics.wal_ring_full_flushes <- t.metrics.Metrics.wal_ring_full_flushes + 1;
        if Obs.Trace.is_enabled () then
          Obs.Trace.instant "wal.ring_full" ~attrs:(fun () ->
              [ ("staged", Obs.Trace.Int (Wal.buffered_bytes w)) ]);
        flush_in_foreground t
      end;
      Obs.Attr.with_phase Obs.Attr.Wal_sync (fun () -> Wal.sync w)
  | None -> ()

let apply t entry =
  Obs.Attr.with_op Obs.Attr.Write @@ fun () ->
  let t0 = Sim.Clock.now t.clock in
  (match t.wal with
  | Some w -> Obs.Attr.with_phase Obs.Attr.Wal_stage (fun () -> Wal.append w entry)
  | None -> ());
  Obs.Attr.with_phase Obs.Attr.Memtable_probe (fun () ->
      Memtable.insert t.memtable entry);
  t.metrics.Metrics.user_bytes_written <-
    t.metrics.Metrics.user_bytes_written + Util.Kv.encoded_size entry;
  (* Strict durability: the log entry is synced before the write is
     acknowledged. Under group commit the sync is deferred to the batcher
     ([sync_wal]) and the record stays staged in the group buffer. *)
  if not t.config.Config.wal_external_sync then sync_wal t;
  if Memtable.byte_size t.memtable >= t.config.Config.memtable_bytes then
    flush_in_foreground t;
  Metrics.note_write t.metrics (Sim.Clock.now t.clock -. t0)

let memtable_bytes t = Memtable.byte_size t.memtable

let put ?(update = false) t ~key value =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let p = partition_of t key in
  p.writes <- p.writes + 1;
  if update then p.updates <- p.updates + 1;
  apply t (Util.Kv.entry ~key ~seq value)

let delete t key =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let p = partition_of t key in
  p.writes <- p.writes + 1;
  p.updates <- p.updates + 1;
  apply t (Util.Kv.tombstone ~key ~seq)

(* --- Read path ----------------------------------------------------------- *)

let visible = function
  | Some { Util.Kv.kind = Util.Kv.Put; value; _ } -> Some value
  | Some { Util.Kv.kind = Util.Kv.Delete; _ } | None -> None

(* --- Fence-pointer probe path ---

   The sorted run and every SSD level hold key-disjoint tables
   (Compaction.Merge.split_run never splits one key's versions across
   slices), so a probe binary-searches the fence array to at most one
   candidate table instead of walking the list with [overlaps]. The
   unsorted stacks (PM rows, SSD-L0 files) mutually overlap and stay
   linear — but the L0 fence arrays still prune by min/max without
   touching the tables. *)

(* Debug check (on by default; tests may widen or drop it): a disjoint
   structure's tables must be strictly ordered — overlap here means a
   compaction or split bug that the fence search would silently turn into
   wrong answers, so fail loudly at rebuild time instead. *)
let check_fence_invariants = ref true

let assert_disjoint what p_idx n ~min_of ~max_of =
  if !check_fence_invariants then
    for i = 0 to n - 2 do
      if String.compare (max_of i) (min_of (i + 1)) >= 0 then
        failwith
          (Printf.sprintf
             "Engine: %s of partition %d violates disjointness: table %d [%s..%s] overlaps table %d [%s..%s]"
             what p_idx i (min_of i) (max_of i) (i + 1) (min_of (i + 1)) (max_of (i + 1)))
    done

let build_fences t p =
  t.metrics.Metrics.fence_rebuilds <- t.metrics.Metrics.fence_rebuilds + 1;
  let by_min_t a b = String.compare (Pmtable.Table.min_key a) (Pmtable.Table.min_key b) in
  let by_min_s a b = String.compare (Sstable.min_key a) (Sstable.min_key b) in
  let sorted = Array.of_list p.sorted_run in
  Array.sort by_min_t sorted;
  assert_disjoint "sorted run" p.idx (Array.length sorted)
    ~min_of:(fun i -> Pmtable.Table.min_key sorted.(i))
    ~max_of:(fun i -> Pmtable.Table.max_key sorted.(i));
  let levels =
    Array.map
      (fun lst ->
        let arr = Array.of_list lst in
        Array.sort by_min_s arr;
        arr)
      p.levels
  in
  Array.iteri
    (fun j arr ->
      assert_disjoint (Printf.sprintf "level %d" (j + 1)) p.idx (Array.length arr)
        ~min_of:(fun i -> Sstable.min_key arr.(i))
        ~max_of:(fun i -> Sstable.max_key arr.(i)))
    levels;
  let l0 = Array.of_list p.ssd_l0 (* keep newest-first probe order *) in
  {
    f_src_sorted = p.sorted_run;
    f_src_ssd_l0 = p.ssd_l0;
    f_src_levels = Array.copy p.levels;
    f_sorted = sorted;
    f_sorted_min = Array.map Pmtable.Table.min_key sorted;
    f_levels = levels;
    f_levels_min = Array.map (Array.map Sstable.min_key) levels;
    f_l0 = l0;
    f_l0_min = Array.map Sstable.min_key l0;
    f_l0_max = Array.map Sstable.max_key l0;
  }

let fences_valid p f =
  f.f_src_sorted == p.sorted_run
  && f.f_src_ssd_l0 == p.ssd_l0
  && Array.length f.f_src_levels = Array.length p.levels
  &&
  let ok = ref true in
  Array.iteri (fun j l -> if not (l == p.levels.(j)) then ok := false) f.f_src_levels;
  !ok

let fences_of t p =
  match p.fences with
  | Some f when fences_valid p f -> f
  | _ ->
      let f = build_fences t p in
      p.fences <- Some f;
      f

(* Rightmost index with [mins.(i) <= key], or -1 when the key precedes
   every table. The candidate still needs its max checked. *)
let fence_candidate mins key =
  let n = Array.length mins in
  if n = 0 || String.compare mins.(0) key > 0 then -1
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if String.compare mins.(mid) key <= 0 then lo := mid else hi := mid - 1
    done;
    !lo
  end

let probe_memtable t key =
  Obs.Attr.with_phase Obs.Attr.Memtable_probe (fun () -> Memtable.find t.memtable key)

(* The PM half of a partition probe: the unsorted level-0 stack, then the
   sorted run. *)
let find_in_pm t p f key =
  let is_matrix =
    match t.config.Config.l0_strategy with Config.Matrix _ -> true | _ -> false
  in
  (* Mutually-overlapping stack: recency order is the correctness rule, so
     the walk stays linear (each table's min/max and bloom still screen it
     before any PM group read). *)
  let from_unsorted =
    List.find_map
      (fun tbl ->
        (* Under the matrix container, a row's keys below its watermark
           have moved to L1 already: skip the row for those probes. *)
        if is_matrix && String.compare key (matrix_wm_of p tbl) < 0 then None
        else if Pmtable.Table.overlaps tbl ~min:key ~max:key then Pmtable.Table.get tbl key
        else None)
      p.unsorted
  in
  match from_unsorted with
  | Some _ as hit -> hit
  | None ->
      let i = fence_candidate f.f_sorted_min key in
      if i < 0 then None
      else
        let tbl = f.f_sorted.(i) in
        if String.compare (Pmtable.Table.max_key tbl) key >= 0 then Pmtable.Table.get tbl key
        else None

(* The SSD half: the overlapping SSD level-0 tables newest first, then one
   fence-picked candidate per level. *)
let find_in_ssd f key =
  let from_ssd_l0 () =
    let n = Array.length f.f_l0 in
    let rec loop i =
      if i >= n then None
      else if
        String.compare f.f_l0_min.(i) key <= 0 && String.compare key f.f_l0_max.(i) <= 0
      then
        match Sstable.get f.f_l0.(i) key with Some e -> Some e | None -> loop (i + 1)
      else loop (i + 1)
    in
    loop 0
  in
  let from_levels () =
    let rec loop j =
      if j >= Array.length f.f_levels then None
      else
        let hit =
          let i = fence_candidate f.f_levels_min.(j) key in
          if i < 0 then None
          else
            let sst = f.f_levels.(j).(i) in
            if String.compare (Sstable.max_key sst) key >= 0 then Sstable.get sst key
            else None
        in
        match hit with
        | Some e -> Some (e, Metrics.From_level (j + 1))
        | None -> loop (j + 1)
    in
    loop 0
  in
  match from_ssd_l0 () with
  | Some e -> Some (e, Metrics.From_ssd_l0)
  | None -> from_levels ()

(* Search one partition's structures in recency order; the first version
   found is the newest. Returns the entry and where it came from. *)
let find_in_partition t p key =
  let f = fences_of t p in
  match find_in_pm t p f key with
  | Some e -> Some (e, Metrics.From_pm_l0)
  | None -> find_in_ssd f key

(* Point lookup with integrity degradation: a checksum failure quarantines
   the structure and the probe retries against the survivors, so the
   result is the newest *verified* version — possibly older than a version
   that rotted, hence the typed exception when a quarantine was crossed. *)
let get t key =
  Obs.Attr.with_op Obs.Attr.Read @@ fun () ->
  let t0 = Sim.Clock.now t.clock in
  let p = partition_of t key in
  p.reads <- p.reads + 1;
  let found, hit =
    guard_integrity t (fun () ->
        match probe_memtable t key with
        | Some e -> Some (e, Metrics.From_memtable)
        | None -> with_ssd_retry t (fun () -> find_in_partition t p key))
  in
  let latency = Sim.Clock.now t.clock -. t0 in
  (match found with
  | Some (_, source) -> Metrics.note_read t.metrics source latency
  | None -> Metrics.note_read t.metrics Metrics.Not_found_ latency);
  let value = visible (Option.map fst found) in
  (match value with
  | Some v ->
      t.metrics.Metrics.user_bytes_read <-
        t.metrics.Metrics.user_bytes_read + String.length key + String.length v
  | None -> ());
  match hit with
  | [] -> value
  | hit ->
      t.metrics.Metrics.degraded_reads <- t.metrics.Metrics.degraded_reads + 1;
      raise (Degraded_read { key; fallback = value; quarantined = hit })

(* PM-only probe for degraded serving behind an open circuit breaker:
   consult only the DRAM memtable and the partition's PM level-0 stack,
   never the SSD. Recency order makes a hit *exact* — the memtable and PM
   L0 hold strictly newer versions than anything on the SSD — so [`Hit]
   answers are never stale. A miss means the newest version may live on
   the (sick) SSD, and a probe that crosses a quarantine also answers
   [`Miss]: the quarantined structure may have hidden a newer version. *)
let get_pm_only t key =
  let p = partition_of t key in
  let found, hit =
    guard_integrity t (fun () ->
        match probe_memtable t key with
        | Some _ as hit -> hit
        | None -> find_in_pm t p (fences_of t p) key)
  in
  match (found, hit) with
  | Some e, [] -> `Hit (visible (Some e))
  | _ -> `Miss

(* Device footprint of this engine, for shard-scoped fault injection and
   health attribution: which SSD files and PM regions a gray fault on this
   engine's range would touch. *)
let owned_file_ids t =
  let ids = Hashtbl.create 64 in
  Array.iter
    (fun p ->
      List.iter (fun sst -> Hashtbl.replace ids (Sstable.file_id sst) ()) p.ssd_l0;
      Array.iter
        (List.iter (fun sst -> Hashtbl.replace ids (Sstable.file_id sst) ()))
        p.levels)
    t.partitions;
  Hashtbl.fold (fun id () acc -> id :: acc) ids [] |> List.sort compare

let owned_region_ids t =
  let ids = Hashtbl.create 64 in
  Array.iter
    (fun p ->
      List.iter
        (fun tbl -> Hashtbl.replace ids (Pmtable.Table.region_id tbl) ())
        p.unsorted;
      List.iter
        (fun tbl -> Hashtbl.replace ids (Pmtable.Table.region_id tbl) ())
        p.sorted_run)
    t.partitions;
  (match t.wal with Some w -> Hashtbl.replace ids (Wal.region_id w) () | None -> ());
  Hashtbl.fold (fun id () acc -> id :: acc) ids [] |> List.sort compare

(* --- Scans ---------------------------------------------------------------- *)

(* Every table of the partitions covering [start, stop) whose key range
   meets it, as (smallest key, reader over [start, stop)), in partition
   then recency order — the memtable aside. *)
let sources t ~start ~stop =
  let acc = ref [] in
  let add ~min_key ~max_key read =
    if not (String.compare max_key start < 0 || String.compare min_key stop > 0) then
      acc := (min_key, read) :: !acc
  in
  Array.iter
    (fun p ->
      if not (String.compare p.hi start <= 0 || String.compare p.lo stop >= 0) then begin
        List.iter
          (fun tbl ->
            add ~min_key:(Pmtable.Table.min_key tbl) ~max_key:(Pmtable.Table.max_key tbl)
              (Pmtable.Table.range tbl ~start ~stop))
          (p.unsorted @ p.sorted_run);
        List.iter
          (fun sst ->
            add ~min_key:(Sstable.min_key sst) ~max_key:(Sstable.max_key sst)
              (Sstable.range sst ~start ~stop))
          (p.ssd_l0 @ List.concat (Array.to_list p.levels))
      end)
    t.partitions;
  List.rev !acc

(* Collect all entries with key in [start, stop), merged newest-wins with
   tombstones dropped. *)
let collect_range t ~start ~stop =
  let read_all runs (_, read) =
    let acc = ref [] in
    read (fun e -> acc := e :: !acc);
    List.rev !acc :: runs
  in
  let runs =
    List.fold_left read_all [ Memtable.range t.memtable ~start ~stop ] (sources t ~start ~stop)
  in
  fst (Compaction.Merge.merge ~drop_tombstones:true ~clock:t.clock runs)

(* Bounded forward window: up to [per_source] entries with key >= start
   per structure, merged newest-wins, tombstones dropped. Returns the live
   pairs up to the *safe bound*, up to which every key is complete: a
   source cut at [per_source] entries bounds the window at its last key
   (it already yielded its newest versions up to there). Sources are read
   in order of their smallest key and only up to the bound so far; keys
   below the next source's smallest key are complete, so once
   [per_source] of them are held the window ends there. [None]: no source
   was cut, the keyspace from [start] is exhausted. *)
let collect_window t ~start ~per_source =
  let runs = ref [] and safe_bound = ref None in
  let reaches key =
    match !safe_bound with Some b -> String.compare key b <= 0 | None -> true
  in
  let add_run read =
    let acc = ref [] and n = ref 0 in
    (try
       read (fun (e : Util.Kv.entry) ->
           if not (reaches e.key) then raise Exit;
           acc := e :: !acc;
           incr n;
           if !n >= per_source then raise Exit)
     with Exit -> ());
    (match !acc with
    | last :: _ when !n >= per_source -> safe_bound := Some last.Util.Kv.key
    | _ -> ());
    if !acc <> [] then runs := List.rev !acc :: !runs
  in
  let close_below m =
    let held = List.concat_map (List.filter (fun (e : Util.Kv.entry) -> e.key < m)) !runs in
    if List.length held >= per_source then
      safe_bound := Some (List.fold_left (fun b (e : Util.Kv.entry) -> max b e.key) "" held)
  in
  add_run (fun f -> List.iter f (Memtable.from t.memtable ~start ~limit:per_source));
  List.stable_sort
    (fun (a, _) (b, _) -> String.compare a b)
    (sources t ~start ~stop:max_key_sentinel)
  |> List.iter (fun (m, read) ->
         if reaches m then close_below m;
         if reaches m then add_run read);
  let merged, _stats = Compaction.Merge.merge ~drop_tombstones:true ~clock:t.clock !runs in
  let live = List.filter (fun (e : Util.Kv.entry) -> reaches e.key) merged in
  (List.map (fun (e : Util.Kv.entry) -> (e.key, e.value)) live, !safe_bound)

(* Every scan runs here: the collection is guarded (a corrupt source is
   quarantined and the collection retried) and retried on SSD errors;
   latency and user bytes are booked, and a collection that crossed a
   quarantine is delivered through the typed exception. *)
let scan_op t collect =
  Obs.Attr.with_op Obs.Attr.Scan @@ fun () ->
  let t0 = Sim.Clock.now t.clock in
  let pairs, hit = guard_integrity t (fun () -> with_ssd_retry t collect) in
  Metrics.note_scan t.metrics (Sim.Clock.now t.clock -. t0);
  t.metrics.Metrics.user_bytes_read <-
    t.metrics.Metrics.user_bytes_read
    + List.fold_left (fun acc (k, v) -> acc + String.length k + String.length v) 0 pairs;
  match hit with
  | [] -> pairs
  | hit ->
      t.metrics.Metrics.degraded_reads <- t.metrics.Metrics.degraded_reads + 1;
      raise (Degraded_scan { partial = pairs; scan_quarantined = hit })

let scan_range t ~start ~stop =
  scan_op t (fun () ->
      List.map (fun (e : Util.Kv.entry) -> (e.key, e.value)) (collect_range t ~start ~stop))

(* The first [limit] live pairs from [start]: windows of [limit + 4]
   entries per source, each resuming just past the previous window's safe
   bound, until [limit] pairs are in hand or the keyspace is exhausted. *)
let scan t ~start ~limit =
  let rec windows start acc =
    let pairs, bound = collect_window t ~start ~per_source:(limit + 4) in
    let acc = List.rev_append pairs acc in
    match bound with
    | Some b when List.length acc < limit -> windows (b ^ "\x00") acc
    | _ -> List.filteri (fun i _ -> i < limit) (List.rev acc)
  in
  scan_op t (fun () -> windows start [])

(* --- Maintenance entry points (benchmarks drive these manually) -------- *)

(* Logical live bytes: key+value bytes of the newest visible version of
   every key, via a full merged collection. This reads every structure
   (and so perturbs device read stats) — one-shot diagnostics only. *)
let logical_bytes t =
  let entries = collect_range t ~start:"" ~stop:max_key_sentinel in
  List.fold_left
    (fun acc (e : Util.Kv.entry) -> acc + String.length e.key + String.length e.value)
    0 entries

let flush t = flush_memtable t

(* Forced compactions meet rot like any other: quarantine and retry. *)
let force_internal_compaction t =
  Array.iter
    (fun p ->
      if p.unsorted <> [] then ignore (guard_integrity t (fun () -> internal_compaction t p)))
    t.partitions;
  persist_manifest t

let force_major_compaction t =
  Array.iter
    (fun p ->
      if partition_l0_bytes p > 0 || p.ssd_l0 <> [] then
        ignore (guard_integrity t (fun () -> major_compact_partition t p)))
    t.partitions;
  persist_manifest t

(* --- Scrub & salvage ----------------------------------------------------

   Walk every live table re-verifying checksums from the medium (around the
   DRAM caches — pinned indexes outlive rot), then repair what failed:
   salvage rebuilds a corrupt table from its surviving blocks and records
   the conservatively-bounded lost key range; with [salvage:false] the
   table is merely quarantined. The optional rate limit charges the
   virtual clock so a budgeted scrub models a background task that does
   not saturate the devices. *)

type scrub_report = {
  scrubbed_tables : int;
  scrubbed_bytes : int;
  corrupt_pm_tables : int;
  corrupt_sstables : int;
  salvaged : int;   (* corrupt tables rebuilt from surviving blocks *)
  dropped : int;    (* corrupt tables with no surviving blocks at all *)
  lost_ranges : (string * string) list;
}

let pp_scrub_report ppf r =
  Fmt.pf ppf
    "scrubbed %d tables (%.1f KB): %d corrupt PM, %d corrupt SST, %d salvaged, %d dropped, %d lost ranges"
    r.scrubbed_tables
    (float_of_int r.scrubbed_bytes /. 1024.)
    r.corrupt_pm_tables r.corrupt_sstables r.salvaged r.dropped
    (List.length r.lost_ranges)

(* Swap [old] for [fresh] (or remove it) wherever the partition holds it,
   preserving position and any matrix watermark. *)
let replace_pm_table p ~old fresh =
  let subst lst =
    List.concat_map (fun tbl -> if tbl == old then Option.to_list fresh else [ tbl ]) lst
  in
  p.unsorted <- subst p.unsorted;
  p.sorted_run <- subst p.sorted_run;
  p.matrix_wms <-
    List.concat_map
      (fun (tbl, wm) ->
        if tbl == old then match fresh with Some f -> [ (f, wm) ] | None -> []
        else [ (tbl, wm) ])
      p.matrix_wms

let replace_sst p ~old fresh =
  let subst lst =
    List.concat_map (fun sst -> if sst == old then Option.to_list fresh else [ sst ]) lst
  in
  p.ssd_l0 <- subst p.ssd_l0;
  Array.iteri (fun j level -> p.levels.(j) <- subst level) p.levels

let scrub ?(salvage = true) ?rate_limit_mb_s t =
  let t0 = Sim.Clock.now t.clock in
  let scrubbed = ref 0 and bytes = ref 0 in
  let bad_pm = ref [] and bad_sst = ref [] in
  Array.iter
    (fun p ->
      let check_tbl tbl =
        incr scrubbed;
        bytes := !bytes + Pmtable.Table.byte_size tbl;
        if Pmtable.Table.verify tbl <> [] then bad_pm := (p, tbl) :: !bad_pm
      in
      let check_sst sst =
        incr scrubbed;
        bytes := !bytes + Sstable.byte_size sst;
        if Sstable.verify sst <> [] then bad_sst := (p, sst) :: !bad_sst
      in
      List.iter check_tbl p.unsorted;
      List.iter check_tbl p.sorted_run;
      List.iter check_sst p.ssd_l0;
      Array.iter (List.iter check_sst) p.levels)
    t.partitions;
  (* Rate limit: a budgeted scrub takes at least bytes/rate of wall time. *)
  (match rate_limit_mb_s with
  | Some mb_s when mb_s > 0.0 ->
      let floor_ns = float_of_int !bytes /. (mb_s *. 1048576.) *. 1e9 in
      let elapsed = Sim.Clock.now t.clock -. t0 in
      if elapsed < floor_ns then Sim.Clock.advance t.clock (floor_ns -. elapsed)
  | _ -> ());
  let salvaged = ref 0 and dropped = ref 0 and lost = ref [] in
  let record source = function
    | Some (lo, hi) ->
        lost := (lo, hi) :: !lost;
        note_quarantine t source ~q_lo:lo ~q_hi:hi
    | None -> ()
  in
  let note_salvage label id survivors =
    incr salvaged;
    t.metrics.Metrics.salvaged <- t.metrics.Metrics.salvaged + 1;
    if Obs.Trace.is_enabled () then
      Obs.Trace.instant "engine.salvage" ~attrs:(fun () ->
          [ (label, Obs.Trace.Int id); ("survivors", Obs.Trace.Int survivors) ])
  in
  List.iter
    (fun (p, tbl) ->
      let region_id = Pmtable.Table.region_id tbl in
      if salvage then begin
        let entries, lost_range = Pmtable.Table.salvage_entries tbl in
        let full_range = (Pmtable.Table.min_key tbl, Pmtable.Table.max_key tbl) in
        let fresh =
          match entries with
          | [] -> None
          | entries ->
              Some
                (Pmtable.Table.of_sorted_list ~group_size:t.config.Config.group_size
                   ~bloom_bits_per_key:(pm_bloom_bits t) t.pm
                   ~kind:(Pmtable.Table.kind tbl) entries)
        in
        replace_pm_table p ~old:tbl fresh;
        Pmtable.Table.free tbl;
        (match fresh with
        | Some _ -> note_salvage "pm_region" region_id (List.length entries)
        | None -> incr dropped);
        record (Manifest.Q_region region_id)
          (match fresh with None -> Some full_range | Some _ -> lost_range)
      end
      else begin
        lost := (Pmtable.Table.min_key tbl, Pmtable.Table.max_key tbl) :: !lost;
        quarantine_region t region_id
      end)
    !bad_pm;
  List.iter
    (fun (p, sst) ->
      let file_id = Sstable.file_id sst in
      if salvage then begin
        let entries, lost_range = Sstable.salvage_entries sst in
        let full_range = (Sstable.min_key sst, Sstable.max_key sst) in
        let fresh =
          match entries with
          | [] -> None
          | entries -> Some (new_sst t entries)
        in
        replace_sst p ~old:sst fresh;
        Sstable.delete sst;
        (match fresh with
        | Some _ -> note_salvage "ssd_file" file_id (List.length entries)
        | None -> incr dropped);
        record (Manifest.Q_file file_id)
          (match fresh with None -> Some full_range | Some _ -> lost_range)
      end
      else begin
        lost := (Sstable.min_key sst, Sstable.max_key sst) :: !lost;
        quarantine_file t file_id
      end)
    !bad_sst;
  (* Pure salvages with no loss still changed region/file ids. *)
  if !bad_pm <> [] || !bad_sst <> [] then persist_manifest t;
  {
    scrubbed_tables = !scrubbed;
    scrubbed_bytes = !bytes;
    corrupt_pm_tables = List.length !bad_pm;
    corrupt_sstables = List.length !bad_sst;
    salvaged = !salvaged;
    dropped = !dropped;
    lost_ranges = List.rev !lost;
  }

(* --- Recovery -------------------------------------------------------------

   Rebuild an engine from the devices alone after a crash: the superblock
   points at the manifest, the manifest names every PM region and SSD file,
   the tables are reopened in place (only DRAM handles are rebuilt), and
   the WAL replays the writes the memtable lost. Requires a configuration
   built with [durable = true] and the compressed PM table. *)

(* Orphan GC: a crash resurrects PM regions and SSD files that were
   freed/deleted after the durable manifest was written (the medium still
   held their bytes), and may leave behind half-built tables from an
   interrupted flush or compaction. Nothing the manifests do not name is
   reachable, so reclaim it. Every superblock slot — unnamed and named —
   stays referenced (each previous manifest is its namespace's dual-slot
   fallback), and quarantined structures are preserved for
   salvage/forensics rather than reclaimed. *)
let gc_orphans ~pm ~ssd ~states ~rings =
  let region_referenced = Hashtbl.create 64 and file_referenced = Hashtbl.create 64 in
  let keep_region id = Hashtbl.replace region_referenced id () in
  let keep_file id = Hashtbl.replace file_referenced id () in
  List.iter
    (fun (state : Manifest.state) ->
      List.iter
        (fun (ps : Manifest.partition_state) ->
          List.iter (fun (r : Manifest.row) -> keep_region r.region_id) ps.unsorted;
          List.iter keep_region ps.sorted_run;
          List.iter keep_file ps.ssd_l0;
          List.iter (List.iter keep_file) ps.levels)
        state.Manifest.partitions;
      Option.iter keep_region state.Manifest.wal_region_id;
      List.iter
        (fun (q : Manifest.quarantine) ->
          match q.Manifest.source with
          | Manifest.Q_region id -> keep_region id
          | Manifest.Q_file id -> keep_file id)
        state.Manifest.quarantined)
    states;
  List.iter (fun w -> keep_region (Wal.region_id w)) rings;
  let keep_slots (cur, prev) = List.iter (Option.iter keep_file) [ cur; prev ] in
  keep_slots (Ssd.root_slots ssd);
  List.iter (fun name -> keep_slots (Ssd.root_slots ~name ssd)) (Ssd.root_names ssd);
  let orphan_regions =
    List.filter (fun r -> not (Hashtbl.mem region_referenced (Pmem.region_id r)))
      (Pmem.live_regions pm)
  in
  let orphan_files =
    List.filter (fun id -> not (Hashtbl.mem file_referenced id)) (Ssd.live_file_ids ssd)
  in
  List.iter (Pmem.free pm) orphan_regions;
  List.iter
    (fun id -> match Ssd.find_file ssd id with Some f -> Ssd.delete_file ssd f | None -> ())
    orphan_files;
  if Obs.Trace.is_enabled () && (orphan_regions <> [] || orphan_files <> []) then
    Obs.Trace.instant "recover.orphan_gc" ~attrs:(fun () ->
        [
          ("pm_regions", Obs.Trace.Int (List.length orphan_regions));
          ("ssd_files", Obs.Trace.Int (List.length orphan_files));
        ])

let recover ?(orphan_gc = true) ?cache config ~pm ~ssd =
  if not config.Config.sanitize then Pmem.set_sanitizer pm None;
  let clock = Pmem.clock pm in
  let block_cache =
    match cache with
    | Some _ as c -> c
    | None ->
        if config.Config.block_cache_mb > 0 then
          Some
            (Cache.Block_cache.create ~clock
               ~capacity_bytes:(config.Config.block_cache_mb * 1024 * 1024) ())
        else None
  in
  let fallbacks_before = Manifest.fallback_count () in
  let state =
    match Manifest.load ~root:config.Config.manifest_root ssd with
    | Some s -> s
    | None -> failwith "Engine.recover: no manifest on the device"
  in
  (* A fallback snapshot is one generation stale: structures it names may
     have been legitimately freed when the (now rotten) newer snapshot
     superseded it — the rotated-away WAL above all. Under a fallback those
     turn into damage records instead of hard failures; under the current
     snapshot a missing structure stays a loud bug. *)
  let fell_back = Manifest.fallback_count () > fallbacks_before in
  (* A named structure that is *missing* means the manifest and the devices
     disagree — an unrecoverable bug, so it stays a hard [Failure]. A named
     structure that is *present but rotten* (bad magic, footer, meta, or
     checksum) is media decay: quarantine it — with the owning partition's
     key range as the conservative lost bound, since its own footer is no
     longer trusted — and recover the rest. *)
  let fresh_damage = ref [] in
  let note_damage source ~lo ~hi =
    fresh_damage := { Manifest.source; q_lo = lo; q_hi = hi } :: !fresh_damage
  in
  let reopen_table ~lo ~hi region_id =
    match Pmem.find_region pm region_id with
    | Some region -> (
        try Some (Pmtable.Table.open_existing pm region)
        with Pmtable.Integrity.Corrupted _ | Failure _ | Invalid_argument _ ->
          note_damage (Manifest.Q_region region_id) ~lo ~hi;
          None)
    | None when fell_back ->
        note_damage (Manifest.Q_region region_id) ~lo ~hi;
        None
    | None -> failwith (Printf.sprintf "Engine.recover: PM region %d missing" region_id)
  in
  let reopen_sst ~lo ~hi file_id =
    match Ssd.find_file ssd file_id with
    | Some file -> (
        try
          let sst = Sstable.open_existing ssd file in
          (match block_cache with
          | Some c -> Sstable.attach_shared_cache sst c
          | None -> ());
          Some sst
        with Sstable.Corrupted_block _ | Failure _ | Invalid_argument _ ->
          note_damage (Manifest.Q_file file_id) ~lo ~hi;
          None)
    | None when fell_back ->
        note_damage (Manifest.Q_file file_id) ~lo ~hi;
        None
    | None -> failwith (Printf.sprintf "Engine.recover: SSD file %d missing" file_id)
  in
  let partitions =
    state.Manifest.partitions
    |> List.mapi (fun idx (ps : Manifest.partition_state) ->
           let lo = ps.lo and hi = ps.hi in
           let unsorted_with_wm =
             List.filter_map
               (fun (r : Manifest.row) ->
                 Option.map
                   (fun tbl -> (tbl, r.Manifest.watermark))
                   (reopen_table ~lo ~hi r.Manifest.region_id))
               ps.unsorted
           in
           {
             idx;
             lo;
             hi;
             unsorted = List.map fst unsorted_with_wm;
             sorted_run = List.filter_map (reopen_table ~lo ~hi) ps.sorted_run;
             ssd_l0 = List.filter_map (reopen_sst ~lo ~hi) ps.ssd_l0;
             levels = Array.of_list (List.map (List.filter_map (reopen_sst ~lo ~hi)) ps.levels);
             fences = None;
             matrix_wms = List.filter (fun (_, wm) -> wm <> "") unsorted_with_wm;
             reads = 0;
             writes = 0;
             updates = 0;
             window_start = Sim.Clock.now clock;
           })
    |> Array.of_list
  in
  let t =
    {
      config;
      clock;
      pm;
      ssd;
      block_cache;
      memtable = Memtable.create ~seed:config.Config.seed clock;
      next_seq = state.Manifest.next_seq;
      partitions;
      metrics = Metrics.create ();
      memtable_seed = config.Config.seed;
      retry_rng = Util.Xoshiro.create (config.Config.seed lxor 0x7e77);
      in_foreground = false;
      wal = None;
      quarantined = state.Manifest.quarantined @ List.rev !fresh_damage;
      pipe_recording = None;
      pipe_totals = Compaction.Pipeline.create_totals ();
    }
  in
  t.metrics.Metrics.quarantined <- List.length !fresh_damage;
  (* Replay the WAL ring into the fresh memtable; the high-water mark
     includes logged writes that never reached level-0. Records that fail
     their CRC are skipped (counted, never applied) — returning a value
     assembled from rotten log bytes would be silent corruption. *)
  let fresh_ring () = Wal.create ~capacity:(wal_capacity config) pm in
  let superseded = ref None in
  (match state.Manifest.wal_region_id with
  | Some region_id -> (
      match Wal.open_existing pm ~region_id with
      | wal ->
          let stats =
            Wal.replay wal (fun entry ->
                Memtable.insert t.memtable entry;
                if entry.Util.Kv.seq >= t.next_seq then t.next_seq <- entry.seq + 1)
          in
          t.metrics.Metrics.wal_corrupt_records <- stats.Wal.corrupt_records;
          if stats.Wal.torn_tail || stats.Wal.corrupt_records > 0 then begin
            (* Never append to a damaged ring: records synced after the
               damage would be unreachable at the next replay. Re-log what
               replay recovered into a fresh ring; the old one goes once
               the manifest names its successor. *)
            let relog =
              Wal.create ~capacity:(max (Wal.capacity wal) (wal_capacity config)) pm
            in
            Memtable.iter t.memtable (Wal.append relog);
            Wal.sync relog;
            superseded := Some wal;
            t.wal <- Some relog
          end
          else t.wal <- Some wal
      | exception Failure _ when fell_back ->
          (* the fallback snapshot names a ring that was rotated away when
             its successor (now rotten) was written; the logged writes are
             in a level-0 this snapshot cannot see — report, start fresh *)
          if Obs.Trace.is_enabled () then
            Obs.Trace.instant "recover.wal_missing" ~attrs:(fun () ->
                [ ("region_id", Obs.Trace.Int region_id) ]);
          t.wal <- Some (fresh_ring ()))
  | None -> if config.Config.durable then t.wal <- Some (fresh_ring ()));
  (* The manifest as loaded names the superseded ring too, so it survives
     until it is freed below. On a shared multi-shard device one engine's
     view is too narrow to reclaim safely: shards recover with
     [~orphan_gc:false] and the router collects the union. *)
  if orphan_gc then
    gc_orphans ~pm ~ssd
      ~states:[ { state with Manifest.quarantined = t.quarantined } ]
      ~rings:(Option.to_list t.wal);
  (* Make any newly-discovered damage durable (the corrupt structures are
     out of the manifest's partition lists, their damage records in), and
     name a ring the manifest does not know yet before anything is logged
     to it. *)
  if !fresh_damage <> [] || Option.map Wal.region_id t.wal <> state.Manifest.wal_region_id
  then persist_manifest t;
  Option.iter Wal.free !superseded;
  t

let pp_wal ppf t =
  match t.wal with
  | Some w ->
      Fmt.pf ppf "wal: %a; %d ring-full flushes" Wal.pp_summary w
        t.metrics.Metrics.wal_ring_full_flushes
  | None -> Fmt.pf ppf "wal: none (not durable)"

(* One-look storage report: occupancy per tier, compaction counters, and
   write amplification. *)
let pp_stats ppf t =
  let m = t.metrics in
  let level_line j =
    let files = Array.fold_left (fun acc p -> acc + List.length p.levels.(j)) 0 t.partitions in
    let bytes = Array.fold_left (fun acc p -> acc + level_bytes p j) 0 t.partitions in
    Fmt.pf ppf "  L%d: %d files, %.1f MB@," (j + 1) files (float_of_int bytes /. 1048576.)
  in
  Fmt.pf ppf "@[<v>%s:@," t.config.Config.name;
  Fmt.pf ppf "  partitions: %d@," (Array.length t.partitions);
  Fmt.pf ppf "  memtable: %d entries, %d B@," (Memtable.count t.memtable)
    (Memtable.byte_size t.memtable);
  Fmt.pf ppf "  level-0: %d unsorted + %d sorted tables, %.1f MB of %.1f MB PM@,"
    (Array.fold_left (fun acc p -> acc + List.length p.unsorted) 0 t.partitions)
    (Array.fold_left (fun acc p -> acc + List.length p.sorted_run) 0 t.partitions)
    (float_of_int (l0_bytes t) /. 1048576.)
    (float_of_int t.config.Config.l0_capacity /. 1048576.);
  for j = 0 to Array.length t.partitions.(0).levels - 1 do
    level_line j
  done;
  let latency_line label h =
    if Util.Histogram.count h > 0 then
      Fmt.pf ppf "  %s latency p50/p99/p99.9: %a / %a / %a@," label Sim.Clock.pp_duration
        (Util.Histogram.percentile h 50.0)
        Sim.Clock.pp_duration
        (Util.Histogram.percentile h 99.0)
        Sim.Clock.pp_duration
        (Util.Histogram.percentile h 99.9)
  in
  latency_line "read" m.Metrics.read_latency;
  latency_line "write" m.Metrics.write_latency;
  latency_line "scan" m.Metrics.scan_latency;
  Fmt.pf ppf "  compactions: %d minor, %d internal, %d major@," m.Metrics.minor_compactions
    m.internal_compactions m.major_compactions;
  Fmt.pf ppf "  bytes user/PM/SSD: %d / %d / %d (WA %.2fx)@,"
    m.user_bytes_written (pm_bytes_written t) (ssd_bytes_written t)
    (write_amplification t);
  if m.Metrics.user_bytes_read > 0 then
    Fmt.pf ppf "  bytes returned/PM-read/SSD-read: %d / %d / %d (RA %.2fx)@,"
      m.user_bytes_read (pm_bytes_read t) (ssd_bytes_read t) (read_amplification t);
  Fmt.pf ppf "  compaction debt: %.1f MB in %d level-0 runs@,"
    (float_of_int (compaction_debt_bytes t) /. 1048576.)
    (compaction_debt_runs t);
  if m.Metrics.write_stalls > 0 then
    Fmt.pf ppf "  write stalls: %d totalling %a@," m.Metrics.write_stalls
      Sim.Clock.pp_duration m.Metrics.write_stall_time;
  (match t.block_cache with
  | Some c ->
      Fmt.pf ppf "  block cache: %.1f/%.1f MB resident, hit ratio %.2f (%d evictions)@,"
        (float_of_int (Cache.Block_cache.resident_bytes c) /. 1048576.)
        (float_of_int (Cache.Block_cache.capacity_bytes c) /. 1048576.)
        (Cache.Block_cache.hit_ratio c)
        (Cache.Block_cache.evictions c)
  | None -> ());
  (let probes = !Pmtable.Pm_table.bloom_probes in
   if probes > 0 then
     Fmt.pf ppf "  PM bloom: %d probes, filter rate %.2f@," probes
       (float_of_int !Pmtable.Pm_table.bloom_negatives /. float_of_int probes));
  Fmt.pf ppf "  fence rebuilds: %d@," m.Metrics.fence_rebuilds;
  if t.wal <> None then Fmt.pf ppf "  %a@," pp_wal t;
  (* Sharding knobs, when this engine runs behind the router front door:
     the perf gate and doctor must be able to tell a sharded run apart. *)
  (let c = t.config in
   if c.Config.shard_count > 1 || c.Config.manifest_root <> "" || c.Config.wal_external_sync
   then
     Fmt.pf ppf
       "  shard: %d shards, root '%s', group commit %s (window %a, max %d), admission \
        soft/hard %d/%d tables@,"
       c.Config.shard_count c.Config.manifest_root
       (if c.Config.wal_external_sync then "external" else "inline")
       Sim.Clock.pp_duration c.Config.group_commit_window_ns c.Config.group_commit_max
       c.Config.admission_soft_tables c.Config.admission_hard_tables);
  Fmt.pf ppf "  PM hit ratio: %.2f@]" (Metrics.pm_hit_ratio m)

(* One registry covering every namespace the evaluation reads: engine.*
   plus the devices' pmem.* / ssd.* counters. All readouts pull at
   exposition time; registration costs the hot paths nothing. *)
let register_metrics reg t =
  let m = t.metrics in
  let open Obs.Registry in
  register_int reg "engine.reads" ~help:"point lookups" (fun () -> m.Metrics.reads);
  register_int reg "engine.writes" ~help:"puts and deletes" (fun () -> m.Metrics.writes);
  register_int reg "engine.scans" ~help:"range scans and iterator windows" (fun () ->
      m.Metrics.scans);
  register_int reg "engine.reads_from_memtable" ~help:"reads served by the memtable"
    (fun () -> m.Metrics.reads_from_memtable);
  register_int reg "engine.reads_from_pm" ~help:"reads served by PM level-0" (fun () ->
      m.Metrics.reads_from_pm);
  register_int reg "engine.reads_from_ssd" ~help:"reads served by the SSD levels"
    (fun () -> m.Metrics.reads_from_ssd);
  register_int reg "engine.reads_not_found" ~help:"point lookups that found no value"
    (fun () -> m.Metrics.reads_not_found);
  register_float reg "engine.pm_hit_ratio" ~help:"reads served without touching the SSD"
    (fun () -> Metrics.pm_hit_ratio m);
  register_int reg "engine.user_bytes_written"
    ~help:"encoded key+value bytes accepted from the user" (fun () ->
      m.Metrics.user_bytes_written);
  register_int reg "engine.user_bytes_read"
    ~help:"key+value bytes returned to the user by gets and scans" (fun () ->
      m.Metrics.user_bytes_read);
  register_int reg "engine.minor_compactions" ~help:"memtable flushes into level-0"
    (fun () -> m.Metrics.minor_compactions);
  register_int reg "engine.internal_compactions"
    ~help:"level-0 unsorted-to-sorted merges inside PM" (fun () ->
      m.Metrics.internal_compactions);
  register_int reg "engine.major_compactions" ~help:"level-0 pushes into the SSD levels"
    (fun () -> m.Metrics.major_compactions);
  register_float reg "engine.internal_compaction_time_ns" ~kind:Counter
    ~help:"simulated ns spent in internal compaction" (fun () ->
      m.Metrics.internal_compaction_time);
  register_float reg "engine.major_compaction_time_ns" ~kind:Counter
    ~help:"simulated ns spent in major compaction" (fun () ->
      m.Metrics.major_compaction_time);
  register_float reg "engine.write_stall_ns" ~kind:Counter
    ~help:"simulated ns foreground writes spent stalled on backpressure relief"
    (fun () -> m.Metrics.write_stall_time);
  register_int reg "engine.write_stalls"
    ~help:"foreground writes that blocked on backpressure relief" (fun () ->
      m.Metrics.write_stalls);
  register_int reg "engine.ssd_retries" ~help:"transient SSD errors retried with backoff"
    (fun () -> m.Metrics.ssd_retries);
  register_int reg "engine.quarantined"
    ~help:"structures pulled from the read path on corruption" (fun () ->
      m.Metrics.quarantined);
  register_int reg "engine.degraded_reads"
    ~help:"reads/scans that crossed a quarantine" (fun () -> m.Metrics.degraded_reads);
  register_int reg "engine.salvaged" ~help:"corrupt tables rebuilt by the scrubber"
    (fun () -> m.Metrics.salvaged);
  register_int reg "engine.wal_corrupt_records"
    ~help:"rotten WAL records skipped at replay" (fun () -> m.Metrics.wal_corrupt_records);
  register_int reg "engine.fence_rebuilds"
    ~help:"fence-pointer sets rebuilt after structural changes" (fun () ->
      m.Metrics.fence_rebuilds);
  let wal_stat f = match t.wal with Some w -> f (Wal.stats w) | None -> 0 in
  register_int reg "wal.syncs" ~help:"WAL group syncs (one ring write + one fence each)"
    (fun () -> wal_stat (fun s -> s.Wal.syncs));
  register_int reg "wal.bytes" ~help:"framed WAL bytes made durable on the PM ring"
    (fun () -> wal_stat (fun s -> s.Wal.bytes));
  register_int reg "wal.lines_flushed" ~help:"cache lines the WAL wrote back (clwb)"
    (fun () -> wal_stat (fun s -> s.Wal.lines));
  register_int reg "wal.fences" ~help:"persistence fences issued by WAL syncs" (fun () ->
      wal_stat (fun s -> s.Wal.fences));
  register_int reg "wal.ring_capacity_bytes" ~kind:Gauge
    ~help:"size of the WAL's PM ring region" (fun () ->
      match t.wal with Some w -> Wal.capacity w | None -> 0);
  register_int reg "wal.ring_high_water_bytes" ~kind:Gauge
    ~help:"deepest WAL ring fill reached, across rotations" (fun () ->
      wal_stat (fun s -> s.Wal.high_water));
  register_int reg "wal.ring_full_flushes"
    ~help:"memtable flushes forced because a WAL sync would overflow the ring" (fun () ->
      m.Metrics.wal_ring_full_flushes);
  register_int reg "pmtable.bloom_probes" ~help:"gets that consulted a PM-table bloom"
    (fun () -> !Pmtable.Pm_table.bloom_probes);
  register_int reg "pmtable.bloom_negatives"
    ~help:"gets answered absent by a PM-table bloom without touching PM" (fun () ->
      !Pmtable.Pm_table.bloom_negatives);
  register_float reg "pmtable.bloom_filter_rate"
    ~help:"fraction of bloom probes answered absent without touching PM" (fun () ->
      let probes = !Pmtable.Pm_table.bloom_probes in
      if probes = 0 then 0.0
      else float_of_int !Pmtable.Pm_table.bloom_negatives /. float_of_int probes);
  register_int reg "manifest.fallback" ~help:"dual-slot manifest fallbacks at load"
    (fun () -> Manifest.fallback_count ());
  register_int reg "engine.partitions" ~kind:Gauge ~help:"live range partitions"
    (fun () -> Array.length t.partitions);
  register_int reg "engine.l0_bytes" ~kind:Gauge ~help:"PM level-0 resident bytes"
    (fun () -> l0_bytes t);
  register_int reg "engine.memtable_bytes" ~kind:Gauge
    ~help:"bytes buffered in the active memtable" (fun () ->
      Memtable.byte_size t.memtable);
  register_int reg "engine.memtable_entries" ~kind:Gauge
    ~help:"entries buffered in the active memtable" (fun () ->
      Memtable.count t.memtable);
  register_float reg "engine.write_amplification"
    ~help:"device bytes written per user byte written (WAF)" (fun () ->
      write_amplification t);
  register_float reg "engine.read_amplification"
    ~help:"device bytes read per user byte returned (RAF)" (fun () ->
      read_amplification t);
  register_int reg "engine.space_bytes" ~kind:Gauge
    ~help:"physical live bytes across PM and SSD structures" (fun () -> space_bytes t);
  register_int reg "engine.compaction_debt_bytes" ~kind:Gauge
    ~help:"level-0 backlog bytes (both media) awaiting compaction" (fun () ->
      compaction_debt_bytes t);
  register_int reg "engine.compaction_debt_runs" ~kind:Gauge
    ~help:"level-0 runs a point read may probe (unsorted PM tables, the sorted run, SSD L0 tables)"
    (fun () -> compaction_debt_runs t);
  register_histogram reg "engine.read_latency_ns" ~help:"point-lookup latency in ns"
    (fun () -> m.Metrics.read_latency);
  register_histogram reg "engine.write_latency_ns" ~help:"write latency in ns"
    (fun () -> m.Metrics.write_latency);
  register_histogram reg "engine.scan_latency_ns" ~help:"scan latency in ns" (fun () ->
      m.Metrics.scan_latency);
  Obs.Attr.register_metrics reg;
  Compaction.Pipeline.register_metrics reg t.pipe_totals;
  (match t.block_cache with
  | Some c -> Cache.Block_cache.register_metrics reg c
  | None -> ());
  (match Pmem.sanitizer t.pm with
  | Some san -> Sanitize.Pmsan.register_metrics san reg
  | None -> ());
  Pmem.register_metrics reg t.pm;
  Ssd.register_metrics reg t.ssd

let unsorted_table_count t =
  Array.fold_left (fun acc p -> acc + List.length p.unsorted) 0 t.partitions

let sorted_table_count t =
  Array.fold_left (fun acc p -> acc + List.length p.sorted_run) 0 t.partitions

let level_file_count t j =
  Array.fold_left (fun acc p -> acc + List.length p.levels.(j)) 0 t.partitions
