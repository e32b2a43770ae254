(* The engine's state and the mechanisms that move data through it (see
   lsm.mli). Nothing here decides when or where level-0 data moves: that
   is [Policy]. Within a partition, level-0 holds a stack of *unsorted*
   tables (mutually overlapping, newest first) plus one *sorted run*
   (key-disjoint tables); below it sit the SSD levels L1..Ln (levelled,
   ratio 10). *)

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
  (* named superblock root slot this engine's manifest chain persists
     under; "" is the classic unnamed pair. Router shards use "shard<i>" so
     N manifest chains coexist on the shared SSD. *)
  manifest_root : string;
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
     triggered inside it charge only [background_share] of their duration
     to the operation's timeline *)
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

let max_key_sentinel = "\xff\xff\xff\xff\xff\xff\xff\xff"

(* SSD level shape: each level [level_ratio] times its parent's target;
   [bottom_level] is the deepest level index (1-based), where tombstones
   drop. *)
let level_ratio = 10
let bottom_level = 3

(* --- Construction ---------------------------------------------------- *)

let wal_capacity config = Wal.ring_bytes ~memtable_bytes:config.Config.memtable_bytes

(* The engine-wide SSTable block cache of [config.block_cache_mb]. *)
let new_block_cache clock config =
  if config.Config.block_cache_mb > 0 then
    Some
      (Cache.Block_cache.create ~clock
         ~capacity_bytes:(config.Config.block_cache_mb * 1024 * 1024) ())
  else None

let config t = t.config
let manifest_root t = t.manifest_root
let clock t = t.clock
let pm t = t.pm
let ssd t = t.ssd
let metrics t = t.metrics
let wal t = t.wal
let block_cache t = t.block_cache

(* Every SSTable the engine creates reads through the shared cache (when
   one is configured); tables built elsewhere (tests, tools) stay
   cache-less unless attached explicitly. *)
let attach_cache t sst =
  (match t.block_cache with
  | Some c -> Sstable.attach_shared_cache sst c
  | None -> ());
  sst

let new_sst t entries = attach_cache t (Sstable.of_sorted_list t.ssd entries)

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
    let result = Fun.protect ~finally:(fun () -> t.pipe_recording <- saved) f in
    if Compaction.Pipeline.has_overlap_work r then begin
      let res = Compaction.Pipeline.simulate (pipeline_sim_config t) r in
      let rebate =
        Float.max 0.0 (res.Compaction.Pipeline.sim_serial_ns -. res.Compaction.Pipeline.makespan)
      in
      if rebate > 0.0 then Sim.Clock.rewind t.clock rebate;
      Compaction.Pipeline.note_result t.pipe_totals res ~rebate_ns:rebate
    end;
    result
  end

(* Read-stage section: [f] opens one input run of [bytes] payload; its
   clock delta becomes a read token on [medium]. *)
let staged_read t ~medium ~bytes f =
  match t.pipe_recording with
  | None -> f ()
  | Some r ->
      Compaction.Pipeline.with_stage Compaction.Pipeline.Read @@ fun () ->
      let t0 = Sim.Clock.now t.clock in
      let run = f () in
      Compaction.Pipeline.record_read r medium ~bytes:(bytes run)
        ~cost_ns:(Sim.Clock.now t.clock -. t0);
      run

(* A PM input run, materialised by [f]. *)
let read_pm t f =
  staged_read t ~medium:Compaction.Pipeline.Pm
    ~bytes:(List.fold_left (fun acc e -> acc + Util.Kv.encoded_size e) 0)
    f

(* An SSTable input, streamed through its cursor. *)
let read_sst t sst =
  staged_read t ~medium:Compaction.Pipeline.Ssd
    ~bytes:(fun _ -> Sstable.payload_bytes sst)
    (fun () ->
      let c = Sstable.cursor sst in
      fun () -> Sstable.next c)

(* Merge-stage section around a [Compaction.Merge] call. *)
let staged_merge t f =
  match t.pipe_recording with
  | None -> f ()
  | Some r ->
      Compaction.Pipeline.with_stage Compaction.Pipeline.Merge @@ fun () ->
      let t0 = Sim.Clock.now t.clock in
      let out, stats = f () in
      Compaction.Pipeline.record_merge r ~cost_ns:(Sim.Clock.now t.clock -. t0);
      (out, stats)

let write_sst t img = attach_cache t (Sstable.write_image img)

(* Write section for one output SSTable image: the SSD write time of the
   section is the write token, the remainder (the sealing barrier) a
   build token. Runs under the Write frame so the ssd.write crash sites
   it reaches are tagged with the stage that issues them. *)
let staged_write_sst t img =
  match t.pipe_recording with
  | None -> write_sst t img
  | Some r ->
      let wr0 = (Ssd.stats t.ssd).Ssd.write_time in
      let t0 = Sim.Clock.now t.clock in
      let sst =
        Compaction.Pipeline.with_stage Compaction.Pipeline.Write (fun () -> write_sst t img)
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
  let build () = Pmtable.Table.of_sorted_list t.pm ~kind:t.config.Config.table_kind slice in
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

(* Merge [sources] straight into target-sized SSTable images in DRAM:
   [split_run]'s cut rule, applied as entries arrive. The images touch no
   device and charge no time, so the merge stage's cost is the merge's
   alone and the build stage gets only the sealing barriers. *)
let merge_to_images t ~drop_tombstones sources =
  let cut = Compaction.Merge.cutter ~target_bytes:t.config.Config.sstable_target_bytes in
  let images = ref [] and current = ref None in
  let close () = Option.iter (fun b -> images := Sstable.finish_image b :: !images) !current in
  let emit e =
    if Compaction.Merge.starts_slice cut e then begin
      close ();
      current := Some (Sstable.create_builder t.ssd)
    end;
    Option.iter (fun b -> Sstable.add b e) !current
  in
  let (), _stats =
    staged_merge t (fun () ->
        ((), Compaction.Merge.merge_stream ~drop_tombstones ~clock:t.clock sources emit))
  in
  close ();
  List.rev !images

(* Write merged images into level [j] of partition [p], in order, removing
   the inputs they replace. *)
let write_images t p ~into_level ~replaced images =
  let fresh = List.map (staged_write_sst t) images in
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
        let sources = read_sst t seed :: List.map (read_sst t) overlapping in
        let images = merge_to_images t ~drop_tombstones sources in
        install_level p j ~removed:[ seed ] ~fresh:[];
        write_images t p ~into_level:(j + 1) ~replaced:overlapping images;
        cascade t p (j + 1)
  end

(* --- Internal compaction (§IV-B) -------------------------------------- *)

(* Compactions run on background cores: the foreground operation that
   triggered one observes only this share of its duration (interference
   and backpressure), like RocksDB's background jobs. *)
let background_share = 0.3

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
        let read_pm tbl = read_pm t (fun () -> Pmtable.Table.to_list tbl) in
        let runs = List.map read_pm p.unsorted @ List.map read_pm p.sorted_run in
        let merged, _stats =
          staged_merge t (fun () ->
              Compaction.Merge.merge ~drop_tombstones:false ~clock:t.clock runs)
        in
        let slices =
          Compaction.Merge.split_run ~target_bytes:t.config.Config.l0_run_table_bytes merged
        in
        (* Build the new run before freeing the old tables (they are the merge
           inputs); if PM runs out mid-build, release the partial output so
           level-0 is as it was. *)
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
      Sim.Clock.rewind t.clock ((1.0 -. background_share) *. duration))

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
    Sim.Clock.rewind t.clock ((1.0 -. background_share) *. duration);
  result

let matrix_wm_of p row = match List.assq_opt row p.matrix_wms with Some wm -> wm | None -> ""

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
      let read_row f = Compaction.Merge.of_list (read_pm t f) in
      let l0_runs =
        List.map (fun tbl -> read_row (fun () -> live_row tbl)) p.unsorted
        @ List.map (fun tbl -> read_row (fun () -> Pmtable.Table.to_list tbl)) p.sorted_run
        @ List.map (read_sst t) p.ssd_l0
      in
      if l0_runs <> [] then begin
        let lo = p.lo and hi = p.hi in
        let overlapping = p.levels.(0) in
        let drop_tombstones = is_bottom_for p ~into_level:0 ~lo ~hi in
        let sources = l0_runs @ List.map (read_sst t) overlapping in
        let images = merge_to_images t ~drop_tombstones sources in
        List.iter Pmtable.Table.free p.unsorted;
        List.iter Pmtable.Table.free p.sorted_run;
        List.iter Sstable.delete p.ssd_l0;
        p.unsorted <- [];
        p.sorted_run <- [];
        p.ssd_l0 <- [];
        p.matrix_wms <- [];
        write_images t p ~into_level:0 ~replaced:overlapping images;
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
              read_pm t @@ fun () ->
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
             let overlapping_runs = List.map (read_sst t) overlapping in
             let images =
               merge_to_images t ~drop_tombstones
                 (Compaction.Merge.of_list column :: overlapping_runs)
             in
             write_images t p ~into_level:0 ~replaced:overlapping images;
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

(* Cut partition [p] at [key] into [p] and a fresh partition above it.
   Tables wholly on one side move; a straddling table is read back and
   rebuilt as two (charged like a small internal compaction). Every half is
   built before any straddling table is retired, so a failed build (PM out
   of space, say) frees the halves built so far and leaves [p] exactly as
   it was. *)
let split_partition t p key =
  let built_pm = ref [] and built_sst = ref [] in
  let retired_pm = ref [] and retired_sst = ref [] in
  (* The two halves of a straddling table's [entries], each recorded in
     [built] so a later failure can free it. *)
  let cut ~build ~built entries =
    let left, right =
      List.partition (fun (e : Util.Kv.entry) -> String.compare e.key key < 0) entries
    in
    let half slice =
      if slice = [] then []
      else begin
        let h = build slice in
        built := h :: !built;
        [ h ]
      end
    in
    let fresh_left = half left and fresh_right = half right in
    (fresh_left, fresh_right)
  in
  (* Matrix rows carry watermarks: entries below a row's watermark already
     live in L1, so a rebuilt (straddling) row must drop them physically —
     otherwise stale versions would resurface under the halves' watermark
     bookkeeping. Intact rows keep their watermark association; a table
     without one (every sorted-run table) has watermark "", which no key
     sorts below. *)
  let cut_pm tbl (ls, rs, wms) =
    let wm = matrix_wm_of p tbl in
    if String.compare (Pmtable.Table.max_key tbl) key < 0 then (tbl :: ls, rs, (tbl, wm) :: wms)
    else if String.compare (Pmtable.Table.min_key tbl) key >= 0 then
      (ls, tbl :: rs, (tbl, wm) :: wms)
    else begin
      let build = Pmtable.Table.of_sorted_list t.pm ~kind:(Pmtable.Table.kind tbl) in
      let fresh_left, fresh_right =
        Pmtable.Table.to_list tbl
        |> List.filter (fun (e : Util.Kv.entry) -> String.compare e.key wm >= 0)
        |> cut ~build ~built:built_pm
      in
      retired_pm := tbl :: !retired_pm;
      ( fresh_left @ ls,
        fresh_right @ rs,
        List.map (fun half -> (half, wm)) (fresh_left @ fresh_right) @ wms )
    end
  in
  let cut_sst sst (ls, rs) =
    if String.compare (Sstable.max_key sst) key < 0 then (sst :: ls, rs)
    else if String.compare (Sstable.min_key sst) key >= 0 then (ls, sst :: rs)
    else begin
      let fresh_left, fresh_right = cut ~build:(new_sst t) ~built:built_sst (Sstable.to_list sst) in
      retired_sst := sst :: !retired_sst;
      (fresh_left @ ls, fresh_right @ rs)
    end
  in
  let (unsorted_l, unsorted_r, wms), (sorted_l, sorted_r, _), (ssd_l, ssd_r), levels =
    try
      let unsorted = List.fold_right cut_pm p.unsorted ([], [], []) in
      let sorted = List.fold_right cut_pm p.sorted_run ([], [], []) in
      let ssd = List.fold_right cut_sst p.ssd_l0 ([], []) in
      (unsorted, sorted, ssd, Array.map (fun level -> List.fold_right cut_sst level ([], [])) p.levels)
    with e ->
      List.iter Pmtable.Table.free !built_pm;
      List.iter Sstable.delete !built_sst;
      raise e
  in
  List.iter Pmtable.Table.free (List.rev !retired_pm);
  List.iter Sstable.delete (List.rev !retired_sst);
  let wm_of tbl = match List.assq_opt tbl wms with Some wm -> wm | None -> "" in
  let fresh =
    {
      idx = p.idx + 1;
      lo = key;
      hi = p.hi;
      unsorted = unsorted_r;
      sorted_run = sorted_r;
      ssd_l0 = ssd_r;
      levels = Array.map snd levels;
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
  p.levels <- Array.map fst levels;
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

(* --- Minor compaction (one memtable slice) ------------------------------ *)

(* A flushed memtable's entries (sorted) grouped into per-partition
   slices, each still sorted. The flush visits them in this list's order,
   the grouping table's iteration order, which is deterministic. *)
let slices t entries =
  let by_partition = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let p = partition_of t e.Util.Kv.key in
      let slice = try Hashtbl.find by_partition p.idx with Not_found -> [] in
      Hashtbl.replace by_partition p.idx (e :: slice))
    entries;
  Hashtbl.fold (fun idx rev_slice acc -> (t.partitions.(idx), List.rev rev_slice) :: acc)
    by_partition []
  |> List.rev

(* Build partition [p]'s level-0 table from its slice and put it on top of
   the stack. A failed build leaves the partition as it was. *)
let flush_slice t p slice =
  match t.config.Config.l0_medium with
  | Config.L0_pm ->
      let bytes = List.fold_left (fun acc e -> acc + Util.Kv.encoded_size e) 0 slice in
      (* MatrixKV's matrix container pays extra construction cost
         (cross-hint indexing) on every flush. *)
      if t.config.Config.matrix_flush_overhead_ns_per_byte > 0.0 then
        Sim.Clock.advance t.clock
          (float_of_int bytes *. t.config.Config.matrix_flush_overhead_ns_per_byte);
      p.unsorted <-
        Pmtable.Table.of_sorted_list t.pm ~kind:t.config.Config.table_kind slice :: p.unsorted
  | Config.L0_ssd -> p.ssd_l0 <- new_sst t slice :: p.ssd_l0

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
    Manifest.persist ~root:t.manifest_root t.ssd (manifest_state t);
    (* the manifest now references the current PM tables: all of them must
       be fenced or a crash here recovers into unpersisted bytes *)
    Pmem.commit_point t.pm "manifest.install"
  end

(* The engine starts with a single partition covering the whole keyspace
   and splits partitions at their data median as they grow (see
   maybe_split), up to [config.partition_count]. Explicit [boundaries]
   pre-create the partitioning instead. A durable engine records its
   (empty) structure at once, so recovery works before the first flush. *)
let create ?(boundaries = []) ?pm ?ssd ?cache ?(manifest_root = "") config =
  (* Shards pass shared [pm]/[ssd]/[cache] devices; the clock is then the
     devices' clock so every shard charges time to the same timeline. *)
  let clock = match pm with Some p -> Pmem.clock p | None -> Sim.Clock.create () in
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
    match pm with Some p -> p | None -> Pmem.create ~params:config.Config.pm_params clock
  in
  let ssd =
    match ssd with Some s -> s | None -> Ssd.create ~params:config.Config.ssd_params clock
  in
  let t =
    {
      config;
      manifest_root;
      clock;
      pm;
      ssd;
      block_cache = (match cache with Some _ -> cache | None -> new_block_cache clock config);
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
  in
  if config.Config.durable then persist_manifest t;
  t

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
