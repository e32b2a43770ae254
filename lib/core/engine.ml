(* The PM-Blade storage engine (§III), configuration-driven so that every
   variant of the evaluation — PMBlade, PMBlade-PM, PMBlade-SSD, the
   PMB-P/PI/PIC ablation ladder, RocksDB-like and MatrixKV-like — runs
   through the same code paths.

   Three layers, no cycle: this module is the public API (the write path,
   reads, scans, scrub, recovery, stats); [Policy] makes every level-0
   choice (Algorithm 1 after each flush, relief steps, out-of-PM room);
   [Lsm] holds the state and the mechanisms both drive (flush, compaction,
   split, manifest, quarantine), and is included here.

   Reads go memtable -> unsorted L0 (newest first) -> sorted run -> SSD L0
   (variants) -> L1..Ln, returning the first version found; every device
   touch charges the virtual clock, so an operation's latency is the clock
   delta across the call. *)

include Lsm

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

(* Transient SSD errors (injected by lib/fault, or a flaky device model)
   are retried with bounded exponential backoff before they surface; each
   retry charges the backoff to the virtual clock. Only wrap operations
   that are idempotent at the device level: reads. *)
let ssd_retry_limit = 3
let ssd_retry_backoff_ns = 100_000.0 (* 100 us, doubling per attempt *)

(* Seeded jitter decorrelates retry storms across engines that share a
   sick device: each sleep is scaled uniformly within [1 - j/2, 1 + j/2]. *)
let ssd_retry_jitter = 0.5

let rec with_ssd_retry ?(attempt = 0) t f =
  try f ()
  with Ssd.Io_error _ as e ->
    if attempt >= ssd_retry_limit then raise e
    else begin
      t.metrics.Metrics.ssd_retries <- t.metrics.Metrics.ssd_retries + 1;
      let backoff = ssd_retry_backoff_ns *. (2.0 ** float_of_int attempt) in
      let backoff =
        let j = ssd_retry_jitter in
        backoff *. (1.0 -. (j /. 2.0) +. Util.Xoshiro.float t.retry_rng j)
      in
      if Obs.Trace.is_enabled () then
        Obs.Trace.instant "engine.ssd_retry" ~attrs:(fun () ->
            [ ("attempt", Obs.Trace.Int (attempt + 1)); ("backoff_ns", Obs.Trace.Float backoff) ]);
      Sim.Clock.advance t.clock backoff;
      with_ssd_retry ~attempt:(attempt + 1) t f
    end

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

(* Is [key] inside a quarantined/salvaged structure's lost range? A [None]
   from {!get} for such a key means "possibly lost", not "never written". *)
let damaged_key (t : t) key =
  List.exists
    (fun (q : Manifest.quarantine) ->
      String.compare q.q_lo key <= 0 && String.compare key q.q_hi <= 0)
    t.quarantined

let quarantined (t : t) = t.quarantined

(* --- Minor compaction (memtable flush) --------------------------------- *)

(* The one out-of-PM loop: run [f], and when PM runs out let the policy
   make room and run [f] again. [f] must leave level-0 as it was when it
   raises; the bound keeps a device too small for one table from spinning
   forever. *)
let with_room t f =
  let rec go attempts =
    try f ()
    with Pmem.Out_of_space _ when attempts < 32 ->
      Policy.make_room t;
      go (attempts + 1)
  in
  go 0

(* Each partition's slice is built and installed, then Algorithm 1 runs on
   the partition. A failure part-way puts the slices not yet installed back
   into the fresh memtable, so an Out_of_space never drops an acknowledged
   write: the retry flushes them. A flush interrupted after its last slice
   left the log unrotated; the retry finds the memtable empty and finishes
   the split, rotation and manifest install. *)
let flush_memtable t =
  let unrotated = match t.wal with Some w -> Wal.entry_count w > 0 | None -> false in
  if not (Memtable.is_empty t.memtable) || unrotated then begin
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
    if not (Memtable.is_empty t.memtable) then begin
      let entries = Memtable.to_list t.memtable in
      t.memtable_seed <- t.memtable_seed + 1;
      t.memtable <- Memtable.create ~seed:t.memtable_seed t.clock;
      t.metrics.Metrics.minor_compactions <- t.metrics.Metrics.minor_compactions + 1;
      let put_back pending =
        List.iter (fun (_, slice) -> List.iter (Memtable.insert t.memtable) slice) pending
      in
      let rec go = function
        | [] -> ()
        | (p, slice) :: rest as pending ->
            (try flush_slice t p slice
             with e ->
               put_back pending;
               raise e);
            (* Compaction reads whole tables; a corrupt one is quarantined
               and the step retried against the survivors (the merge inputs
               are materialised before any structure is freed, so a retry
               starts clean). *)
            (try ignore (guard_integrity t (fun () -> Policy.step t p))
             with e ->
               put_back rest;
               raise e);
            go rest
      in
      go (slices t entries)
    end;
    maybe_split t;
    (* The flushed data is durable in level-0: retire the old log and
       record the new structure. A fresh ring needs PM room like any
       level-0 table; when there is none, the retry rotates it. *)
    (match t.wal with Some w -> Wal.rotate w | None -> ());
    persist_manifest t
  end

let flush t = with_room t (fun () -> flush_memtable t)

(* --- Write path --------------------------------------------------------- *)

(* Flush the memtable on the foreground path. The write blocks until
   level-0 has room: everything from here to the flush's return is stall
   time, whatever mix of flush and emergency compaction it took to clear
   the backlog. *)
let flush_in_foreground t =
  t.in_foreground <- true;
  let stall0 = Sim.Clock.now t.clock in
  Obs.Attr.with_phase Obs.Attr.Stall_wait (fun () ->
      Fun.protect ~finally:(fun () -> t.in_foreground <- false) (fun () -> flush t));
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
  (* The record stays staged: the write is durable, and may be
     acknowledged, only after the shard's group committer runs
     [sync_wal]. *)
  if Memtable.byte_size t.memtable >= t.config.Config.memtable_bytes then
    flush_in_foreground t;
  Metrics.note_write t.metrics (Sim.Clock.now t.clock -. t0)

let memtable_bytes t = Memtable.byte_size t.memtable
let memtable_entries t = Memtable.count t.memtable

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

(* A disjoint structure's tables must be strictly ordered — overlap here
   means a compaction or split bug that the fence search would silently
   turn into wrong answers, so fail loudly at rebuild time instead. *)
let assert_disjoint what p_idx n ~min_of ~max_of =
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
let find_in_pm p f key =
  (* Mutually-overlapping stack: recency order is the correctness rule, so
     the walk stays linear (each table's min/max and bloom still screen it
     before any PM group read). *)
  let from_unsorted =
    List.find_map
      (fun tbl ->
        (* Under the matrix container, a row's keys below its watermark
           have moved to L1 already: skip the row for those probes. Every
           other row's watermark is "", and no key sorts below "". *)
        if String.compare key (matrix_wm_of p tbl) < 0 then None
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
  match find_in_pm p f key with
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
        | None -> find_in_pm p (fences_of t p) key)
  in
  match (found, hit) with
  | Some e, [] -> `Hit (visible (Some e))
  | _ -> `Miss

(* Device footprint of this engine, for shard-scoped fault injection and
   health attribution: which SSD files and PM regions a gray fault on this
   engine's range would touch. *)
let owned_file_ids t =
  Array.to_list t.partitions
  |> List.concat_map (fun p -> p.ssd_l0 @ List.concat (Array.to_list p.levels))
  |> List.map Sstable.file_id |> List.sort_uniq compare

let owned_region_ids t =
  Array.to_list t.partitions
  |> List.concat_map (fun p -> List.map Pmtable.Table.region_id (p.unsorted @ p.sorted_run))
  |> List.append (Option.to_list (Option.map Wal.region_id t.wal))
  |> List.sort_uniq compare

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

(* Forced compactions meet rot like any other: quarantine and retry. An
   internal compaction that runs out of PM lets the policy make room. *)
let force_internal_compaction t =
  Array.iter
    (fun p ->
      if p.unsorted <> [] then
        with_room t (fun () -> ignore (guard_integrity t (fun () -> internal_compaction t p))))
    t.partitions;
  persist_manifest t

let force_major_compaction t =
  Array.iter
    (fun p ->
      if partition_l0_bytes p > 0 || p.ssd_l0 <> [] then
        ignore (guard_integrity t (fun () -> major_compact_partition t p)))
    t.partitions;
  persist_manifest t

(* The level-0 policy's entry points, for callers that hold an engine. *)
type relief = Policy.relief = Internal | Major

let pressure = Policy.pressure
let partition_pressure = Policy.partition_pressure
let relieve = Policy.relieve

(* --- Scrub & salvage ----------------------------------------------------

   Walk every live table re-verifying checksums from the medium (around the
   DRAM caches — pinned indexes outlive rot), then repair what failed:
   salvage rebuilds a corrupt table from its surviving blocks and records
   the conservatively-bounded lost key range; with [salvage:false] the
   table is merely quarantined. *)

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

let scrub ?(salvage = true) t =
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
                (Pmtable.Table.of_sorted_list t.pm ~kind:(Pmtable.Table.kind tbl) entries)
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
let gc_orphans ~pm ~ssd ~states =
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
    Obs.Trace.instant "recover.gc_orphans" ~attrs:(fun () ->
        [
          ("pm_regions", Obs.Trace.Int (List.length orphan_regions));
          ("ssd_files", Obs.Trace.Int (List.length orphan_files));
        ])

let recover ?cache ~manifest_root config ~pm ~ssd =
  let clock = Pmem.clock pm in
  let block_cache = match cache with Some _ -> cache | None -> new_block_cache clock config in
  let fallbacks_before = Manifest.fallback_count () in
  let state =
    match Manifest.load ~root:manifest_root ssd with
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
      manifest_root;
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
  (* Orphans are not collected here: on a shared device one engine's view
     is too narrow, so [Router.recover] runs [gc_orphans] once over every
     shard's state. *)
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
  Metrics.pp_latencies ppf ~read:m.Metrics.read_latency ~write:m.Metrics.write_latency
    ~scan:m.Metrics.scan_latency;
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
    (Policy.pressure t);
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
   if c.Config.shard_count > 1 || t.manifest_root <> "" || c.Config.durable then
     Fmt.pf ppf
       "  shard: %d shards, root '%s', group commit %s (window %a, max %d), admission \
        soft/hard %d/%d tables@,"
       c.Config.shard_count t.manifest_root
       (if c.Config.durable then "external" else "inline")
       Sim.Clock.pp_duration c.Config.group_commit_window_ns c.Config.group_commit_max
       c.Config.admission_soft_tables c.Config.admission_hard_tables);
  Fmt.pf ppf "  PM hit ratio: %.2f@]" (Metrics.pm_hit_ratio m)

let unsorted_table_count t =
  Array.fold_left (fun acc p -> acc + List.length p.unsorted) 0 t.partitions

let sorted_table_count t =
  Array.fold_left (fun acc p -> acc + List.length p.sorted_run) 0 t.partitions

let level_file_count t j =
  Array.fold_left (fun acc p -> acc + List.length p.levels.(j)) 0 t.partitions
