(* Engine-level measurements backing the evaluation figures: latency
   histograms per operation class, device write amplification, where reads
   were served from (the PM hit ratio of Fig. 8b), and compaction
   counters/durations. *)

type source = From_memtable | From_pm_l0 | From_ssd_l0 | From_level of int | Not_found_

type t = {
  read_latency : Util.Histogram.t;
  write_latency : Util.Histogram.t;
  scan_latency : Util.Histogram.t;
  mutable reads : int;
  mutable writes : int;
  mutable scans : int;
  mutable reads_from_memtable : int;
  mutable reads_from_pm : int;
  mutable reads_from_ssd : int;
  mutable reads_not_found : int;
  mutable user_bytes_written : int;
  mutable user_bytes_read : int;  (* key+value bytes returned to the user *)
  mutable minor_compactions : int;
  mutable internal_compactions : int;
  mutable major_compactions : int;
  mutable internal_compaction_time : float;
  mutable major_compaction_time : float;
  mutable write_stall_time : float;
  mutable write_stalls : int;  (* foreground writes that blocked on backpressure *)
  mutable ssd_retries : int;  (* transient SSD I/O errors retried with backoff *)
  mutable quarantined : int;  (* structures pulled from the read path on corruption *)
  mutable degraded_reads : int;  (* reads/scans that hit a quarantine (typed error) *)
  mutable salvaged : int;  (* corrupt tables rebuilt from their surviving blocks *)
  mutable wal_corrupt_records : int;  (* rotten WAL records skipped at replay *)
  mutable wal_ring_full_flushes : int;  (* memtable flushes forced by a full WAL ring *)
  mutable fence_rebuilds : int;  (* fence-pointer sets rebuilt after structural changes *)
}

let create () =
  {
    read_latency = Util.Histogram.create ();
    write_latency = Util.Histogram.create ();
    scan_latency = Util.Histogram.create ();
    reads = 0;
    writes = 0;
    scans = 0;
    reads_from_memtable = 0;
    reads_from_pm = 0;
    reads_from_ssd = 0;
    reads_not_found = 0;
    user_bytes_written = 0;
    user_bytes_read = 0;
    minor_compactions = 0;
    internal_compactions = 0;
    major_compactions = 0;
    internal_compaction_time = 0.0;
    major_compaction_time = 0.0;
    write_stall_time = 0.0;
    write_stalls = 0;
    ssd_retries = 0;
    quarantined = 0;
    degraded_reads = 0;
    salvaged = 0;
    wal_corrupt_records = 0;
    wal_ring_full_flushes = 0;
    fence_rebuilds = 0;
  }

let note_write t latency =
  t.writes <- t.writes + 1;
  Util.Histogram.record t.write_latency latency

let note_scan t latency =
  t.scans <- t.scans + 1;
  Util.Histogram.record t.scan_latency latency

let note_read t source latency =
  t.reads <- t.reads + 1;
  Util.Histogram.record t.read_latency latency;
  match source with
  | From_memtable -> t.reads_from_memtable <- t.reads_from_memtable + 1
  | From_pm_l0 -> t.reads_from_pm <- t.reads_from_pm + 1
  | From_ssd_l0 | From_level _ -> t.reads_from_ssd <- t.reads_from_ssd + 1
  | Not_found_ -> t.reads_not_found <- t.reads_not_found + 1

(* Fig. 8b's metric: reads answered without touching the SSD. *)
let pm_hit_ratio t =
  let found = t.reads_from_memtable + t.reads_from_pm + t.reads_from_ssd in
  if found = 0 then 0.0
  else float_of_int (t.reads_from_memtable + t.reads_from_pm) /. float_of_int found

let reset_read_sources t =
  t.reads_from_memtable <- 0;
  t.reads_from_pm <- 0;
  t.reads_from_ssd <- 0;
  t.reads_not_found <- 0

(* Several engines' books as one: counters added, histograms merged. *)
let sum ms =
  let r = create () in
  List.iter
    (fun m ->
      Util.Histogram.merge r.read_latency m.read_latency;
      Util.Histogram.merge r.write_latency m.write_latency;
      Util.Histogram.merge r.scan_latency m.scan_latency;
      r.reads <- r.reads + m.reads;
      r.writes <- r.writes + m.writes;
      r.scans <- r.scans + m.scans;
      r.reads_from_memtable <- r.reads_from_memtable + m.reads_from_memtable;
      r.reads_from_pm <- r.reads_from_pm + m.reads_from_pm;
      r.reads_from_ssd <- r.reads_from_ssd + m.reads_from_ssd;
      r.reads_not_found <- r.reads_not_found + m.reads_not_found;
      r.user_bytes_written <- r.user_bytes_written + m.user_bytes_written;
      r.user_bytes_read <- r.user_bytes_read + m.user_bytes_read;
      r.minor_compactions <- r.minor_compactions + m.minor_compactions;
      r.internal_compactions <- r.internal_compactions + m.internal_compactions;
      r.major_compactions <- r.major_compactions + m.major_compactions;
      r.internal_compaction_time <- r.internal_compaction_time +. m.internal_compaction_time;
      r.major_compaction_time <- r.major_compaction_time +. m.major_compaction_time;
      r.write_stall_time <- r.write_stall_time +. m.write_stall_time;
      r.write_stalls <- r.write_stalls + m.write_stalls;
      r.ssd_retries <- r.ssd_retries + m.ssd_retries;
      r.quarantined <- r.quarantined + m.quarantined;
      r.degraded_reads <- r.degraded_reads + m.degraded_reads;
      r.salvaged <- r.salvaged + m.salvaged;
      r.wal_corrupt_records <- r.wal_corrupt_records + m.wal_corrupt_records;
      r.wal_ring_full_flushes <- r.wal_ring_full_flushes + m.wal_ring_full_flushes;
      r.fence_rebuilds <- r.fence_rebuilds + m.fence_rebuilds)
    ms;
  r

let pp_latencies ppf ~read ~write ~scan =
  List.iter
    (fun (label, h) ->
      if Util.Histogram.count h > 0 then
        Fmt.pf ppf "  %s latency p50/p99/p99.9: %a / %a / %a@," label Sim.Clock.pp_duration
          (Util.Histogram.percentile h 50.0)
          Sim.Clock.pp_duration
          (Util.Histogram.percentile h 99.0)
          Sim.Clock.pp_duration
          (Util.Histogram.percentile h 99.9))
    [ ("read", read); ("write", write); ("scan", scan) ]
