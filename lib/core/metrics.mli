(** Engine-level measurements backing the evaluation figures: latency
    histograms per operation class, read-source accounting (Fig. 8b's PM
    hit ratio), and compaction counters/durations. Device-level write
    amplification comes from {!Pmem.stats} / {!Ssd.stats}. *)

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
  mutable user_bytes_read : int;
      (** key+value bytes returned to the user by gets/scans *)
  mutable minor_compactions : int;
  mutable internal_compactions : int;
  mutable major_compactions : int;
  mutable internal_compaction_time : float;
  mutable major_compaction_time : float;
  mutable write_stall_time : float;
  mutable write_stalls : int;
      (** foreground writes that blocked on backpressure relief *)
  mutable ssd_retries : int;
      (** transient SSD I/O errors retried with backoff *)
  mutable quarantined : int;
      (** structures pulled from the read path on corruption *)
  mutable degraded_reads : int;
      (** reads/scans that hit a quarantine (surfaced as typed errors) *)
  mutable salvaged : int;
      (** corrupt tables rebuilt from their surviving blocks *)
  mutable wal_corrupt_records : int;
      (** rotten WAL records skipped at replay *)
  mutable wal_ring_full_flushes : int;
      (** memtable flushes forced because a WAL sync would overflow the ring *)
  mutable fence_rebuilds : int;
      (** fence-pointer sets rebuilt after structural changes *)
}

val create : unit -> t
val note_read : t -> source -> float -> unit

val note_write : t -> float -> unit
(** Count one write and record its latency. *)

val note_scan : t -> float -> unit
(** Count one scan and record its latency. *)

val pm_hit_ratio : t -> float
(** Fraction of successful reads answered without touching the SSD. *)

val reset_read_sources : t -> unit

val sum : t list -> t
(** [sum ms] is fresh books adding up every counter and merging every
    histogram of [ms] (the shards of one router). *)

val pp_latencies :
  Format.formatter ->
  read:Util.Histogram.t ->
  write:Util.Histogram.t ->
  scan:Util.Histogram.t ->
  unit
(** One [p50/p99/p99.9] line per non-empty histogram, for [pp_stats]. *)
