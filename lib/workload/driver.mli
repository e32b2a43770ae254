(** Measurement wrapper: runs a workload step function against an engine and
    aggregates throughput over simulated time plus the engine's
    latency / write-amplification / PM-hit counters. *)

type summary = {
  ops : int;
  sim_seconds : float;
  throughput : float;
  read_avg_ns : float;
  read_p999_ns : float;
  write_avg_ns : float;
  scan_avg_ns : float;
  pm_hit_ratio : float;
  user_bytes : int;
  pm_bytes_written : int;
  ssd_bytes_written : int;
}

val measure : Core.Engine.t -> ops:int -> (int -> unit) -> summary
(** [measure engine ~ops step] calls [step i] for each operation index and
    summarises the run. *)
