(* Measurement wrapper: runs a workload step function against an engine and
   aggregates what the figures need — throughput over simulated time and
   the engine's latency/WA/hit-ratio counters. *)

type summary = {
  ops : int;
  sim_seconds : float;
  throughput : float;  (* ops per simulated second *)
  read_avg_ns : float;
  read_p999_ns : float;
  write_avg_ns : float;
  scan_avg_ns : float;
  pm_hit_ratio : float;
  user_bytes : int;
  pm_bytes_written : int;
  ssd_bytes_written : int;
}

let measure engine ~ops step =
  let clock = Core.Engine.clock engine in
  let metrics = Core.Engine.metrics engine in
  let t0 = Sim.Clock.now clock in
  for i = 0 to ops - 1 do
    step i
  done;
  let elapsed = Sim.Clock.now clock -. t0 in
  {
    ops;
    sim_seconds = Sim.Clock.to_s elapsed;
    throughput = (if elapsed <= 0.0 then 0.0 else float_of_int ops /. Sim.Clock.to_s elapsed);
    read_avg_ns = Util.Histogram.mean metrics.Core.Metrics.read_latency;
    read_p999_ns = Util.Histogram.percentile metrics.Core.Metrics.read_latency 99.9;
    write_avg_ns = Util.Histogram.mean metrics.Core.Metrics.write_latency;
    scan_avg_ns = Util.Histogram.mean metrics.Core.Metrics.scan_latency;
    pm_hit_ratio = Core.Metrics.pm_hit_ratio metrics;
    user_bytes = Core.Engine.user_bytes engine;
    pm_bytes_written = Core.Engine.pm_bytes_written engine;
    ssd_bytes_written = Core.Engine.ssd_bytes_written engine;
  }
