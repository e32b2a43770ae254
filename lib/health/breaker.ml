(* Circuit breaker over one shard's device neighbourhood.

   Closed admits traffic and counts outcomes over a small sliding window.
   Consecutive failures or a windowed error rate past threshold trip it
   Open; Open rejects instantly (the caller converts the rejection into a
   typed degraded/unavailable answer instead of queueing behind a sick
   device) until a cooldown on the virtual clock elapses. Then Half_open
   admits probe traffic: a run of successful probes closes the breaker, a
   single probe failure re-opens it and restarts the cooldown.

   "Failure" is whatever the caller says it is — an I/O exception, or an
   operation whose latency blew past the tracker's slow-factor threshold.
   The breaker only keeps the state machine; the diagnosis lives with the
   caller, which can see both errors and gray slowness. *)

type state = Closed | Open | Half_open
type decision = Allow | Probe | Reject

type config = {
  window : int;
  failure_threshold : int;
  error_rate : float;
  cooldown_ns : float;
  half_open_probes : int;
}

let default_config =
  {
    window = 32;
    failure_threshold = 4;
    error_rate = 0.5;
    cooldown_ns = 10_000_000.0;
    half_open_probes = 3;
  }

type t = {
  config : config;
  clock : Sim.Clock.t;
  ring : bool array; (* true = failure *)
  mutable ring_len : int;
  mutable ring_pos : int;
  mutable ring_errs : int;
  mutable consec_failures : int;
  mutable state : state;
  mutable opened_at : float;
  mutable probe_successes : int;
  mutable trips : int;
  mutable rejections : int;
}

let create ?(config = default_config) clock =
  {
    config;
    clock;
    ring = Array.make (max 1 config.window) false;
    ring_len = 0;
    ring_pos = 0;
    ring_errs = 0;
    consec_failures = 0;
    state = Closed;
    opened_at = 0.0;
    probe_successes = 0;
    trips = 0;
    rejections = 0;
  }

let state t = t.state
let trips t = t.trips
let rejections t = t.rejections

let error_rate t =
  if t.ring_len = 0 then 0.0
  else float_of_int t.ring_errs /. float_of_int t.ring_len

let push t failed =
  let cap = Array.length t.ring in
  if t.ring_len = cap then begin
    if t.ring.(t.ring_pos) then t.ring_errs <- t.ring_errs - 1
  end
  else t.ring_len <- t.ring_len + 1;
  t.ring.(t.ring_pos) <- failed;
  if failed then t.ring_errs <- t.ring_errs + 1;
  t.ring_pos <- (t.ring_pos + 1) mod cap

let reset_window t =
  Array.fill t.ring 0 (Array.length t.ring) false;
  t.ring_len <- 0;
  t.ring_pos <- 0;
  t.ring_errs <- 0;
  t.consec_failures <- 0

let trip t =
  t.state <- Open;
  t.opened_at <- Sim.Clock.now t.clock;
  t.probe_successes <- 0;
  t.trips <- t.trips + 1

let decide t =
  match t.state with
  | Closed -> Allow
  | Half_open -> Probe
  | Open ->
      if Sim.Clock.now t.clock -. t.opened_at >= t.config.cooldown_ns then begin
        t.state <- Half_open;
        t.probe_successes <- 0;
        Probe
      end
      else begin
        t.rejections <- t.rejections + 1;
        Reject
      end

let record_success t =
  match t.state with
  | Closed ->
      push t false;
      t.consec_failures <- 0
  | Half_open ->
      t.probe_successes <- t.probe_successes + 1;
      if t.probe_successes >= t.config.half_open_probes then begin
        t.state <- Closed;
        reset_window t
      end
  | Open -> ()

let record_failure t =
  match t.state with
  | Closed ->
      push t true;
      t.consec_failures <- t.consec_failures + 1;
      (* Either a burst (consecutive) or a sustained duty-cycle storm
         (windowed rate over at least half a window of evidence). *)
      if
        t.consec_failures >= t.config.failure_threshold
        || t.ring_len * 2 >= t.config.window
           && error_rate t >= t.config.error_rate
      then trip t
  | Half_open -> trip t
  | Open -> ()

let force_open t = if t.state <> Open then trip t

let pp_state ppf = function
  | Closed -> Fmt.string ppf "closed"
  | Open -> Fmt.string ppf "open"
  | Half_open -> Fmt.string ppf "half-open"
