(* Windowed latency health tracker.

   The first [warmup] samples freeze a baseline (their mean); after that an
   EWMA follows the live latency and [slow_factor] reports how far the
   device has drifted from its own healthy self. A fail-slow device does
   not error — it answers, 10-100x late — so drift against the frozen
   baseline is the only signal that distinguishes "sick" from "busy day
   one". All time comes from the caller (virtual-clock deltas), so the
   tracker itself is clock-free. *)

(* EWMA weight of the newest sample, and the samples averaged into the
   frozen baseline. *)
let alpha = 0.2
let warmup = 64

type t = {
  mutable warmup_sum : float;
  mutable baseline : float; (* 0.0 until frozen *)
  mutable ewma : float;
  mutable samples : int;
}

let create () = { warmup_sum = 0.0; baseline = 0.0; ewma = 0.0; samples = 0 }

let observe t latency_ns =
  let latency_ns = Float.max 0.0 latency_ns in
  t.samples <- t.samples + 1;
  if t.samples <= warmup then begin
    t.warmup_sum <- t.warmup_sum +. latency_ns;
    if t.samples = warmup then begin
      t.baseline <- Float.max 1.0 (t.warmup_sum /. float_of_int warmup);
      t.ewma <- t.baseline
    end
  end
  else t.ewma <- (alpha *. latency_ns) +. ((1.0 -. alpha) *. t.ewma)

let samples t = t.samples
let baseline t = t.baseline
let warmed_up t = t.baseline > 0.0

let slow_factor t =
  if t.baseline <= 0.0 then 1.0 else Float.max 1.0 (t.ewma /. t.baseline)

let reset_ewma t = if t.baseline > 0.0 then t.ewma <- t.baseline
