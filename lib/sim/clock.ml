(* Virtual clock, in nanoseconds.

   Every simulated device charges time here. Single-threaded engine
   experiments measure an operation's latency as the clock delta across the
   call; the discrete-event scheduler (Des) drives the same clock from its
   event queue. *)

type t = { mutable now : float }

let create () = { now = 0.0 }
let now t = t.now
let advance t dt =
  if dt < 0.0 then invalid_arg "Clock.advance: negative delta";
  t.now <- t.now +. dt

let advance_to t at = if at > t.now then t.now <- at

(* Pull the clock back, for overlap rebates: a single-threaded simulation
   that charged CPU and I/O serially can model their concurrent execution
   by rewinding the overlapped share (see Lsm.with_major_timing). *)
let rewind t dt =
  if dt < 0.0 then invalid_arg "Clock.rewind: negative delta";
  t.now <- Float.max 0.0 (t.now -. dt)

(* Measure the simulated duration of [f]. *)
let time t f =
  let t0 = t.now in
  let result = f () in
  (result, t.now -. t0)

let ns x = x
let us x = x *. 1e3
let ms x = x *. 1e6
let s x = x *. 1e9

let to_us x = x /. 1e3
let to_s x = x /. 1e9

let pp_duration ppf x =
  if x < 1e3 then Fmt.pf ppf "%.0f ns" x
  else if x < 1e6 then Fmt.pf ppf "%.1f us" (x /. 1e3)
  else if x < 1e9 then Fmt.pf ppf "%.1f ms" (x /. 1e6)
  else Fmt.pf ppf "%.2f s" (x /. 1e9)
