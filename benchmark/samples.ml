(* Exact sample sets. [Util.Histogram] buckets at ~2.3% width, coarser than
   the bounds the benchmark gates on, so latencies are kept raw and sorted
   once. *)

type t = { mutable a : Float.Array.t; mutable n : int }

let create () = { a = Float.Array.create 1024; n = 0 }

let add t x =
  if t.n = Float.Array.length t.a then begin
    let b = Float.Array.create (2 * t.n) in
    Float.Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  Float.Array.set t.a t.n x;
  t.n <- t.n + 1

let count t = t.n

let sorted t =
  let s = Float.Array.sub t.a 0 t.n in
  Float.Array.sort Float.compare s;
  s

(* Linear interpolation between closest ranks (Python's "inclusive"
   method), on a sorted array. *)
let quantile_sorted s q =
  let n = Float.Array.length s in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then Float.Array.get s (n - 1)
    else Float.Array.get s i +. (frac *. (Float.Array.get s (i + 1) -. Float.Array.get s i))

(* The value at percentile [p] (0-100), or [None] when fewer than ten
   samples lie beyond it: a tail estimate needs its own sample size. *)
let percentile s p =
  let n = Float.Array.length s in
  let beyond = float_of_int n *. (1.0 -. (p /. 100.0)) in
  if n = 0 || beyond < 10.0 then None else Some (quantile_sorted s (p /. 100.0))

let of_list l =
  let s = Float.Array.of_list l in
  Float.Array.sort Float.compare s;
  s

let median l = quantile_sorted (of_list l) 0.5

let sum t =
  let acc = ref 0.0 in
  for i = 0 to t.n - 1 do
    acc := !acc +. Float.Array.get t.a i
  done;
  !acc
