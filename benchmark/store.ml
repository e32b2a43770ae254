(* Every operation the benchmark sends to the store, in one place.

   Point operations go through the router's health-checked front door, so
   a shed write, an unavailable read and a degraded read all surface as
   [Error] and count as failed operations. The router has no checked scan
   yet; scans use its plain sink and cannot fail. When the router grows a
   checked scan, only this module changes. *)

type t = Shard.Router.t

let create ~boundaries cfg = Shard.Router.create ~boundaries cfg

let put t ~update ~key value : (unit, string) result =
  match Shard.Router.put_checked ~update t ~key value with
  | Shard.Router.Acked -> Ok ()
  | Shard.Router.Write_shed why -> Error ("shed " ^ why)
  | Shard.Router.Write_failed why -> Error ("failed " ^ why)

let get t key : (string option, string) result =
  match Shard.Router.get_checked t key with
  | Shard.Router.Served v -> Ok v
  | Shard.Router.Served_degraded { reason; _ } -> Error ("degraded " ^ reason)
  | Shard.Router.Read_unavailable why -> Error ("unavailable " ^ why)

let scan t ~start ~limit : ((string * string) list, string) result =
  Ok ((Shard.Router.sink t).Workload.Sink.scan ~start ~limit)

let scan_range t ~start ~stop : ((string * string) list, string) result =
  Ok ((Shard.Router.sink t).Workload.Sink.scan_range ~start ~stop)

(* The full contents in key order, for the end-of-run state checks: one
   scan past every workload key (workload keys are printable ASCII). *)
let contents t = Shard.Router.scan_range t ~start:"" ~stop:(String.make 9 '\xff')

(* Crash both devices (crash mode must have been on since creation), then
   rebuild the router from what survived. *)
let crash_and_recover ~boundaries t =
  let pm = Shard.Router.pm t and ssd = Shard.Router.ssd t in
  Pmem.crash pm;
  Ssd.crash ssd;
  Shard.Router.recover ~boundaries (Shard.Router.config t) ~pm ~ssd
