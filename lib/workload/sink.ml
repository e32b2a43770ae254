(* A store the workloads drive, as closures: the bare engine and the
   sharded router both satisfy it, so every workload generator runs
   unchanged against either front door. A durable engine is a router
   shard: a sink over it would ack writes no group committer has synced,
   so it is refused. *)

type t = {
  put : update:bool -> key:string -> string -> unit;
  delete : string -> unit;
  get : string -> string option;
  scan : start:string -> limit:int -> (string * string) list;
  scan_range : start:string -> stop:string -> (string * string) list;
}

let of_engine engine =
  if (Core.Engine.config engine).Core.Config.durable then
    invalid_arg "Workload.Sink.of_engine: a durable engine is a router shard";
  {
    put = (fun ~update ~key value -> Core.Engine.put ~update engine ~key value);
    delete = (fun key -> Core.Engine.delete engine key);
    get = (fun key -> Core.Engine.get engine key);
    scan = (fun ~start ~limit -> Core.Engine.scan engine ~start ~limit);
    scan_range = (fun ~start ~stop -> Core.Engine.scan_range engine ~start ~stop);
  }
