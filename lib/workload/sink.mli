(** A store under workload, as closures: the single engine and the sharded
    router both satisfy it, so the workload generators (YCSB, retail) run
    unchanged against either front door. *)

type t = {
  put : update:bool -> key:string -> string -> unit;
  delete : string -> unit;
  get : string -> string option;
  scan : start:string -> limit:int -> (string * string) list;
  scan_range : start:string -> stop:string -> (string * string) list;
}

val of_engine : Core.Engine.t -> t
(** A bare engine's sink. Raises [Invalid_argument] on a durable engine (a
    router shard): drive its router's [Shard.Router.sink] instead. *)
