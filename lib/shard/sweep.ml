(* The router target of [Fault.Crash_sweep]. Devices are shared, so one
   fault plan sees every shard's writes and each shard's WAL arms the
   [wal.sync] site; every leg recovers the whole router — each shard from
   its named manifest root, plus the union orphan GC — and checks its
   merged read paths and every shard's manifest. The failure surface this
   adds is what the router adds: cross-shard recovery (one shard's crash
   must not corrupt or reclaim a sibling's structures) and the
   group-commit durability point. *)

(* Workload keys are [user%06d] over [keyspace]; the default boundaries
   split that population evenly so every shard sees traffic. *)
let workload_boundaries ~keyspace ~shards =
  List.init (shards - 1) (fun i ->
      Printf.sprintf "user%06d" (keyspace * (i + 1) / shards))

(* Writes go through the sink: the committers run in [Sync] mode, so a
   returned put is durable, and the sink raises on any outcome but an ack,
   so a refused write can never be mirrored as acked. *)
let of_router router =
  let sink = Router.sink router in
  let engines () = Array.to_list (Router.engines router) in
  {
    Fault.Crash_sweep.pm = Router.pm router;
    ssd = Router.ssd router;
    wals = (fun () -> List.filter_map Core.Engine.wal (engines ()));
    put = (fun ~key value -> sink.Workload.Sink.put ~update:true ~key value);
    delete = sink.Workload.Sink.delete;
    settle =
      (fun () ->
        Router.flush router;
        List.iter Core.Engine.force_internal_compaction (engines ()));
    check =
      (fun golden ->
        Fault.Checker.check_view golden (Router.view router)
        @ List.concat_map Fault.Checker.check_manifest (engines ()));
  }

let config ?seed ?ops ?(keyspace = 64) ?value_len ?rules ?double_crash ?boundaries
    router_config =
  if not router_config.Core.Config.durable then
    invalid_arg "Shard.Sweep.config: router config must be durable";
  let boundaries =
    Option.value boundaries
      ~default:
        (workload_boundaries ~keyspace ~shards:(max 1 router_config.Core.Config.shard_count))
  in
  Fault.Crash_sweep.config ?seed ?ops ~keyspace ?value_len ?rules ?double_crash
    {
      Fault.Crash_sweep.name = "sharded crash sweep";
      fresh =
        (fun () ->
          let router = Router.create ~boundaries router_config in
          Pmem.enable_crash_mode (Router.pm router);
          Ssd.enable_crash_mode (Router.ssd router);
          of_router router);
      recover =
        (fun ~pm ~ssd -> of_router (Router.recover ~boundaries router_config ~pm ~ssd));
    }
