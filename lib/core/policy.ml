(* The level-0 policy: every choice of when and where level-0 data moves
   (see policy.mli). PM-Blade's contribution is this policy — Algorithm 1
   with the §IV-C cost models — so it is kept apart from the mechanisms it
   drives ([Lsm]), the split Sarkar et al. make between a compaction's
   trigger and granularity and the data layout it acts on. *)

open Lsm

(* --- Pressure ------------------------------------------------------------ *)

(* Planted-bug kill switch for the PM-share gate: count every sorted-run
   table as debt, which pushes a resident store to the SSD. Leave it
   [false]. *)
let chaos_table_debt = ref false

(* Compaction debt in runs: the level-0 structures a point read may probe
   — each unsorted PM table, the key-disjoint sorted run as one run (a
   probe binary-searches it to one table), each SSD level-0 table. *)
let partition_pressure p =
  let run =
    if !chaos_table_debt then List.length p.sorted_run
    else if p.sorted_run = [] then 0
    else 1
  in
  List.length p.unsorted + run + List.length p.ssd_l0

let pressure t = Array.fold_left (fun acc p -> acc + partition_pressure p) 0 t.partitions

(* --- Algorithm 1 ---------------------------------------------------------- *)

let reads_per_sec t p =
  let window = Sim.Clock.now t.clock -. p.window_start in
  if window <= 0.0 then 0.0 else float_of_int p.reads /. (window /. 1e9)

(* Step 0: an unsorted table whose key range overlaps no other level-0
   table of its partition joins the sorted run unchanged — a trivial move,
   no PM rewrite. No other level-0 table holds any of its keys, so recency
   order stays exact and the run stays key-disjoint. The flush's manifest
   install records the move. *)
let trivial_move p =
  let l0 = p.unsorted @ p.sorted_run in
  let alone tbl =
    let min = Pmtable.Table.min_key tbl and max = Pmtable.Table.max_key tbl in
    List.for_all (fun o -> o == tbl || not (Pmtable.Table.overlaps o ~min ~max)) l0
  in
  match List.partition alone p.unsorted with
  | [], _ -> ()
  | moved, kept ->
      p.unsorted <- kept;
      p.sorted_run <-
        List.sort
          (fun a b -> String.compare (Pmtable.Table.min_key a) (Pmtable.Table.min_key b))
          (moved @ p.sorted_run)

(* Eq. 2 for partition [p]: n_bef (every PM level-0 record, sorted run
   included) and the saving of an internal compaction over leaving the
   partition's duplicate versions to a major compaction. *)
let eq2_saving params p =
  let count tbls = List.fold_left (fun acc tbl -> acc + Pmtable.Table.count tbl) 0 tbls in
  let l0_records = count p.unsorted + count p.sorted_run in
  (l0_records, Compaction.Cost_model.delta_cost_wf params ~l0_records ~updates:p.updates)

let cost_based t p params =
  trivial_move p;
  (* Eq. 1: internal compaction for read amplification. *)
  let rps = reads_per_sec t p in
  let eq1 =
    Compaction.Cost_model.should_internal_compact_rf params ~reads_per_sec:rps
      ~unsorted:(List.length p.unsorted)
  in
  if Obs.Trace.is_enabled () then
    Obs.Trace.instant "cost_model.eq1" ~attrs:(fun () ->
        [
          ("partition", Obs.Trace.Int p.idx);
          ("reads_per_sec", Obs.Trace.Float rps);
          ("unsorted_tables", Obs.Trace.Int (List.length p.unsorted));
          ("compact", Obs.Trace.Bool eq1);
        ]);
  if eq1 then internal_compaction t p;
  (* Eq. 2: internal compaction to curb SSD write amplification, gated on
     the partition being big enough to matter (tau_w). *)
  (if p.unsorted <> [] then begin
     let l0_records, saving = eq2_saving params p in
     let eq2 = partition_l0_bytes p >= params.Compaction.Cost_model.tau_w && saving > 0.0 in
     if Obs.Trace.is_enabled () then
       Obs.Trace.instant "cost_model.eq2" ~attrs:(fun () ->
           [
             ("partition", Obs.Trace.Int p.idx);
             ("l0_bytes", Obs.Trace.Int (partition_l0_bytes p));
             ("l0_records", Obs.Trace.Int l0_records);
             ("updates", Obs.Trace.Int p.updates);
             ("compact", Obs.Trace.Bool eq2);
           ]);
     if eq2 then internal_compaction t p
   end);
  (* Eq. 3: major-compact everything outside the preserved warm set. *)
  let eq3 = Compaction.Cost_model.should_major_compact params ~l0_bytes:(l0_bytes t) in
  if Obs.Trace.is_enabled () then
    Obs.Trace.instant "cost_model.eq3" ~attrs:(fun () ->
        [
          ("l0_bytes", Obs.Trace.Int (l0_bytes t));
          ("compact", Obs.Trace.Bool eq3);
        ]);
  if eq3 then begin
    let candidates =
      Array.to_list t.partitions
      |> List.filter_map (fun p ->
             let size = partition_l0_bytes p in
             if size = 0 then None else Some (p.idx, p.reads, size))
    in
    let preserved = Compaction.Cost_model.select_preserved params candidates in
    if Obs.Trace.is_enabled () then
      Obs.Trace.instant "cost_model.warm_set" ~attrs:(fun () ->
          [
            ("candidates", Obs.Trace.Int (List.length candidates));
            ("preserved", Obs.Trace.Int (List.length preserved));
          ]);
    Array.iter
      (fun p ->
        if partition_l0_bytes p > 0 && not (List.mem p.idx preserved) then
          major_compact_partition t p)
      t.partitions
  end

(* Algorithm 1 after a flush into partition [p]: the cost-based models,
   the conventional table/byte trigger, or the matrix column loop. *)
let step t p =
  match t.config.Config.l0_strategy with
  | Config.Cost_based params -> cost_based t p params
  | Config.Conventional { max_tables; max_bytes } ->
      let table_count =
        match t.config.Config.l0_medium with
        | Config.L0_pm -> List.length p.unsorted
        | Config.L0_ssd -> List.length p.ssd_l0
      in
      let trigger_tables =
        match max_tables with Some m -> table_count >= m | None -> false
      in
      let trigger_bytes =
        match max_bytes with Some m -> l0_bytes t >= m | None -> false
      in
      if trigger_tables then major_compact_partition t p
      else if trigger_bytes then
        (* PM full: flush every partition's level-0 (the conventional
           whole-level-0 compaction of PMBlade-PM). *)
        Array.iter (fun p -> if partition_l0_bytes p > 0 then major_compact_partition t p)
          t.partitions
  | Config.Matrix { columns; trigger_bytes } ->
      (* Column-compact the fullest partition until the matrix container
         fits its budget again; a small container compacts constantly and
         incoming writes absorb the stall (the MatrixKV-8GB behaviour the
         paper measures). *)
      let guard = ref (2 * columns) in
      while l0_bytes t >= trigger_bytes && !guard > 0 do
        decr guard;
        let victim =
          Array.fold_left
            (fun best p ->
              if partition_l0_bytes p > partition_l0_bytes best then p else best)
            t.partitions.(0) t.partitions
        in
        column_compaction t victim ~columns
      done

(* --- Relief --------------------------------------------------------------- *)

type relief = Internal | Major

(* One bounded relief step on the partition with the most level-0 runs
   (the first on a tie), so it retires the most probe targets it can.
   Under the cost-based strategy the step is priced by Eq. 2: when the
   partition's PM level-0 holds enough duplicate versions that merging
   them inside PM is cheaper than rewriting them on the SSD, and Eq. 3 is
   quiet, the runs are internal-compacted into one sorted run; otherwise,
   or when internal compaction runs out of PM, the partition is
   major-compacted. Unlike Eq. 2 in Algorithm 1 there is no tau_w gate:
   the step must retire the runs either way, so Eq. 2 only chooses the
   cheaper rewrite. *)
let relieve t =
  let p =
    Array.fold_left
      (fun best p -> if partition_pressure p > partition_pressure best then p else best)
      t.partitions.(0) t.partitions
  in
  if partition_pressure p = 0 then None
  else begin
    let priced =
      match (t.config.Config.l0_strategy, t.config.Config.l0_medium) with
      | Config.Cost_based params, Config.L0_pm when p.ssd_l0 = [] && p.unsorted <> [] ->
          Some (params, eq2_saving params p)
      | _ -> None
    in
    let updates = p.updates in
    let internal =
      match priced with
      | Some (params, (_, saving)) ->
          saving > 0.0
          && not (Compaction.Cost_model.should_major_compact params ~l0_bytes:(l0_bytes t))
      | None -> false
    in
    let compacted_in_pm () =
      match guard_integrity t (fun () -> internal_compaction t p) with
      | _ -> true
      | exception Pmem.Out_of_space _ -> false
    in
    let kind =
      if internal && compacted_in_pm () then Internal
      else begin
        ignore (guard_integrity t (fun () -> major_compact_partition t p));
        Major
      end
    in
    persist_manifest t;
    if Obs.Trace.is_enabled () then
      Obs.Trace.instant "relief_step" ~attrs:(fun () ->
          [
            ("partition", Obs.Trace.Int p.idx);
            ("kind", Obs.Trace.Str (match kind with Internal -> "internal" | Major -> "major"));
            ("updates", Obs.Trace.Int updates);
          ]
          @
          match priced with
          | Some (_, (l0_records, saving)) ->
              [ ("l0_records", Obs.Trace.Int l0_records); ("saving", Obs.Trace.Float saving) ]
          | None -> []);
    Some kind
  end

(* Out of PM: major-compact the coldest partition that holds level-0 data
   (fewest reads; the first on a tie) and record the new structure. *)
let make_room t =
  let by_coldness =
    Array.to_list t.partitions
    |> List.filter (fun p -> partition_l0_bytes p > 0)
    |> List.sort (fun a b -> compare a.reads b.reads)
  in
  match by_coldness with
  | [] -> ()
  | coldest :: _ ->
      ignore (guard_integrity t (fun () -> major_compact_partition t coldest));
      persist_manifest t

(* --- Shard budget ---------------------------------------------------------- *)

(* One of [shards] range shards spends an even slice of the configured
   level-0 budget: its PM capacity and the strategy's byte thresholds,
   so the shards together spend what the configuration names. *)
let shard_budget cfg ~shards =
  let scale x = max 1 (x / shards) in
  {
    cfg with
    Config.l0_capacity = scale cfg.Config.l0_capacity;
    l0_strategy =
      (match cfg.Config.l0_strategy with
      | Config.Cost_based p ->
          Config.Cost_based
            {
              p with
              Compaction.Cost_model.tau_m = scale p.Compaction.Cost_model.tau_m;
              tau_t = scale p.Compaction.Cost_model.tau_t;
            }
      | Config.Conventional { max_tables; max_bytes } ->
          Config.Conventional { max_tables; max_bytes = Option.map scale max_bytes }
      | Config.Matrix { columns; trigger_bytes } ->
          Config.Matrix { columns; trigger_bytes = scale trigger_bytes });
  }
