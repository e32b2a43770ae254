(* Synthetic reconstruction of the Meituan online-retail workload of §VI-D.

   The paper describes: 10 tables of ~10 columns, 3 secondary indexes per
   table on frequently accessed columns, orders that insert rows into
   multiple tables (~100 KB per order, scaled here like everything else),
   status updates as the order progresses, and index queries (scan the
   index for row ids, then point-read the rows) biased strongly toward
   recent orders.

   Encoding: row keys are {tableID}{row id}; index keys are
   {tableID}{index id}{column value}#{row id} with ~120-byte index columns
   as the paper measures. Order ids increase monotonically; reads and
   updates choose orders zipfian-by-recency, which produces the hot/warm/
   cold lifecycle of the introduction. *)

(* The §VI-D shape: of the schema's 10 tables, a new order touches
   [rows_per_order]; each table has [indexes_per_table] secondary indexes
   on ~[index_column_bytes]-byte columns, and reads pick orders zipfian by
   recency with [recency_theta]. *)
let indexes_per_table = 3
let index_column_bytes = 120
let rows_per_order = 6
let recency_theta = 0.9

type t = {
  rng : Util.Xoshiro.t;
  row_bytes : int;        (* order row payload per table *)
  mutable next_order : int;
  mutable zipf_cache : (int * Util.Zipf.t) option;
}

let create ?(seed = 23) ?(row_bytes = 256) () =
  { rng = Util.Xoshiro.create seed; row_bytes; next_order = 0; zipf_cache = None }

let order_count t = t.next_order

(* Deterministic per-order index column value: shared digits make keys
   prefix-compressible the way real index columns (user id, merchant id,
   city) are. *)
let index_column ~order ~index_id =
  let base = Printf.sprintf "c%02d-%s" index_id (Util.Keys.fixed_int ~width:8 (order * 37 mod 99999989)) in
  base ^ String.make (max 0 (index_column_bytes - String.length base)) 'x'

let row_value t = Util.Xoshiro.string t.rng t.row_bytes

(* Insert one order: a row in each of [rows_per_order] tables plus its
   index entries. *)
let new_order_sink t (sink : Sink.t) =
  let order = t.next_order in
  t.next_order <- order + 1;
  for table_id = 0 to rows_per_order - 1 do
    let key = Util.Keys.record_key ~table_id ~row_id:order in
    sink.put ~update:false ~key (row_value t);
    for index_id = 0 to indexes_per_table - 1 do
      let column = index_column ~order ~index_id in
      let ikey = Util.Keys.index_key ~table_id ~index_id ~column ~row_id:order in
      sink.put ~update:false ~key:ikey (Util.Keys.fixed_int ~width:12 order)
    done
  done

let recent_order t =
  let n = max 1 t.next_order in
  let z =
    match t.zipf_cache with
    | Some (cached_n, z) when n <= cached_n * 11 / 10 -> z
    | _ ->
        let z = Util.Zipf.create ~theta:recency_theta ~n t.rng in
        t.zipf_cache <- Some (n, z);
        z
  in
  let rank = Util.Zipf.next z mod n in
  n - 1 - rank

(* Update an order's status: rewrite its row in a couple of tables and
   refresh one index entry (a small random write — the index-table write
   amplification the paper calls out). *)
let update_order_sink t (sink : Sink.t) =
  if t.next_order > 0 then begin
    let order = recent_order t in
    let tables_touched = 1 + Util.Xoshiro.int t.rng 2 in
    for i = 0 to tables_touched - 1 do
      let table_id = i mod rows_per_order in
      let key = Util.Keys.record_key ~table_id ~row_id:order in
      sink.put ~update:true ~key (row_value t);
      let index_id = Util.Xoshiro.int t.rng indexes_per_table in
      let column = index_column ~order ~index_id in
      let ikey = Util.Keys.index_key ~table_id ~index_id ~column ~row_id:order in
      sink.put ~update:true ~key:ikey (Util.Keys.fixed_int ~width:12 order)
    done
  end

(* Index query: scan the index for the column value to get row ids, then
   point-read each row (the two-step lookup of §VI-D). *)
let index_query_sink t (sink : Sink.t) =
  if t.next_order > 0 then begin
    let order = recent_order t in
    let table_id = Util.Xoshiro.int t.rng rows_per_order in
    let index_id = Util.Xoshiro.int t.rng indexes_per_table in
    let column = index_column ~order ~index_id in
    let prefix = Util.Keys.index_scan_prefix ~table_id ~index_id ~column in
    let hits =
      sink.scan_range ~start:prefix ~stop:(Util.Keys.prefix_successor prefix)
    in
    List.iter
      (fun (_ikey, row_id) ->
        match int_of_string_opt row_id with
        | Some row_id ->
            ignore (sink.get (Util.Keys.record_key ~table_id ~row_id))
        | None -> ())
      hits
  end

(* Primary-key read of a recent order's main row. *)
let point_read_sink t (sink : Sink.t) =
  if t.next_order > 0 then begin
    let order = recent_order t in
    let table_id = Util.Xoshiro.int t.rng rows_per_order in
    ignore (sink.get (Util.Keys.record_key ~table_id ~row_id:order))
  end

(* Range scan over recent orders of one table (order history page). *)
let history_scan_sink t (sink : Sink.t) =
  if t.next_order > 0 then begin
    let order = recent_order t in
    let table_id = Util.Xoshiro.int t.rng rows_per_order in
    let start = Util.Keys.record_key ~table_id ~row_id:order in
    let stop = Util.Keys.record_key ~table_id ~row_id:(order + 20) in
    ignore (sink.scan_range ~start ~stop)
  end

(* One transaction of the mix: weights follow §VI-D's description — writes
   are inserts + many status updates; most reads are index queries. *)
let step_sink t sink =
  let p = Util.Xoshiro.float t.rng 1.0 in
  if p < 0.15 then new_order_sink t sink
  else if p < 0.45 then update_order_sink t sink
  else if p < 0.75 then index_query_sink t sink
  else if p < 0.95 then point_read_sink t sink
  else history_scan_sink t sink

let run_sink t sink ~transactions =
  for _ = 1 to transactions do
    step_sink t sink
  done

(* Load phase: create [orders] finished orders (insert + one update). *)
let load_sink t sink ~orders =
  for _ = 1 to orders do
    new_order_sink t sink;
    if Util.Xoshiro.float t.rng 1.0 < 0.5 then update_order_sink t sink
  done
