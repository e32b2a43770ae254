(** Synthetic reconstruction of the Meituan online-retail workload (§VI-D):
    10 tables with 3 secondary indexes each, order inserts across tables,
    status updates biased to recent orders, and index queries implemented
    as index-prefix scans followed by point reads. *)

type t

val create :
  ?seed:int ->
  ?tables:int ->
  ?indexes_per_table:int ->
  ?row_bytes:int ->
  ?index_column_bytes:int ->
  ?rows_per_order:int ->
  ?recency_theta:float ->
  unit ->
  t

val order_count : t -> int

val new_order : t -> Core.Engine.t -> unit
val index_query : t -> Core.Engine.t -> unit

val step : t -> Core.Engine.t -> unit
(** One transaction of the §VI-D mix. *)

val run : t -> Core.Engine.t -> transactions:int -> unit

val load : t -> Core.Engine.t -> orders:int -> unit
(** Create [orders] finished orders (insert plus some updates). *)

(** {2 Sink variants} — the same generators against any {!Sink.t} (e.g.
    the sharded router front door). *)

val step_sink : t -> Sink.t -> unit
val run_sink : t -> Sink.t -> transactions:int -> unit
val load_sink : t -> Sink.t -> orders:int -> unit
