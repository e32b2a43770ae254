(** Synthetic reconstruction of the Meituan online-retail workload (§VI-D):
    10 tables with 3 secondary indexes each, order inserts across tables,
    status updates biased to recent orders, and index queries implemented
    as index-prefix scans followed by point reads. *)

type t

val create : ?seed:int -> ?row_bytes:int -> unit -> t

val order_count : t -> int

(** {2 Driving a store} — against any {!Sink.t}: the router's
    [Shard.Router.sink], or a bare engine's {!Sink.of_engine}. *)

val new_order_sink : t -> Sink.t -> unit
(** Insert one order: a row per table touched plus its index entries. *)

val index_query_sink : t -> Sink.t -> unit
(** Scan an index prefix for row ids, then point-read each row. *)

val step_sink : t -> Sink.t -> unit
(** One transaction of the §VI-D mix. *)

val run_sink : t -> Sink.t -> transactions:int -> unit

val load_sink : t -> Sink.t -> orders:int -> unit
(** Create [orders] finished orders (insert plus some updates). *)
