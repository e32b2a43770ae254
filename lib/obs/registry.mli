(** Pull-based metrics registry: subsystems register readouts under stable
    dotted names; exporters sample them at exposition time, so registration
    adds zero cost to hot paths. *)

type t

type kind = Counter | Gauge

val create : unit -> t

val register_int : t -> ?kind:kind -> help:string -> string -> (unit -> int) -> unit
(** Default kind is [Counter]. Every registration raises
    [Invalid_argument] on an empty [help] or a duplicate name. *)

val register_float : t -> ?kind:kind -> help:string -> string -> (unit -> float) -> unit
(** Default kind is [Gauge]. *)

val register_histogram : t -> help:string -> string -> (unit -> Util.Histogram.t) -> unit

val names : t -> string list
(** Registration order. *)

val snapshot_json : t -> Json.t
(** One object keyed by metric name; histograms expand to
    count/mean/stddev/min/max/p50/p99/p999. *)

val to_prometheus : t -> string
(** Prometheus text exposition; dots in names map to underscores and
    histograms export cumulative [le] buckets. Help strings and label
    values are escaped per the text-format rules. *)

val escape_help : string -> string
(** Escape a HELP string for the Prometheus text format: backslash and
    newline. *)

val escape_label_value : string -> string
(** Escape a label value: backslash, double quote and newline. *)
