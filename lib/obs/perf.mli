(** Perf-regression comparison of two bench JSON documents (a committed
    baseline versus a fresh run). Direction-aware and worse-side-only: a
    metric may improve without bound, but a beyond-tolerance move in its
    bad direction fails. Documents must agree on [schema_version] and on
    the config-name -> fingerprint map before any metric is compared. *)

type direction = Lower_is_better | Higher_is_better

type rule = { pattern : string; tol : float; direction : direction }
(** [pattern] is an exact metric name, a prefix glob ("attr.*") or a
    suffix glob ("*throughput_ops"); [tol] a fractional tolerance (0.05 =
    5%). *)

val rule : ?tol:float -> ?direction:direction -> string -> rule
(** Defaults: 5% tolerance, lower-is-better. *)

val matches : string -> pattern:string -> bool

type status =
  | Ok  (** within tolerance *)
  | Improved  (** beyond tolerance in the good direction (informational) *)
  | Regressed  (** beyond tolerance in the bad direction — gate fails *)
  | Missing  (** in the baseline but absent from the current run — gate fails *)

type result = {
  metric : string;
  base : float;
  current : float;
  delta : float;  (** signed fractional change relative to the baseline *)
  tol : float;
  status : status;
}

type report = { header_errors : string list; results : result list }

val compare_docs : ?default:rule -> rules:rule list -> Json.t -> Json.t -> report
(** Compare every metric of the baseline document against the current one.
    The first rule whose pattern matches decides tolerance and direction;
    [default] (5%, lower-is-better) covers the rest. Metrics only in the
    current run are ignored — refreshing the baseline picks them up. *)

val passed : report -> bool

val status_name : status -> string
val pp_report : report Fmt.t
