(** pmlint reporters: a human [file:line:col] listing and a JSON
    artifact mirroring it (schema 2; schema 1 also carried a per-finding
    severity), built on the obs layer's hand-rolled codec. *)

type summary = {
  files : int;
  findings : Rule.finding list;  (** unsuppressed, report order *)
  suppressed : (Rule.finding * string) list;  (** finding, reason *)
}

val pp_text : Format.formatter -> summary -> unit
(** One line per unsuppressed finding plus a closing tally. *)

val to_json : summary -> Obs.Json.t
val write_json : string -> summary -> unit
