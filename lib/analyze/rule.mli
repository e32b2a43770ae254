(** pmlint rule framework.

    A rule inspects one parsed OCaml source and emits {!finding}s — one
    per violation, anchored to a file/line/column. Every finding is an
    error. Rules are purely syntactic and intraprocedural (plus per-file
    local-function summaries): they are the *static screen* in front of
    the dynamic sanitizers — pmsan proves an execution obeyed the
    persistence protocol, pmlint proves the source cannot express the
    common ways of breaking it. *)

type finding = {
  rule : string;  (** the rule id, e.g. ["flush-before-commit"] *)
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  msg : string;
}

type file_ctx = { path : string; ast : Parsetree.structure }
(** One successfully parsed compilation unit. [path] is as given on the
    command line (rules match on subpaths like ["shard/"]). *)

type t = {
  id : string;
  doc : string;  (** one-line description for [--list-rules] *)
  file_pass : file_ctx -> finding list;
}

val finding : rule:string -> file:string -> Location.t -> string -> finding
(** Build a finding anchored at the start of [Location.t]. *)

val compare_finding : finding -> finding -> int
(** Order by file, line, column, rule — the report order. *)
