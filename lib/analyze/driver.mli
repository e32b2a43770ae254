(** pmlint driver: collect files, parse, run every rule, apply
    suppressions, and fold the results into one {!Report.summary}.

    Unparseable files become [parse-error] findings (pmlint never
    silently skips a file — a file the analyzer cannot see is a hole in
    the gate). Suppressions are scanned per file and cover same-line and
    next-line findings of the named rules; malformed allows surface as
    [bad-suppress] findings and suppress nothing. *)

val default_rules : Rule.t list
(** R1, R3 and R5, report order. *)

val run : ?rules:Rule.t list -> string list -> Report.summary
(** [run paths]: each path is a [.ml] file or a directory walked
    recursively for [*.ml]. *)

val has_errors : Report.summary -> bool
(** Any unsuppressed finding (the CI gate). *)
