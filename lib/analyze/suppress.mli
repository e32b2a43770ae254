(** Inline finding suppressions.

    Syntax, inside any comment, on one line:

    {v (* pmlint:allow <rule-id>[,<rule-id>...]: <reason> *) v}

    The reason is mandatory (and must start on the marker line) — an
    allow without one is itself a finding and suppresses nothing, so the
    tree cannot accumulate unexplained exemptions. A suppression covers
    findings of the listed rules from the marker line through the line
    after the comment closes: it can trail the offending expression or
    sit above it, wrapped over several lines. *)

type t
(** The suppressions scanned from one file. *)

val scan : path:string -> known_rules:string list -> string -> t * Rule.finding list
(** [scan ~path ~known_rules source] extracts suppressions from the raw
    source. The returned findings (rule ["bad-suppress"]) flag allows
    with a missing/empty reason or an unknown rule id; malformed allows
    are not applied. *)

val covers : t -> Rule.finding -> string option
(** [Some reason] when the finding is suppressed. *)
