(** In-memory golden model of the applied-op history.

    The crash-sweep workload mirrors every operation here: {!begin_put} /
    {!begin_delete} before calling the engine, {!ack} when the engine call
    returns. A crash mid-call leaves exactly one op {!pending}, for which
    the {!Checker} accepts either outcome; everything acknowledged must
    survive recovery exactly. *)

type op = { key : string; value : string option }
(** [value = None] is a delete. *)

type t

val create : unit -> t
val begin_put : t -> key:string -> string -> unit
val begin_delete : t -> string -> unit

val ack : t -> unit
(** Promote the pending op into the acknowledged history. *)

val abort : t -> unit
(** Drop the pending op without acknowledging it — the engine refused the
    write before touching anything (admission shed, open breaker), so the
    model's pre-op state stands. *)

val pending : t -> op option

val acked : t -> string -> string option option
(** [None] — never acknowledged; [Some None] — deleted; [Some (Some v)] —
    live with value [v]. *)

val entries : t -> (string * string option) list
(** The acknowledged history, sorted by key (deletes included). *)
