(** Process-wide event tracer stamped with the simulated clock.

    Disabled by default; the disabled path is a single bool check and
    materialises nothing (attributes are thunks). Enable it with a sink —
    {!jsonl_sink} writes one Chrome-trace-compatible JSON object per line
    (wrap in [\[...\]] or [jq -s] to load in chrome://tracing / Perfetto),
    {!memory_sink} collects events for tests. *)

type value = Str of string | Int of int | Float of float | Bool of bool

type attr = string * value

type event =
  | Begin of { name : string; tid : int; ts : float; attrs : attr list }
  | End of { name : string; tid : int; ts : float }
  | Complete of { name : string; tid : int; ts : float; dur : float; attrs : attr list }
  | Instant of { name : string; tid : int; ts : float; attrs : attr list }
  | Counter of { name : string; tid : int; ts : float; value : float }

type sink = { emit : event -> unit; flush : unit -> unit; close : unit -> unit }

val jsonl_sink : out_channel -> sink
(** One Chrome trace-event JSON object per line; [flush] flushes and
    [close] closes the channel. *)

val memory_sink : unit -> sink * (unit -> event list)
(** The callback returns the events collected so far, oldest first. *)

val enable : ?io:bool -> clock:Sim.Clock.t -> sink -> unit
(** Attach [sink] and start tracing; timestamps come from [clock]. [io]
    (default true) also enables the per-device I/O event category. An
    already-attached sink is closed first. *)

val disable : unit -> unit
(** Stop tracing and close the sink. Idempotent. *)

val flush : unit -> unit
(** Push buffered events to durable storage without detaching the sink,
    so partial traces survive simulated crashes and uncaught exceptions.
    No-op when disabled. *)

val is_enabled : unit -> bool
val io_enabled : unit -> bool

val span_begin : ?tid:int -> ?attrs:(unit -> attr list) -> string -> unit
val span_end : ?tid:int -> string -> unit

val with_span : ?tid:int -> ?attrs:(unit -> attr list) -> string -> (unit -> 'a) -> 'a
(** Begin/end events around [f ()]; the end event is emitted on exceptions
    too. When disabled this is exactly [f ()]. *)

val instant : ?tid:int -> ?attrs:(unit -> attr list) -> string -> unit
val counter : ?tid:int -> string -> float -> unit

val complete : ?tid:int -> ?attrs:(unit -> attr list) -> string -> ts:float -> dur:float -> unit
(** A span with begin time and duration known up front ([ts]/[dur] in
    virtual-clock nanoseconds). *)

val io_event : ?tid:int -> string -> ts:float -> dur:float -> bytes:int -> unit
(** Device I/O fast path: a complete event with a [bytes] attribute,
    dropped unless {!io_enabled}. Guard call sites with {!io_enabled} so the
    disabled path computes nothing. *)

val json_of_event : event -> Json.t
val event_of_json : Json.t -> event
(** Inverse of {!json_of_event}; raises [Invalid_argument] on records the
    JSONL sink would not have written. *)
