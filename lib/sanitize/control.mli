(** Process-wide sanitizer switch (on by default, so tests run sanitized).

    Devices consult it at creation time: disabling only affects devices
    created afterwards. The CLI's [--no-sanitize] flag disables it before
    any device exists. *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool
