(* Process-wide event tracer driven by the simulated clock.

   Subsystems emit spans (begin/end pairs), complete events (begin + known
   duration, the shape device I/O naturally has), instants and counters;
   every record is stamped with the virtual-clock time in nanoseconds. A
   pluggable sink consumes the events — the JSONL sink writes one
   Chrome-trace-compatible JSON object per line (timestamps converted to
   microseconds, the trace-event format's unit), the memory sink backs
   tests.

   The tracer is disabled by default and the disabled path is a single
   mutable-bool check: no event record, attribute list or timestamp is
   materialised unless a sink is attached (attributes are passed as thunks
   for exactly this reason). Device-level I/O events are the one hot
   category with their own switch ([io_enabled]) so a trace of the
   compaction structure need not drown in per-read records. *)

type value = Str of string | Int of int | Float of float | Bool of bool

type attr = string * value

type event =
  | Begin of { name : string; tid : int; ts : float; attrs : attr list }
  | End of { name : string; tid : int; ts : float }
  | Complete of { name : string; tid : int; ts : float; dur : float; attrs : attr list }
  | Instant of { name : string; tid : int; ts : float; attrs : attr list }
  | Counter of { name : string; tid : int; ts : float; value : float }

type sink = { emit : event -> unit; flush : unit -> unit; close : unit -> unit }

(* --- Global state ------------------------------------------------------ *)

type state = { clock : Sim.Clock.t; sink : sink }

let enabled = ref false
let io_on = ref false
let state : state option ref = ref None

let is_enabled () = !enabled
let io_enabled () = !io_on

let enable ?(io = true) ~clock sink =
  (match !state with Some st -> st.sink.close () | None -> ());
  state := Some { clock; sink };
  enabled := true;
  io_on := io

let disable () =
  (match !state with Some st -> st.sink.close () | None -> ());
  state := None;
  enabled := false;
  io_on := false

(* Push buffered events to durable storage without detaching the sink.
   Crash-simulation legs and exception paths call this so a partial
   trace is still loadable in chrome://tracing. *)
let flush () = match !state with Some st -> st.sink.flush () | None -> ()

(* --- Emission ----------------------------------------------------------- *)

let attrs_of = function None -> [] | Some thunk -> thunk ()

let span_begin ?(tid = 0) ?attrs name =
  if !enabled then
    match !state with
    | Some st ->
        st.sink.emit
          (Begin { name; tid; ts = Sim.Clock.now st.clock; attrs = attrs_of attrs })
    | None -> ()

let span_end ?(tid = 0) name =
  if !enabled then
    match !state with
    | Some st -> st.sink.emit (End { name; tid; ts = Sim.Clock.now st.clock })
    | None -> ()

let with_span ?(tid = 0) ?attrs name f =
  if not !enabled then f ()
  else begin
    span_begin ~tid ?attrs name;
    match f () with
    | v ->
        span_end ~tid name;
        v
    | exception e ->
        span_end ~tid name;
        raise e
  end

let instant ?(tid = 0) ?attrs name =
  if !enabled then
    match !state with
    | Some st ->
        st.sink.emit
          (Instant { name; tid; ts = Sim.Clock.now st.clock; attrs = attrs_of attrs })
    | None -> ()

let counter ?(tid = 0) name v =
  if !enabled then
    match !state with
    | Some st -> st.sink.emit (Counter { name; tid; ts = Sim.Clock.now st.clock; value = v })
    | None -> ()

let complete ?(tid = 0) ?attrs name ~ts ~dur =
  if !enabled then
    match !state with
    | Some st -> st.sink.emit (Complete { name; tid; ts; dur; attrs = attrs_of attrs })
    | None -> ()

(* Device I/O fast path: a complete event with a bytes attribute, emitted
   only when I/O-level tracing is on. Callers should guard with
   [io_enabled] so the disabled path does not even compute [ts]. *)
let io_event ?(tid = 0) name ~ts ~dur ~bytes =
  if !io_on then
    match !state with
    | Some st -> st.sink.emit (Complete { name; tid; ts; dur; attrs = [ ("bytes", Int bytes) ] })
    | None -> ()

(* --- Sinks -------------------------------------------------------------- *)

let json_of_value = function
  | Str s -> Json.String s
  | Int i -> Json.Int i
  | Float x -> Json.Float x
  | Bool b -> Json.Bool b

let json_args attrs = Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) attrs)

(* Chrome trace-event records: ts/dur in microseconds, phases B/E/X/i/C.
   The virtual clock counts nanoseconds, hence the /1e3. *)
let json_of_event event =
  let us ns = ns /. 1e3 in
  let common name ph tid ts rest =
    Json.Obj
      ([ ("name", Json.String name);
         ("cat", Json.String "pmblade");
         ("ph", Json.String ph);
         ("ts", Json.Float (us ts));
         ("pid", Json.Int 1);
         ("tid", Json.Int tid) ]
      @ rest)
  in
  match event with
  | Begin { name; tid; ts; attrs } -> common name "B" tid ts [ ("args", json_args attrs) ]
  | End { name; tid; ts } -> common name "E" tid ts []
  | Complete { name; tid; ts; dur; attrs } ->
      common name "X" tid ts [ ("dur", Json.Float (us dur)); ("args", json_args attrs) ]
  | Instant { name; tid; ts; attrs } ->
      common name "i" tid ts [ ("s", Json.String "t"); ("args", json_args attrs) ]
  | Counter { name; tid; ts; value } ->
      common name "C" tid ts [ ("args", Json.Obj [ ("value", Json.Float value) ]) ]

let event_of_json json =
  let get name = Json.member name json in
  let str name = Option.bind (get name) Json.to_string_opt in
  let num name = Option.bind (get name) Json.to_float_opt in
  let require o = match o with Some v -> v | None -> invalid_arg "Trace.event_of_json" in
  let name = require (str "name") in
  let tid = match num "tid" with Some t -> int_of_float t | None -> 0 in
  let ts = require (num "ts") *. 1e3 in
  let attrs =
    match get "args" with
    | Some (Json.Obj fields) ->
        List.map
          (fun (k, v) ->
            ( k,
              match v with
              | Json.String s -> Str s
              | Json.Int i -> Int i
              | Json.Float x -> Float x
              | Json.Bool b -> Bool b
              | _ -> invalid_arg "Trace.event_of_json: nested args" ))
          fields
    | _ -> []
  in
  match require (str "ph") with
  | "B" -> Begin { name; tid; ts; attrs }
  | "E" -> End { name; tid; ts }
  | "X" -> Complete { name; tid; ts; dur = require (num "dur") *. 1e3; attrs }
  | "i" -> Instant { name; tid; ts; attrs }
  | "C" -> (
      match attrs with
      | [ ("value", Float v) ] -> Counter { name; tid; ts; value = v }
      | [ ("value", Int v) ] -> Counter { name; tid; ts; value = float_of_int v }
      | _ -> invalid_arg "Trace.event_of_json: counter args")
  | ph -> invalid_arg ("Trace.event_of_json: phase " ^ ph)

let jsonl_sink oc =
  let buf = Buffer.create 256 in
  {
    emit =
      (fun event ->
        Buffer.clear buf;
        Json.to_buffer buf (json_of_event event);
        Buffer.add_char buf '\n';
        Buffer.output_buffer oc buf);
    flush = (fun () -> Stdlib.flush oc);
    close = (fun () -> close_out oc);
  }

let memory_sink () =
  let events = ref [] in
  let sink =
    {
      emit = (fun e -> events := e :: !events);
      flush = (fun () -> ());
      close = (fun () -> ());
    }
  in
  (sink, fun () -> List.rev !events)
