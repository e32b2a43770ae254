(* SSD block-device simulator.

   SSTables live as append-only "files" made of 4 KiB pages. Two access
   interfaces share the cost model:

   - the synchronous interface charges the virtual clock directly and is
     used by the single-threaded engine experiments (a read's latency is the
     clock delta across the call);

   - the asynchronous interface ([submit]) enqueues a request and fires a
     completion callback through the discrete-event scheduler; it models a
     device with bounded internal parallelism ([channels]) so that latency
     grows with queue depth, which is what the scheduling experiments
     (Table III's I/O latency column, Fig. 9c) measure.

   Cost model: fixed per-request latency plus a per-byte transfer term.
   A request covers one contiguous range, so callers size their requests:
   an SSTable build is one write of its whole image and a compaction input
   one read of its data region, while a point lookup reads one block.
   Calibrated against the paper's Table I (single random SSTable lookup
   22.3 us) and Table V (SSD compaction ~2x slower than PM-internal). *)

type params = {
  page_size : int;
  read_latency_ns : float;   (* fixed cost of one random read request *)
  write_latency_ns : float;  (* fixed cost of one write request *)
  read_byte_ns : float;
  write_byte_ns : float;
  fsync_latency_ns : float;  (* cost of a flush/FUA barrier command *)
  channels : int;            (* internal parallelism of the device *)
}

(* ~20 us random read, ~0.45 ns/B (~2.2 GB/s) read bandwidth,
   ~2.0 ns/B (~0.5 GB/s) sustained write -- NVMe-class, matching Table I. *)
let default_params =
  {
    page_size = 4096;
    read_latency_ns = 20_000.0;
    write_latency_ns = 25_000.0;
    read_byte_ns = 0.45;
    write_byte_ns = 2.0;
    fsync_latency_ns = 5_000.0;
    channels = 2;
  }

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable read_time : float;
  mutable write_time : float;
  mutable request_latency : Util.Histogram.t;
}

let fresh_stats () =
  {
    reads = 0;
    writes = 0;
    bytes_read = 0;
    bytes_written = 0;
    read_time = 0.0;
    write_time = 0.0;
    request_latency = Util.Histogram.create ();
  }

(* A file's bytes are [data.[0 .. size-1]]; the tail past [size] is spare
   capacity. The first write request sizes [data] exactly, later appends
   grow it by doubling, and a crash only moves [size]. *)
type file = {
  id : int;
  mutable data : Bytes.t;
  mutable size : int;
  mutable closed : bool;
  (* bytes guaranteed to survive a crash; advanced by fsync/seal, enforced
     by [crash] when crash mode is on *)
  mutable durable_len : int;
}

type op = Read | Write

exception Io_error of { op : op; file_id : int }

(* Fault-injection hook points (lib/fault arms these): read/write hooks can
   fail a request transiently (callers are expected to retry with backoff)
   or inflate its latency (a fail-slow device: the request succeeds, late),
   the fsync hook can swallow a barrier (sync loss) or stall it. Hooks may
   raise to model a crash at the site. *)
type io_outcome = Io_ok | Io_fail | Io_slow of float

type request = {
  op : op;
  bytes : int;
  submitted_at : float;
  completion : float -> unit;  (* called with the request's total latency *)
}

type t = {
  clock : Sim.Clock.t;
  params : params;
  stats : stats;
  mutable next_file : int;
  files : (int, file) Hashtbl.t;
  (* Async machinery; only touched via [submit]/[attach_des]. *)
  mutable des : Sim.Des.t option;
  mutable in_service : int;
  queue : request Queue.t;
  busy : Sim.Resource.t;
  (* superblock: a device-level root pointer (the id of the manifest file),
     the one thing recovery can find without any other state. Updating it
     is a single-sector write, modelled as atomic and immediately durable.
     The sector holds two slots: the current root and the one it replaced,
     so recovery can fall back if the current root's file turns out to be
     rotten. *)
  mutable root : int option;
  mutable root_prev : int option;
  (* additional named root slots (one dual-slot pair per name) so several
     logical stores — e.g. range shards — can share the device, each with
     its own recoverable manifest chain. The unnamed slots above stay the
     default namespace. *)
  named_roots : (string, int option * int option) Hashtbl.t;
  mutable crash_mode : bool;
  (* files deleted while in crash mode: a delete is directory metadata, so
     until the next crash the durable pages are still on the device and the
     file is resurrectable (recovery GCs the unreferenced ones) *)
  graveyard : (int, file) Hashtbl.t;
  mutable write_hook : (file_id:int -> len:int -> io_outcome) option;
  mutable read_hook : (file_id:int -> len:int -> io_outcome) option;
  mutable fsync_hook : (file_id:int -> io_outcome) option;
}

let create ?(params = default_params) clock =
  {
    clock;
    params;
    stats = fresh_stats ();
    next_file = 0;
    files = Hashtbl.create 64;
    des = None;
    in_service = 0;
    queue = Queue.create ();
    busy = Sim.Resource.create ~name:"ssd" clock;
    root = None;
    root_prev = None;
    named_roots = Hashtbl.create 8;
    crash_mode = false;
    graveyard = Hashtbl.create 16;
    write_hook = None;
    read_hook = None;
    fsync_hook = None;
  }

let set_root ?(name = "") t id =
  if name = "" then (
    if t.root <> Some id then t.root_prev <- t.root;
    t.root <- Some id)
  else
    let cur, prev =
      match Hashtbl.find_opt t.named_roots name with
      | Some slots -> slots
      | None -> (None, None)
    in
    let prev = if cur <> Some id then cur else prev in
    Hashtbl.replace t.named_roots name (Some id, prev)

let root ?(name = "") t =
  if name = "" then t.root
  else
    match Hashtbl.find_opt t.named_roots name with
    | Some (cur, _) -> cur
    | None -> None

let root_slots ?(name = "") t =
  if name = "" then (t.root, t.root_prev)
  else
    match Hashtbl.find_opt t.named_roots name with
    | Some slots -> slots
    | None -> (None, None)

let root_names t = Hashtbl.fold (fun name _ acc -> name :: acc) t.named_roots []

let stats t = t.stats
let params t = t.params
let clock t = t.clock
let busy_tracker t = t.busy

let service_time t op bytes =
  match op with
  | Read -> t.params.read_latency_ns +. (float_of_int bytes *. t.params.read_byte_ns)
  | Write -> t.params.write_latency_ns +. (float_of_int bytes *. t.params.write_byte_ns)

let account t op bytes dt =
  match op with
  | Read ->
      t.stats.reads <- t.stats.reads + 1;
      t.stats.bytes_read <- t.stats.bytes_read + bytes;
      t.stats.read_time <- t.stats.read_time +. dt
  | Write ->
      t.stats.writes <- t.stats.writes + 1;
      t.stats.bytes_written <- t.stats.bytes_written + bytes;
      t.stats.write_time <- t.stats.write_time +. dt

let trace_request t op bytes dt =
  if Obs.Trace.io_enabled () then
    Obs.Trace.io_event
      (match op with Read -> "ssd.read" | Write -> "ssd.write")
      ~ts:(Sim.Clock.now t.clock) ~dur:dt ~bytes

(* --- Fault hooks and crash mode -------------------------------------- *)

(* An [Io_slow] outcome stretches the request to [mult] times its normal
   service time: the extra latency lands on the clock and in the op-time
   stats, so trackers watching the device see the inflation. *)
let slow_extra t op dt mult =
  let extra = Float.max 0.0 ((mult -. 1.0) *. dt) in
  if extra > 0.0 then begin
    Sim.Clock.advance t.clock extra;
    match op with
    | Read -> t.stats.read_time <- t.stats.read_time +. extra
    | Write -> t.stats.write_time <- t.stats.write_time +. extra
  end;
  extra

let set_write_hook t hook = t.write_hook <- hook
let set_read_hook t hook = t.read_hook <- hook
let set_fsync_hook t hook = t.fsync_hook <- hook

(* --- File namespace ------------------------------------------------- *)

let create_file t =
  let file =
    { id = t.next_file; data = Bytes.empty; size = 0; closed = false; durable_len = 0 }
  in
  t.next_file <- t.next_file + 1;
  Hashtbl.replace t.files file.id file;
  file

let file_id file = file.id
let file_size file = file.size
let durable_size file = file.durable_len

let delete_file t file =
  Hashtbl.remove t.files file.id;
  if t.crash_mode then Hashtbl.replace t.graveyard file.id file

let find_file t id = Hashtbl.find_opt t.files id

let live_file_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.files [] |> List.sort compare

(* Everything already on the device when crash mode starts is considered
   durable; from here on only fsync/seal advance the durable watermark. *)
let enable_crash_mode t =
  t.crash_mode <- true;
  Hashtbl.iter (fun _ file -> file.durable_len <- file.size) t.files

(* Crash simulation: resurrect deleted files (their pages are still on the
   medium), then cut every file back to its durable watermark — plus an
   optional torn tail: [keep] returns how many of the unsynced trailing
   bytes made it to the medium (a partial 4 KiB page image). Files are
   visited in id order so a seeded [keep] is reproducible. *)
let crash ?(keep = fun ~file_id:_ ~durable:_ ~size:_ -> 0) t =
  if t.crash_mode then begin
    Hashtbl.iter (fun id file -> Hashtbl.replace t.files id file) t.graveyard;
    Hashtbl.reset t.graveyard;
    let ids = live_file_ids t in
    List.iter
      (fun id ->
        let file = Hashtbl.find t.files id in
        let size = file.size in
        if size > file.durable_len then begin
          let kept =
            max 0 (min (size - file.durable_len) (keep ~file_id:id ~durable:file.durable_len ~size))
          in
          let cut = file.durable_len + kept in
          file.size <- cut;
          (* whatever survived the power cut is on the medium now *)
          file.durable_len <- cut
        end)
      ids
  end

(* --- Synchronous interface (engine experiments) --------------------- *)

(* One device request of [len] bytes on [file]: the single place that
   charges service time, emits the trace event, books the stats and the
   read attribution, and consults the fault hook. Requests are atomic: the
   hook runs after the cost is charged, and an [Io_fail] raises before the
   caller transfers anything, so retrying is safe. *)
let request t op file len =
  let dt = service_time t op len in
  trace_request t op len dt;
  Sim.Clock.advance t.clock dt;
  if op = Read then Obs.Attr.charge Obs.Attr.Ssd_read dt;
  account t op len dt;
  Util.Histogram.record t.stats.request_latency dt;
  let hook = match op with Read -> t.read_hook | Write -> t.write_hook in
  match hook with
  | None -> ()
  | Some hook -> (
      match hook ~file_id:file.id ~len with
      | Io_ok -> ()
      | Io_fail -> raise (Io_error { op; file_id = file.id })
      | Io_slow mult ->
          let extra = slow_extra t op dt mult in
          if op = Read then Obs.Attr.charge Obs.Attr.Ssd_read extra)

(* Room for [len] more bytes: an empty file gets exactly [len], a growing
   one doubles. *)
let reserve file len =
  let need = file.size + len in
  if need > Bytes.length file.data then begin
    let cap = if file.size = 0 then need else max need (2 * Bytes.length file.data) in
    let data = Bytes.create cap in
    Bytes.blit file.data 0 data 0 file.size;
    file.data <- data
  end

(* Sequential write: one request of [data]'s length. *)
let append t file data =
  if file.closed then invalid_arg "Ssd.append: file closed";
  let len = String.length data in
  request t Write file len;
  reserve file len;
  Bytes.blit_string data 0 file.data file.size len;
  file.size <- file.size + len

(* One write request of [data]'s length; an empty file adopts [data] as its
   storage instead of copying it (a table build writes its whole image). *)
let append_owned t file data =
  if file.closed then invalid_arg "Ssd.append_owned: file closed";
  let len = Bytes.length data in
  request t Write file len;
  if file.size = 0 then file.data <- data
  else begin
    reserve file len;
    Bytes.blit data 0 file.data file.size len
  end;
  file.size <- file.size + len

(* Flush/FUA barrier: everything appended so far is durable afterwards.
   The fsync hook can swallow the barrier (sync loss), stall it (stuck-slow
   fsync: durable, but at a multiple of the normal barrier cost), or raise
   (crash). *)
let fsync t file =
  Sim.Clock.advance t.clock t.params.fsync_latency_ns;
  let effective =
    match t.fsync_hook with
    | None -> true
    | Some hook -> (
        match hook ~file_id:file.id with
        | Io_ok -> true
        | Io_fail -> false
        | Io_slow mult ->
            Sim.Clock.advance t.clock
              (Float.max 0.0 ((mult -. 1.0) *. t.params.fsync_latency_ns));
            true)
  in
  if effective then file.durable_len <- max file.durable_len file.size

let seal t file =
  (* Sealing a table is its durability point (build ends with a barrier). *)
  fsync t file;
  file.closed <- true

(* Fault injection for integrity tests: damage bytes in place, free of
   simulated cost (the fault is the medium's, not the workload's). [`Flip]
   inverts every byte in the range; [`Zero] wipes it, modelling a torn or
   unmapped page image. *)
let corrupt_file ?(len = 1) ?(mode = `Flip) t file ~off =
  ignore t;
  if len < 1 then invalid_arg "Ssd.corrupt_file: len < 1";
  if off < 0 || off + len > file.size then invalid_arg "Ssd.corrupt_file: out of bounds";
  match mode with
  | `Flip ->
      for i = off to off + len - 1 do
        Bytes.set file.data i (Char.chr (Char.code (Bytes.get file.data i) lxor 0xff))
      done
  | `Zero -> Bytes.fill file.data off len '\000'

(* Random read: one request, answered with a fresh string — the block
   cache keeps it, so it must not alias the file. *)
let pread t file ~off ~len =
  if off < 0 || len < 0 || off + len > file.size then invalid_arg "Ssd.pread: out of bounds";
  request t Read file len;
  Bytes.sub_string file.data off len

(* One read request over [off, off+len), answered with the file's own
   storage instead of a copy: the caller decodes in place and drops the
   view before the file changes. *)
let read_in_place t file ~off ~len =
  if off < 0 || len < 0 || off + len > file.size then
    invalid_arg "Ssd.read_in_place: out of bounds";
  request t Read file len;
  Bytes.unsafe_to_string file.data

(* --- Asynchronous interface (scheduling experiments) ---------------- *)

let attach_des t des = t.des <- Some des

let des_exn t =
  match t.des with
  | Some des -> des
  | None -> invalid_arg "Ssd.submit: no DES attached (call attach_des first)"

let in_flight t = t.in_service + Queue.length t.queue

let rec start_next t =
  if t.in_service < t.params.channels && not (Queue.is_empty t.queue) then begin
    let req = Queue.pop t.queue in
    t.in_service <- t.in_service + 1;
    Sim.Resource.mark_busy t.busy;
    let dt = service_time t req.op req.bytes in
    trace_request t req.op req.bytes dt;
    account t req.op req.bytes dt;
    Sim.Des.schedule_after (des_exn t)
      dt
      (fun () ->
        t.in_service <- t.in_service - 1;
        if t.in_service = 0 && Queue.is_empty t.queue then Sim.Resource.mark_idle t.busy;
        let latency = Sim.Clock.now t.clock -. req.submitted_at in
        Util.Histogram.record t.stats.request_latency latency;
        req.completion latency;
        start_next t)
  end

let submit t op ~bytes completion =
  let req = { op; bytes; submitted_at = Sim.Clock.now t.clock; completion } in
  Queue.push req t.queue;
  start_next t

(* Stable dotted metric names for the registry exporters. *)
let register_metrics reg t =
  let name suffix = "ssd." ^ suffix in
  let open Obs.Registry in
  register_int reg (name "reads") ~help:"SSD read requests" (fun () -> t.stats.reads);
  register_int reg (name "writes") ~help:"SSD write requests" (fun () -> t.stats.writes);
  register_int reg (name "bytes_read") ~help:"bytes read from the SSD" (fun () ->
      t.stats.bytes_read);
  register_int reg (name "bytes_written") ~help:"bytes written to the SSD" (fun () ->
      t.stats.bytes_written);
  register_float reg (name "read_time_ns") ~kind:Counter
    ~help:"simulated ns spent in SSD reads" (fun () -> t.stats.read_time);
  register_float reg (name "write_time_ns") ~kind:Counter
    ~help:"simulated ns spent in SSD writes" (fun () -> t.stats.write_time);
  register_int reg (name "files") ~kind:Gauge ~help:"live files on the SSD" (fun () ->
      Hashtbl.length t.files);
  register_int reg (name "in_flight") ~kind:Gauge
    ~help:"async requests queued or in service" (fun () -> in_flight t);
  register_histogram reg (name "request_latency_ns")
    ~help:"per-request SSD service latency in ns" (fun () -> t.stats.request_latency)

let reset_stats t =
  let s = t.stats in
  s.reads <- 0;
  s.writes <- 0;
  s.bytes_read <- 0;
  s.bytes_written <- 0;
  s.read_time <- 0.0;
  s.write_time <- 0.0;
  Util.Histogram.reset s.request_latency
