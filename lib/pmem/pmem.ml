(* Persistent-memory device simulator.

   The environment has no Optane hardware, so PM is modelled as an in-memory
   arena whose every access charges calibrated latency to the virtual clock
   and updates byte counters. The cost model is calibrated against the
   paper's own measurements (Table I: binary search over 1M entries costs
   3.3 us on PM vs 2.6 us from the DRAM cache vs 22.3 us from SSD) and the
   published Optane characterisation the paper cites: reads a small factor
   slower than DRAM, writes substantially slower and bandwidth-limited.

   Persistence semantics: writes land in a (simulated) CPU-cache domain and
   become durable only after [flush] + [drain] (clwb + sfence): a flush
   queues its range for write-back and the next fence banks every queued
   range, so a crash between the two loses the flushed bytes. Crash tests
   use [crash] to discard unfenced writes and [recover] to reopen the
   device from its durable contents. *)

type params = {
  capacity : int;            (* bytes *)
  read_access_ns : float;    (* fixed cost of a random read access *)
  write_access_ns : float;   (* fixed cost of a random write access *)
  read_byte_ns : float;      (* per-byte read cost (1/bandwidth) *)
  write_byte_ns : float;     (* per-byte write cost (1/bandwidth) *)
  flush_ns : float;          (* cost of one cache-line flush (clwb) *)
  drain_ns : float;          (* cost of a persistence fence (sfence) *)
}

(* Calibration notes:
   - read: 160 ns + 0.35 ns/B  (~2.9 GB/s streaming, matching Optane read)
   - write: 450 ns + 1.0 ns/B, plus 40 ns clwb per 64 B line: ~0.6 GB/s
     effective persisted-write bandwidth — faster than the SSD's sustained
     write path, as the paper's Table V requires
   - 20-probe binary search = 20 * (160 + ~8B*0.35) ~= 3.3 us  (Table I). *)
let default_params =
  {
    capacity = 128 * 1024 * 1024;
    read_access_ns = 160.0;
    write_access_ns = 450.0;
    read_byte_ns = 0.35;
    write_byte_ns = 1.0;
    flush_ns = 40.0;
    drain_ns = 50.0;
  }

type stats = {
  mutable reads : int;
  mutable writes : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable flushes : int;
  mutable drains : int;
  mutable read_time : float;
  mutable write_time : float;
  mutable flush_time : float;
  mutable allocs : int;
  mutable frees : int;
}

let fresh_stats () =
  {
    reads = 0;
    writes = 0;
    bytes_read = 0;
    bytes_written = 0;
    flushes = 0;
    drains = 0;
    read_time = 0.0;
    write_time = 0.0;
    flush_time = 0.0;
    allocs = 0;
    frees = 0;
  }

type region = {
  id : int;
  buf : Bytes.t;
  len : int;
  mutable live : bool;
  mutable durable_upto : int;  (* high-water mark of fenced bytes *)
  mutable shadow : Bytes.t option;  (* durable image, materialised lazily on crash tests *)
}

(* Fault-injection hook points (lib/fault arms these): the flush hook can
   report a flush as partially applied or silently lost, the drain hook can
   abort the run at the fence (a crash site). Both default to absent and
   cost nothing when unset. *)
type flush_outcome =
  | Flush_ok
  | Flush_partial of int
  | Flush_dropped
  | Flush_slow of float

type t = {
  clock : Sim.Clock.t;
  params : params;
  stats : stats;
  mutable used : int;
  mutable next_id : int;
  mutable regions : region list;
  mutable crash_mode : bool;  (* when true, track durable images for crash tests *)
  (* regions freed while in crash mode: their durable bytes are still on
     the medium (a PM "free" is allocator metadata), so a crash can
     resurrect them — exactly what recovery needs when the manifest that
     referenced them was the last durable one *)
  mutable graveyard : region list;
  (* ranges flushed since the last fence: (region, off, len), durable only
     once the next [drain] banks them *)
  mutable unfenced : (region * int * int) list;
  mutable flush_hook : (region_id:int -> off:int -> len:int -> flush_outcome) option;
  mutable drain_hook : (unit -> unit) option;
  (* persistence-ordering sanitizer (lib/sanitize); attached at creation
     when the global switch is on, detachable per device *)
  san : Sanitize.Pmsan.t option;
}

exception Out_of_space of { requested : int; available : int }

let create ?(params = default_params) clock =
  {
    clock;
    params;
    stats = fresh_stats ();
    used = 0;
    next_id = 0;
    regions = [];
    crash_mode = false;
    graveyard = [];
    unfenced = [];
    flush_hook = None;
    drain_hook = None;
    san =
      (if Sanitize.Control.is_enabled () then Some (Sanitize.Pmsan.create ())
       else None);
  }

let capacity t = t.params.capacity
let used t = t.used
let available t = t.params.capacity - t.used
let stats t = t.stats
let clock t = t.clock

let enable_crash_mode t = t.crash_mode <- true

let set_flush_hook t hook = t.flush_hook <- hook
let set_drain_hook t hook = t.drain_hook <- hook

let sanitizer t = t.san

let commit_point t name =
  match t.san with
  | Some san -> Sanitize.Pmsan.on_commit_point san name
  | None -> ()

let alloc t len =
  if len < 0 then invalid_arg "Pmem.alloc: negative length";
  if len > available t then raise (Out_of_space { requested = len; available = available t });
  let region =
    { id = t.next_id; buf = Bytes.create len; len; live = true; durable_upto = 0; shadow = None }
  in
  (* Never-fenced bytes revert to zeroes at a crash, not to whatever the
     host allocator left behind: recovery of the same seed sees the same
     image. *)
  if t.crash_mode then region.shadow <- Some (Bytes.make len '\000');
  t.next_id <- t.next_id + 1;
  t.used <- t.used + len;
  t.stats.allocs <- t.stats.allocs + 1;
  t.regions <- region :: t.regions;
  (match t.san with
  | Some san -> Sanitize.Pmsan.on_alloc san ~id:region.id ~len
  | None -> ());
  region

let free t region =
  if region.live then begin
    region.live <- false;
    t.used <- t.used - region.len;
    t.stats.frees <- t.stats.frees + 1;
    t.regions <- List.filter (fun r -> r.id <> region.id) t.regions;
    (* In crash mode the durable bytes outlive the free: keep the region
       resurrectable until the next crash (the allocator metadata that
       would recycle the space is part of the manifest commit). *)
    if t.crash_mode then t.graveyard <- region :: t.graveyard;
    match t.san with
    | Some san -> Sanitize.Pmsan.on_free san ~id:region.id
    | None -> ()
  end

let region_len region = region.len
let region_id region = region.id

let find_region t id = List.find_opt (fun r -> r.id = id) t.regions

let live_regions t = List.rev t.regions

let check_bounds name region off len =
  if not region.live then invalid_arg (name ^ ": region already freed");
  if off < 0 || len < 0 || off + len > region.len then invalid_arg (name ^ ": out of bounds")

let charge_read t len =
  let dt = t.params.read_access_ns +. (float_of_int len *. t.params.read_byte_ns) in
  if Obs.Trace.io_enabled () then
    Obs.Trace.io_event "pm.read" ~ts:(Sim.Clock.now t.clock) ~dur:dt ~bytes:len;
  Sim.Clock.advance t.clock dt;
  Obs.Attr.charge Obs.Attr.Pm_read dt;
  t.stats.reads <- t.stats.reads + 1;
  t.stats.bytes_read <- t.stats.bytes_read + len;
  t.stats.read_time <- t.stats.read_time +. dt

let charge_write t len =
  let dt = t.params.write_access_ns +. (float_of_int len *. t.params.write_byte_ns) in
  if Obs.Trace.io_enabled () then
    Obs.Trace.io_event "pm.write" ~ts:(Sim.Clock.now t.clock) ~dur:dt ~bytes:len;
  Sim.Clock.advance t.clock dt;
  t.stats.writes <- t.stats.writes + 1;
  t.stats.bytes_written <- t.stats.bytes_written + len;
  t.stats.write_time <- t.stats.write_time +. dt

(* One read request over [off, off+len), answered with the region's own
   bytes instead of a copy: the caller decodes in place and drops the view
   before the region changes. *)
let read_in_place t region ~off ~len =
  check_bounds "Pmem.read_in_place" region off len;
  charge_read t len;
  (match t.san with
  | Some san -> Sanitize.Pmsan.on_read san ~id:region.id ~off ~len
  | None -> ());
  Bytes.unsafe_to_string region.buf

let write t region ~off ?(src_off = 0) ?len src =
  let len = match len with Some len -> len | None -> String.length src - src_off in
  if src_off < 0 || len < 0 || src_off + len > String.length src then
    invalid_arg "Pmem.write: source out of bounds";
  check_bounds "Pmem.write" region off len;
  charge_write t len;
  (match t.san with
  | Some san -> Sanitize.Pmsan.on_write san ~id:region.id ~off ~len
  | None -> ());
  Bytes.blit_string src src_off region.buf off len

let flush t region ~off ~len =
  check_bounds "Pmem.flush" region off len;
  let lines = (len + 63) / 64 in
  let dt = float_of_int lines *. t.params.flush_ns in
  if Obs.Trace.io_enabled () then
    Obs.Trace.io_event "pm.flush" ~ts:(Sim.Clock.now t.clock) ~dur:dt ~bytes:len;
  Sim.Clock.advance t.clock dt;
  t.stats.flushes <- t.stats.flushes + lines;
  t.stats.flush_time <- t.stats.flush_time +. dt;
  (* The sanitizer records the program-issued clwb (before fault injection:
     a dropped flush is the medium lying, not an ordering bug). *)
  (match t.san with
  | Some san -> Sanitize.Pmsan.on_flush san ~id:region.id ~off ~len
  | None -> ());
  let persisted =
    match t.flush_hook with
    | None -> len
    | Some hook -> (
        (* The hook may raise (crash at this site), shrink/void the
           persisted range (partial flush, dropped clwb), or inflate the
           flush latency (a fail-slow DIMM: the data persists, late). *)
        match hook ~region_id:region.id ~off ~len with
        | Flush_ok -> len
        | Flush_partial n -> max 0 (min n len)
        | Flush_dropped -> 0
        | Flush_slow mult ->
            let extra = Float.max 0.0 ((mult -. 1.0) *. dt) in
            Sim.Clock.advance t.clock extra;
            t.stats.flush_time <- t.stats.flush_time +. extra;
            len)
  in
  if persisted > 0 then t.unfenced <- (region, off, persisted) :: t.unfenced

let drain t =
  (* The hook may raise (crash between flush and fence): the sanitizer
     must only see fences that actually executed, and the queued
     write-backs stay unbanked, so both run after. *)
  (match t.drain_hook with Some hook -> hook () | None -> ());
  (match t.san with Some san -> Sanitize.Pmsan.on_drain san | None -> ());
  List.iter
    (fun (region, off, len) ->
      (match region.shadow with
      | Some shadow -> Bytes.blit region.buf off shadow off len
      | None -> ());
      region.durable_upto <- max region.durable_upto (off + len))
    t.unfenced;
  t.unfenced <- [];
  t.stats.drains <- t.stats.drains + 1;
  Sim.Clock.advance t.clock t.params.drain_ns

(* Crash simulation: unfenced bytes revert to the durable image, and
   regions freed since crash mode was enabled come back (their durable
   contents were never overwritten; recovery's orphan GC reclaims the ones
   no manifest references). Only meaningful when crash mode was enabled
   before the writes. *)
let crash t =
  (* write-backs no fence banked never reached the medium *)
  t.unfenced <- [];
  let resurrected = t.graveyard in
  List.iter
    (fun region ->
      region.live <- true;
      t.used <- t.used + region.len;
      t.regions <- region :: t.regions)
    t.graveyard;
  t.graveyard <- [];
  List.iter
    (fun region ->
      match region.shadow with
      | Some shadow -> Bytes.blit shadow 0 region.buf 0 region.len
      | None -> ())
    t.regions;
  (* Every region reverted to its durable image: nothing is outstanding in
     the persistence domain any more, and resurrected regions need fresh
     (clean) shadows. *)
  match t.san with
  | None -> ()
  | Some san ->
      Sanitize.Pmsan.on_crash san;
      List.iter
        (fun region ->
          Sanitize.Pmsan.on_alloc san ~id:region.id ~len:region.len)
        resurrected

let durable_upto region = region.durable_upto

(* Zero-cost peek for tests and invariant checks; charges no simulated time. *)
let unsafe_peek region ~off ~len = Bytes.sub_string region.buf off len

(* Medium-fault injection: damage bytes in place without charging the
   virtual clock — the rot belongs to the medium, not the workload. The
   durable shadow is damaged too, so the corruption survives a crash's
   revert-to-durable-image (bit rot is not undone by power loss). *)
let corrupt_region ?(len = 1) ?(mode = `Flip) _t region ~off =
  if len < 1 then invalid_arg "Pmem.corrupt_region: len < 1";
  if off < 0 || off + len > region.len then
    invalid_arg "Pmem.corrupt_region: out of bounds";
  let damage buf =
    match mode with
    | `Flip ->
        for i = off to off + len - 1 do
          Bytes.set buf i (Char.chr (Char.code (Bytes.get buf i) lxor 0xff))
        done
    | `Zero -> Bytes.fill buf off len '\000'
  in
  damage region.buf;
  match region.shadow with Some shadow -> damage shadow | None -> ()

(* Stable dotted metric names for the registry exporters; every readout
   pulls from [t.stats] at exposition time. *)
let register_metrics reg t =
  let name suffix = "pmem." ^ suffix in
  let open Obs.Registry in
  register_int reg (name "reads") ~help:"PM read accesses" (fun () -> t.stats.reads);
  register_int reg (name "writes") ~help:"PM write accesses" (fun () -> t.stats.writes);
  register_int reg (name "bytes_read") ~help:"bytes read from PM media" (fun () ->
      t.stats.bytes_read);
  register_int reg (name "bytes_written") ~help:"bytes written to PM media" (fun () ->
      t.stats.bytes_written);
  register_int reg (name "flushes") ~help:"cache-line flushes (clwb)" (fun () ->
      t.stats.flushes);
  register_int reg (name "drains") ~help:"persistence fences (sfence)" (fun () ->
      t.stats.drains);
  register_float reg (name "read_time_ns") ~kind:Counter
    ~help:"simulated ns spent in PM reads" (fun () -> t.stats.read_time);
  register_float reg (name "write_time_ns") ~kind:Counter
    ~help:"simulated ns spent in PM writes" (fun () -> t.stats.write_time);
  register_float reg (name "flush_time_ns") ~kind:Counter
    ~help:"simulated ns spent in cache-line flushes" (fun () -> t.stats.flush_time);
  register_int reg (name "allocs") ~help:"PM region allocations" (fun () ->
      t.stats.allocs);
  register_int reg (name "frees") ~help:"PM region frees" (fun () -> t.stats.frees);
  register_int reg (name "used_bytes") ~kind:Gauge ~help:"PM bytes currently allocated"
    (fun () -> t.used);
  register_int reg (name "capacity_bytes") ~kind:Gauge ~help:"configured PM capacity"
    (fun () -> t.params.capacity);
  register_int reg (name "regions") ~kind:Gauge ~help:"live PM regions" (fun () ->
      List.length t.regions)

let reset_stats t =
  let s = t.stats in
  s.reads <- 0;
  s.writes <- 0;
  s.bytes_read <- 0;
  s.bytes_written <- 0;
  s.flushes <- 0;
  s.drains <- 0;
  s.read_time <- 0.0;
  s.write_time <- 0.0;
  s.flush_time <- 0.0;
  s.allocs <- 0;
  s.frees <- 0
