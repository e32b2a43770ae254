(* Write-ahead log on a persistent-memory ring.

   Every write is logged before it is acknowledged, so a crash loses
   nothing acknowledged: recovery replays the ring into a fresh memtable.
   The ring is one PM region sized for a memtable's worth of records; it
   is never wrapped — [rotate] starts a fresh region at every memtable
   flush, when the flushed data is durable in level-0 and the old ring can
   go.

   [append] only stages the record in a DRAM group buffer, framing it in
   place; [sync] is the durability point. It writes the whole staged group
   to the ring in one PM write straight from that buffer, writes back
   exactly the cache lines the group touched, and issues one fence. A
   group of k writers therefore costs one fence. No tail pointer is
   persisted: each record carries its own validity, so there is no second
   flush+fence per append (van Renen et al., "Persistent Memory I/O
   Primitives").

   Each record is framed as [crc32 | length | payload] so replay can tell
   medium rot from a torn tail: a record whose checksum fails but whose
   length field still bounds a plausible payload is skipped and counted,
   and replay continues with the next frame; a frame that does not fit
   the remaining bytes ends the replay (torn tail). Replay reads only the
   ring's fenced extent ([Pmem.durable_upto]): bytes past it were never
   banked, so the ring's unwritten (never-zeroed) remainder is never
   decoded, and staged-but-unsynced records are never resurrected. *)

type replay_stats = {
  entries : int;  (* entries decoded and delivered *)
  corrupt_records : int;  (* checksum-failed records skipped *)
  torn_tail : bool;  (* replay ended at an incomplete trailing frame *)
  dropped_bytes : int;  (* bytes not delivered (skipped + torn) *)
}

type stats = {
  mutable syncs : int;
  mutable bytes : int;
  mutable lines : int;
  mutable fences : int;
  mutable high_water : int;
}

type t = {
  pm : Pmem.t;
  capacity : int;
  mutable ring : Pmem.region;
  mutable tail : int;  (* end of the last synced group: the next append offset *)
  mutable buf : Bytes.t;  (* the staged group is its first [staged] bytes *)
  mutable staged : int;
  mutable appended : int;  (* entries in the current ring, staged included *)
  mutable sync_hook : (unit -> unit) option;
  stats : stats;
}

let line_bytes = 64

(* A record longer than this cannot be real: a "length" above it is frame
   garbage, not a skippable record. *)
let max_record_bytes = 16 * 1024 * 1024

let frame_header_bytes = 8

(* Planted-bug kill switch (cf. [Pmtable.Builder.chaos_skip_drain]): sync
   writes back the group but skips the fence, so the acknowledged group is
   not durable until some later fence. pmsan, pmlint and the crash sweep
   must each catch it. Never set in production code. *)
let chaos_skip_drain = ref false

(* A memtable's records plus their frame headers: the memtable flushes at
   [memtable_bytes] of encoded entries, and each record adds an 8-byte
   header. A quarter of headroom covers the headers of entries down to
   32 B; smaller entries reach the ring-full path, which flushes early. *)
let ring_bytes ~memtable_bytes = memtable_bytes + (memtable_bytes / 4)

let read_u32 s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let fresh_stats () = { syncs = 0; bytes = 0; lines = 0; fences = 0; high_water = 0 }

let attach pm ring ~tail =
  {
    pm;
    capacity = Pmem.region_len ring;
    ring;
    tail;
    buf = Bytes.create 4096;
    staged = 0;
    appended = 0;
    sync_hook = None;
    stats = { (fresh_stats ()) with high_water = tail };
  }

let create ~capacity pm = attach pm (Pmem.alloc pm capacity) ~tail:0

let region_id t = Pmem.region_id t.ring
let capacity t = t.capacity
let tail t = t.tail
let stats t = t.stats

let set_sync_hook t hook = t.sync_hook <- hook

let buffered_bytes t = t.staged

let fits t = t.tail + t.staged <= t.capacity

(* Durability point. The fault hook runs first and may raise (crash at the
   site, nothing written). The group goes to the ring in one write; the
   write-back starts at the line holding the group's first byte, so every
   line the group touched is flushed exactly once. *)
let sync t =
  let len = t.staged in
  if len > 0 then begin
    if t.tail + len > t.capacity then invalid_arg "Wal.sync: group overflows the ring";
    (match t.sync_hook with Some hook -> hook () | None -> ());
    if Obs.Trace.is_enabled () then
      Obs.Trace.instant "wal.sync" ~attrs:(fun () -> [ ("bytes", Obs.Trace.Int len) ]);
    let off = t.tail in
    let line0 = off land lnot (line_bytes - 1) in
    Pmem.write t.pm t.ring ~off ~src_off:0 ~len (Bytes.unsafe_to_string t.buf);
    Pmem.flush t.pm t.ring ~off:line0 ~len:(off + len - line0);
    if not !chaos_skip_drain then begin
      Pmem.drain t.pm;
      t.stats.fences <- t.stats.fences + 1
    end;
    t.tail <- off + len;
    t.staged <- 0;
    t.stats.syncs <- t.stats.syncs + 1;
    t.stats.bytes <- t.stats.bytes + len;
    t.stats.lines <- t.stats.lines + ((off + len - line0 + line_bytes - 1) / line_bytes);
    t.stats.high_water <- max t.stats.high_water t.tail
  end;
  (* pmlint:allow flush-before-commit: the only unfenced path is the
     chaos_skip_drain kill switch above, planted so pmsan, the pmlint
     fixture and the crash sweep can prove they catch an unfenced log;
     pmsan checks the real protocol on every sanitized run *)
  Pmem.commit_point t.pm "wal.sync"

(* Stage the entry in the group buffer; it reaches the ring (and becomes
   durable) at the next [sync]. The payload is encoded straight into the
   buffer behind room for its header, then checksummed where it lies. *)
let append t entry =
  let len = Util.Kv.encoded_size entry in
  let frame = t.staged and need = t.staged + frame_header_bytes + len in
  if need > Bytes.length t.buf then begin
    let grown = Bytes.create (max need (2 * Bytes.length t.buf)) in
    Bytes.blit t.buf 0 grown 0 t.staged;
    t.buf <- grown
  end;
  let payload_off = frame + frame_header_bytes in
  ignore (Util.Kv.encode_into t.buf payload_off entry : int);
  let crc = Util.Crc32.update 0 (Bytes.unsafe_to_string t.buf) payload_off len in
  Bytes.set_int32_le t.buf frame (Int32.of_int crc);
  Bytes.set_int32_le t.buf (frame + 4) (Int32.of_int len);
  t.staged <- need;
  t.appended <- t.appended + 1

(* Start a fresh ring: the old ring's records — staged ones included —
   are in the memtable being flushed, hence durable in level-0. The new
   region is allocated first, so an [Out_of_space] leaves the log as it
   was. *)
let rotate t =
  if Obs.Trace.is_enabled () then
    Obs.Trace.instant "wal.rotate" ~attrs:(fun () ->
        [ ("entries", Obs.Trace.Int t.appended); ("bytes", Obs.Trace.Int t.tail) ]);
  let fresh = Pmem.alloc t.pm t.capacity in
  Pmem.free t.pm t.ring;
  t.ring <- fresh;
  t.tail <- 0;
  t.staged <- 0;
  t.appended <- 0

let free t = Pmem.free t.pm t.ring

let entry_count t = t.appended

(* Decode every *durable* entry, oldest first (replay order). The DRAM
   buffer is deliberately not consulted: after a crash those entries were
   never acknowledged as synced and must not be resurrected. *)
let replay t f =
  let size = Pmem.durable_upto t.ring in
  if size = 0 then
    { entries = 0; corrupt_records = 0; torn_tail = false; dropped_bytes = 0 }
  else begin
    (* the ring's durable prefix, decoded in place: every decoded entry is
       a copy, and [size] bounds every frame *)
    let raw = Pmem.read_in_place t.pm t.ring ~off:0 ~len:size in
    let pos = ref 0 in
    let entries = ref 0 in
    let corrupt = ref 0 in
    let skipped_bytes = ref 0 in
    let torn = ref false in
    while (not !torn) && !pos < size do
      if !pos + frame_header_bytes > size then begin
        torn := true;
        if Obs.Trace.is_enabled () then
          Obs.Trace.instant "wal.torn_tail" ~attrs:(fun () ->
              [ ("offset", Obs.Trace.Int !pos); ("size", Obs.Trace.Int size) ])
      end
      else begin
        let crc = read_u32 raw !pos in
        let len = read_u32 raw (!pos + 4) in
        if len <= 0 || len > max_record_bytes || !pos + frame_header_bytes + len > size
        then begin
          (* the frame does not fit: either the crash tore the final group,
             or rot hit the length field itself — either way nothing beyond
             this point can be trusted *)
          torn := true;
          if Obs.Trace.is_enabled () then
            Obs.Trace.instant "wal.torn_tail" ~attrs:(fun () ->
                [ ("offset", Obs.Trace.Int !pos); ("size", Obs.Trace.Int size) ])
        end
        else begin
          let payload_off = !pos + frame_header_bytes in
          if Util.Crc32.update 0 raw payload_off len <> crc then begin
            (* checksum failure with an intact-looking frame: skip exactly
               this record and keep replaying the ones after it *)
            incr corrupt;
            skipped_bytes := !skipped_bytes + frame_header_bytes + len;
            if Obs.Trace.is_enabled () then
              Obs.Trace.instant "wal.corrupt_record" ~attrs:(fun () ->
                  [ ("offset", Obs.Trace.Int !pos); ("len", Obs.Trace.Int len) ]);
            pos := payload_off + len
          end
          else
            match Util.Kv.decode raw payload_off with
            | entry, next when next <= payload_off + len ->
                pos := payload_off + len;
                incr entries;
                f entry
            | _ | (exception _) ->
                (* checksum passed but the payload does not decode — frame
                   garbage that happened to checksum; treat as corrupt *)
                incr corrupt;
                skipped_bytes := !skipped_bytes + frame_header_bytes + len;
                pos := payload_off + len
        end
      end
    done;
    {
      entries = !entries;
      corrupt_records = !corrupt;
      torn_tail = !torn;
      dropped_bytes = !skipped_bytes + (if !torn then size - !pos else 0);
    }
  end

(* Checksum-walk the durable log without delivering entries (scrub). *)
let verify t = replay t (fun _ -> ())

(* Reattach to a persisted ring after a restart; appends resume at its
   fenced extent. *)
let open_existing pm ~region_id =
  match Pmem.find_region pm region_id with
  | Some ring -> attach pm ring ~tail:(Pmem.durable_upto ring)
  | None -> failwith (Printf.sprintf "Wal.open_existing: log region %d missing" region_id)

let pp_summary ppf t =
  let kib n = float_of_int n /. 1024.0 in
  Fmt.pf ppf
    "PM ring region %d, %.1f KiB: tail %.1f KiB, high water %.1f KiB; %d syncs, %d lines, \
     %d fences"
    (region_id t) (kib t.capacity) (kib t.tail) (kib t.stats.high_water) t.stats.syncs
    t.stats.lines t.stats.fences
