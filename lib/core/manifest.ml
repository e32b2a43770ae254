(* The manifest: the engine's structural state, persisted to an SSD file
   whose id is the device's superblock root pointer. Recovery starts here:
   it names every PM region and SSD file of every partition, the WAL's PM
   ring, the sequence-number high-water mark, and any quarantined (damage-recorded)
   structures, so a fresh process can rebuild the DRAM handles without
   moving any data.

   Serialized with the varint codec plus a trailing CRC32; rewritten as a
   whole on structural changes (flushes, compactions, splits),
   RocksDB-MANIFEST style but snapshot-only. The superblock keeps two
   slots, so the previous manifest file is kept alive alongside the
   current one: if the current snapshot rots on the medium, [load] falls
   back to the previous good one instead of bricking recovery. *)

let magic = 0x504D4D46 (* "PMMF" *)

type row = { region_id : int; watermark : string }

type partition_state = {
  lo : string;
  hi : string;
  unsorted : row list;          (* newest first, as the engine holds them *)
  sorted_run : int list;        (* region ids, ascending *)
  ssd_l0 : int list;            (* file ids, newest first *)
  levels : int list list;       (* file ids per level, ascending *)
}

(* A damage record: the structure was quarantined (pulled from the read
   path) or salvaged with losses; [lo, hi] conservatively bounds the keys
   that may have been lost with it. Recovery must neither reopen nor
   garbage-collect the named structure. *)
type quarantined_source = Q_region of int | Q_file of int

type quarantine = { source : quarantined_source; q_lo : string; q_hi : string }

type state = {
  next_seq : int;
  wal_region_id : int option;
  partitions : partition_state list;
  quarantined : quarantine list;  (* newest first *)
}

let encode state =
  let buf = Buffer.create 1024 in
  Util.Varint.write buf magic;
  Util.Varint.write buf state.next_seq;
  (match state.wal_region_id with
  | Some id ->
      Util.Varint.write buf 1;
      Util.Varint.write buf id
  | None -> Util.Varint.write buf 0);
  Util.Varint.write buf (List.length state.partitions);
  List.iter
    (fun p ->
      Util.Varint.write_string buf p.lo;
      Util.Varint.write_string buf p.hi;
      Util.Varint.write buf (List.length p.unsorted);
      List.iter
        (fun r ->
          Util.Varint.write buf r.region_id;
          Util.Varint.write_string buf r.watermark)
        p.unsorted;
      Util.Varint.write buf (List.length p.sorted_run);
      List.iter (Util.Varint.write buf) p.sorted_run;
      Util.Varint.write buf (List.length p.ssd_l0);
      List.iter (Util.Varint.write buf) p.ssd_l0;
      Util.Varint.write buf (List.length p.levels);
      List.iter
        (fun level ->
          Util.Varint.write buf (List.length level);
          List.iter (Util.Varint.write buf) level)
        p.levels)
    state.partitions;
  Util.Varint.write buf (List.length state.quarantined);
  List.iter
    (fun q ->
      (match q.source with
      | Q_region id ->
          Util.Varint.write buf 0;
          Util.Varint.write buf id
      | Q_file id ->
          Util.Varint.write buf 1;
          Util.Varint.write buf id);
      Util.Varint.write_string buf q.q_lo;
      Util.Varint.write_string buf q.q_hi)
    state.quarantined;
  (* trailing checksum over everything above: decode refuses a snapshot
     whose bytes rotted, which is what triggers the dual-slot fallback *)
  let body = Buffer.contents buf in
  let crc = Util.Crc32.string body in
  Buffer.add_char buf (Char.chr (crc land 0xff));
  Buffer.add_char buf (Char.chr ((crc lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((crc lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((crc lsr 24) land 0xff));
  Buffer.contents buf

let decode raw =
  let total = String.length raw in
  if total < 5 then failwith "Manifest.decode: truncated";
  let body_len = total - 4 in
  let stored =
    Char.code raw.[body_len]
    lor (Char.code raw.[body_len + 1] lsl 8)
    lor (Char.code raw.[body_len + 2] lsl 16)
    lor (Char.code raw.[body_len + 3] lsl 24)
  in
  if Util.Crc32.update 0 raw 0 body_len <> stored then
    failwith "Manifest.decode: bad checksum";
  let m, pos = Util.Varint.read raw 0 in
  if m <> magic then failwith "Manifest.decode: bad magic";
  let next_seq, pos = Util.Varint.read raw pos in
  let has_wal, pos = Util.Varint.read raw pos in
  let wal_region_id, pos =
    if has_wal = 1 then
      let id, pos = Util.Varint.read raw pos in
      (Some id, pos)
    else (None, pos)
  in
  let read_list pos read_item =
    let n, pos = Util.Varint.read raw pos in
    let rec loop i pos acc =
      if i = n then (List.rev acc, pos)
      else
        let item, pos = read_item pos in
        loop (i + 1) pos (item :: acc)
    in
    loop 0 pos []
  in
  let read_int pos = Util.Varint.read raw pos in
  let n_partitions, pos = Util.Varint.read raw pos in
  let rec read_partitions i pos acc =
    if i = n_partitions then (List.rev acc, pos)
    else begin
      let lo, pos = Util.Varint.read_string raw pos in
      let hi, pos = Util.Varint.read_string raw pos in
      let unsorted, pos =
        read_list pos (fun pos ->
            let region_id, pos = Util.Varint.read raw pos in
            let watermark, pos = Util.Varint.read_string raw pos in
            ({ region_id; watermark }, pos))
      in
      let sorted_run, pos = read_list pos read_int in
      let ssd_l0, pos = read_list pos read_int in
      let levels, pos = read_list pos (fun pos -> read_list pos read_int) in
      read_partitions (i + 1) pos ({ lo; hi; unsorted; sorted_run; ssd_l0; levels } :: acc)
    end
  in
  let partitions, pos = read_partitions 0 pos [] in
  let quarantined, _ =
    read_list pos (fun pos ->
        let tag, pos = Util.Varint.read raw pos in
        let id, pos = Util.Varint.read raw pos in
        let q_lo, pos = Util.Varint.read_string raw pos in
        let q_hi, pos = Util.Varint.read_string raw pos in
        let source = if tag = 0 then Q_region id else Q_file id in
        ({ source; q_lo; q_hi }, pos))
  in
  { next_seq; wal_region_id; partitions; quarantined }

(* Fallbacks are rare enough that a process-wide counter (exposed as the
   manifest.fallback metric) is the right grain. *)
let fallbacks = ref 0
let fallback_count () = !fallbacks

(* Persist: write a fresh manifest file, point the superblock at it, and
   delete the manifest that falls off the two-slot window. Ordering is the
   crash-consistency story: the new manifest is fully durable (seal =
   barrier) *before* the atomic superblock flip, and files are deleted
   only *after* it — a crash at any point leaves the superblock naming at
   least one complete manifest, and medium rot in the current one still
   has the previous slot to fall back to. *)
let persist ~root ssd state =
  let _, prev = Ssd.root_slots ~name:root ssd in
  let falling_off = Option.bind prev (Ssd.find_file ssd) in
  let file = Ssd.create_file ssd in
  Ssd.append ssd file (encode state);
  Ssd.seal ssd file;
  Ssd.set_root ~name:root ssd (Ssd.file_id file);
  (match falling_off with Some old -> Ssd.delete_file ssd old | None -> ());
  if Obs.Trace.is_enabled () then
    Obs.Trace.instant "manifest.persist" ~attrs:(fun () ->
        [ ("file", Obs.Trace.Int (Ssd.file_id file)) ])

let load_slot ssd id =
  match Ssd.find_file ssd id with
  | None -> Error (Printf.sprintf "manifest file %d missing" id)
  | Some file -> (
      match decode (Ssd.pread ssd file ~off:0 ~len:(Ssd.file_size file)) with
      | state -> Ok state
      | exception Failure msg -> Error msg
      | exception Invalid_argument msg -> Error msg)

(* Load from the superblock: try the current slot, fall back to the
   previous one when the current snapshot is rotten. None only on a fresh
   device; raises [Failure] when every slot is unreadable (recovery must
   fail loudly, never proceed on a guess). *)
let load ~root ssd =
  match Ssd.root_slots ~name:root ssd with
  | None, _ -> None
  | Some current, prev -> (
      match load_slot ssd current with
      | Ok state -> Some state
      | Error msg -> (
          incr fallbacks;
          if Obs.Trace.is_enabled () then
            Obs.Trace.instant "manifest.fallback" ~attrs:(fun () ->
                [ ("slot", Obs.Trace.Int current); ("error", Obs.Trace.Str msg) ]);
          match prev with
          | None ->
              failwith
                (Printf.sprintf "Manifest.load: current slot unreadable (%s), no previous slot"
                   msg)
          | Some p -> (
              match load_slot ssd p with
              | Ok state -> Some state
              | Error msg2 ->
                  failwith
                    (Printf.sprintf "Manifest.load: both slots unreadable (%s; %s)" msg msg2)
              )))
