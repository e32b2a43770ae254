(* SSTable on the simulated SSD, RocksDB-flavoured.

   File layout: data blocks (~4 KiB of encoded entries) appended in key
   order. The index (last key + extent per block) and the Bloom filter are
   kept in the handle, modelling RocksDB's pinned index/filter blocks; data
   block reads hit the device — or DRAM, via the engine-wide
   capacity-bounded shared block cache ({!Cache.Block_cache}), which is
   also how the "SSTable in cache" row of Table I is produced.

   Point lookup: bloom check (DRAM, ~free), binary search the index (DRAM),
   read one data block (SSD or cache), scan the block.

   Compaction-sized I/O: a build lays the whole table out in DRAM as an
   exact-size image and writes it as one device request; a compaction
   input ([cursor]) is read back as one readahead request over the data
   region, decoded in place from the device's bytes, and bypasses the
   block cache. *)

let default_block_bytes = 4096
let bits_per_key = 10

type block_meta = { last_key : string; off : int; len : int; entries : int; crc : int }

(* [block = -1] means the meta block (index/filter/stats) failed its
   checksum rather than a data block. *)
exception Corrupted_block of { file_id : int; block : int }

(* Kill switch for every CRC comparison in this module — exists so a fault
   sweep can plant the "forgot to verify checksums" bug and prove it gets
   caught. Leave it [true]. *)
let verify_checksums = ref true

type t = {
  ssd : Ssd.t;
  file : Ssd.file;
  blocks : block_meta array;
  bloom : Bloom.t;
  count : int;
  min_key : string;
  max_key : string;
  payload_bytes : int;
  mutable shared : Cache.Block_cache.t option;  (* engine-wide bounded cache *)
}

let dram_access_ns = 100.0
let decode_cpu_ns = 25.0

let charge_cpu t ns = Sim.Clock.advance (Ssd.clock t.ssd) ns

(* --- Builder --------------------------------------------------------- *)

type builder = {
  b_ssd : Ssd.t;
  b_block_bytes : int;
  b_current : Buffer.t;
  mutable b_current_entries : int;
  mutable b_blocks : block_meta list;
  mutable b_data : string list;  (* finished data blocks, newest first *)
  mutable b_last_key : string;
  mutable b_first_key : string option;
  mutable b_count : int;
  mutable b_min_seq : int;
  mutable b_max_seq : int;
  mutable b_payload : int;
  mutable b_keys : string list;
  mutable b_off : int;
}

let create_builder ?(block_bytes = default_block_bytes) ssd =
  {
    b_ssd = ssd;
    b_block_bytes = block_bytes;
    b_current = Buffer.create block_bytes;
    b_current_entries = 0;
    b_blocks = [];
    b_data = [];
    b_last_key = "";
    b_first_key = None;
    b_count = 0;
    b_min_seq = max_int;
    b_max_seq = min_int;
    b_payload = 0;
    b_keys = [];
    b_off = 0;
  }

(* Finished blocks stay in DRAM until [finish_image] lays the whole table
   out; [sstable_target_bytes] bounds them. *)
let flush_block b =
  if Buffer.length b.b_current > 0 then begin
    let data = Buffer.contents b.b_current in
    b.b_data <- data :: b.b_data;
    b.b_blocks <-
      { last_key = b.b_last_key; off = b.b_off; len = String.length data;
        entries = b.b_current_entries; crc = Util.Crc32.string data }
      :: b.b_blocks;
    b.b_off <- b.b_off + String.length data;
    Buffer.clear b.b_current;
    b.b_current_entries <- 0
  end

let add b (e : Util.Kv.entry) =
  if b.b_count > 0 && String.compare b.b_last_key e.key > 0 then
    invalid_arg "Sstable.add: entries must arrive in key order";
  if b.b_first_key = None then b.b_first_key <- Some e.key;
  Util.Kv.encode b.b_current e;
  b.b_current_entries <- b.b_current_entries + 1;
  b.b_last_key <- e.key;
  b.b_count <- b.b_count + 1;
  b.b_payload <- b.b_payload + Util.Kv.encoded_size e;
  if e.seq < b.b_min_seq then b.b_min_seq <- e.seq;
  if e.seq > b.b_max_seq then b.b_max_seq <- e.seq;
  b.b_keys <- e.key :: b.b_keys;
  if Buffer.length b.b_current >= b.b_block_bytes then flush_block b

let meta_magic = 0x53535442 (* "SSTB" *)

(* Index + filter are persisted in a meta block so the table can be
   reopened after a restart (and they cost device writes, like RocksDB's
   index/filter blocks), even though the handle pins them in DRAM. *)
let encode_meta b bloom =
  let buf = Buffer.create 1024 in
  let blocks = List.rev b.b_blocks in
  Util.Varint.write buf (List.length blocks);
  List.iter
    (fun m ->
      Util.Varint.write_string buf m.last_key;
      Util.Varint.write buf m.off;
      Util.Varint.write buf m.len;
      Util.Varint.write buf m.entries;
      Util.Varint.write buf m.crc)
    blocks;
  Util.Varint.write_string buf (Bloom.serialize bloom);
  Util.Varint.write buf b.b_count;
  Util.Varint.write_string buf (match b.b_first_key with Some k -> k | None -> "");
  Util.Varint.write_string buf b.b_last_key;
  Util.Varint.write buf b.b_min_seq;
  Util.Varint.write buf b.b_max_seq;
  Util.Varint.write buf b.b_payload;
  (* fixed footer: u32 meta CRC (over the payload above) | u32 meta offset
     | u32 magic — the index that locates every other checksum is itself
     checksummed *)
  let add_u32 v =
    Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr (v land 0xff))
  in
  add_u32 (Util.Crc32.string (Buffer.contents buf));
  add_u32 b.b_off;
  add_u32 meta_magic;
  Buffer.contents buf

(* A finished table laid out in DRAM: [i_bytes] is the whole file, data
   blocks then meta block, at its exact size. *)
type image = {
  i_ssd : Ssd.t;
  i_bytes : Bytes.t;
  i_blocks : block_meta array;
  i_bloom : Bloom.t;
  i_count : int;
  i_min_key : string;
  i_max_key : string;
  i_payload : int;
}

let finish_image b =
  if b.b_count = 0 then invalid_arg "Sstable.finish_image: empty table";
  flush_block b;
  let bloom = Bloom.of_keys ~bits_per_key b.b_keys in
  let meta = encode_meta b bloom in
  let bytes = Bytes.create (b.b_off + String.length meta) in
  let off =
    List.fold_left
      (fun off data ->
        Bytes.blit_string data 0 bytes off (String.length data);
        off + String.length data)
      0 (List.rev b.b_data)
  in
  Bytes.blit_string meta 0 bytes off (String.length meta);
  {
    i_ssd = b.b_ssd;
    i_bytes = bytes;
    i_blocks = Array.of_list (List.rev b.b_blocks);
    i_bloom = bloom;
    i_count = b.b_count;
    i_min_key = (match b.b_first_key with Some k -> k | None -> "");
    i_max_key = b.b_last_key;
    i_payload = b.b_payload;
  }

(* The build's device work: a fresh file, one write request of the whole
   image (the file adopts its bytes), and the sealing barrier. *)
let write_image img =
  let file = Ssd.create_file img.i_ssd in
  Ssd.append_owned img.i_ssd file img.i_bytes;
  Ssd.seal img.i_ssd file;
  {
    ssd = img.i_ssd;
    file;
    blocks = img.i_blocks;
    bloom = img.i_bloom;
    count = img.i_count;
    min_key = img.i_min_key;
    max_key = img.i_max_key;
    payload_bytes = img.i_payload;
    shared = None;
  }

let finish b = write_image (finish_image b)

let build ?block_bytes ssd entries =
  let b = create_builder ?block_bytes ssd in
  Array.iter (add b) entries;
  finish b

let of_sorted_list ?block_bytes ssd entries =
  let b = create_builder ?block_bytes ssd in
  List.iter (add b) entries;
  finish b

(* --- Reader ---------------------------------------------------------- *)

(* Reopen a sealed table from its file after a restart: the footer locates
   the meta block, which restores the index, the Bloom filter, and the
   statistics. Charged as one device read of the meta block. *)
let footer_bytes = 12

let open_existing ssd file =
  let size = Ssd.file_size file in
  if size < footer_bytes then invalid_arg "Sstable.open_existing: file too small";
  let footer = Ssd.pread ssd file ~off:(size - footer_bytes) ~len:footer_bytes in
  let u32 pos =
    let b k = Char.code footer.[pos + k] in
    (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3
  in
  if u32 8 <> meta_magic then
    failwith "Sstable.open_existing: bad magic (not an SSTable, or torn write)";
  let meta_crc = u32 0 in
  let meta_off = u32 4 in
  if meta_off < 0 || meta_off > size - footer_bytes then
    raise (Corrupted_block { file_id = Ssd.file_id file; block = -1 });
  let meta = Ssd.pread ssd file ~off:meta_off ~len:(size - footer_bytes - meta_off) in
  if !verify_checksums && Util.Crc32.string meta <> meta_crc then
    raise (Corrupted_block { file_id = Ssd.file_id file; block = -1 });
  let block_count, pos = Util.Varint.read meta 0 in
  let pos = ref pos in
  let blocks =
    Array.init block_count (fun _ ->
        let last_key, p = Util.Varint.read_string meta !pos in
        let off, p = Util.Varint.read meta p in
        let len, p = Util.Varint.read meta p in
        let entries, p = Util.Varint.read meta p in
        let crc, p = Util.Varint.read meta p in
        pos := p;
        { last_key; off; len; entries; crc })
  in
  let bloom_raw, p = Util.Varint.read_string meta !pos in
  let bloom = Bloom.deserialize bloom_raw in
  let count, p = Util.Varint.read meta p in
  let min_key, p = Util.Varint.read_string meta p in
  let max_key, p = Util.Varint.read_string meta p in
  (* the persisted min/max seq: part of the format, read by nothing *)
  let _min_seq, p = Util.Varint.read meta p in
  let _max_seq, p = Util.Varint.read meta p in
  let payload_bytes, _ = Util.Varint.read meta p in
  {
    ssd;
    file;
    blocks;
    bloom;
    count;
    min_key;
    max_key;
    payload_bytes;
    shared = None;
  }

let count t = t.count
let byte_size t = Ssd.file_size t.file
let file_id t = Ssd.file_id t.file
let payload_bytes t = t.payload_bytes
let min_key t = t.min_key
let max_key t = t.max_key
let block_count t = Array.length t.blocks

let attach_shared_cache t cache = t.shared <- Some cache

(* Drop this table's blocks from the shared cache. Must run whenever the
   file's bytes stop being authoritative: deletion, quarantine, or a
   salvage rewrite; otherwise a stale cached block could answer for data
   the device no longer holds. *)
let invalidate_cache t =
  match t.shared with
  | Some c -> Cache.Block_cache.invalidate_file c ~file_id:(Ssd.file_id t.file)
  | None -> ()

let delete t =
  invalidate_cache t;
  Ssd.delete_file t.ssd t.file

(* The checksum persisted at build time detects bit rot and torn writes
   on the way in from the device. *)
let check_block t i data ~off =
  if !verify_checksums && Util.Crc32.update 0 data off t.blocks.(i).len <> t.blocks.(i).crc then
    raise (Corrupted_block { file_id = Ssd.file_id t.file; block = i })

(* Read block [i]: DRAM cost when the block is resident in the shared
   cache, SSD cost on miss (then admitted to the shared cache). *)
let read_block t i =
  let meta = t.blocks.(i) in
  let fetch () =
    let data = Ssd.pread t.ssd t.file ~off:meta.off ~len:meta.len in
    check_block t i data ~off:0;
    data
  in
  match t.shared with
  | None -> fetch ()
  | Some cache -> (
      let fid = Ssd.file_id t.file in
      match Cache.Block_cache.find cache ~file_id:fid ~block:i with
      | Some data -> data
      | None ->
          let data = fetch () in
          Cache.Block_cache.insert cache ~file_id:fid ~block:i data;
          data)

(* First block whose last_key >= key. *)
let locate_block t key =
  let n = Array.length t.blocks in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    (* Index resides in DRAM (pinned); charge a light touch. *)
    Sim.Clock.advance (Ssd.clock t.ssd) (dram_access_ns /. 4.0);
    if String.compare t.blocks.(mid).last_key key < 0 then lo := mid + 1 else hi := mid
  done;
  if !lo >= n then None else Some !lo

(* Decode and visit a block's entries; [f] may raise to stop early (the
   caller handles it), decode CPU is charged per entry actually decoded. *)
let scan_block t data ~entries f =
  let pos = ref 0 in
  for _ = 1 to entries do
    let e, next = Util.Kv.decode data !pos in
    pos := next;
    charge_cpu t decode_cpu_ns;
    f e
  done

exception Found of Util.Kv.entry

let get ?(use_bloom = true) t key =
  if key < t.min_key || key > t.max_key then None
  else if use_bloom && not (Bloom.mem t.bloom key) then None
  else
    match locate_block t key with
    | None -> None
    | Some i -> (
        (* Versions sort newest first and every block before [i] ends below
           [key], so block [i] holds the key's newest version even when a
           block boundary splits its versions. *)
        try
          scan_block t (read_block t i) ~entries:t.blocks.(i).entries (fun e ->
              if e.Util.Kv.key = key then raise (Found e)
              else if String.compare e.key key > 0 then raise Exit);
          None
        with
        | Found e -> Some e
        | Exit -> None)

(* Compaction input: one readahead request over the data region, every
   block CRC-verified and the decode CPU of every entry charged up front,
   then decoded one entry at a time in place. It bypasses the block cache
   (RocksDB's [fill_cache=false]): the inputs are deleted once the
   compaction installs, so caching their blocks would only evict blocks
   that gets use. *)
type cursor = {
  c_table : t;
  c_view : string;  (* the file's bytes; block i sits at its offset *)
  mutable c_next_block : int;
  mutable c_pos : int;
  mutable c_left : int;  (* entries still to decode in the current block *)
}

let cursor t =
  let last = t.blocks.(Array.length t.blocks - 1) in
  let c_view = Ssd.read_in_place t.ssd t.file ~off:0 ~len:(last.off + last.len) in
  Array.iteri (fun i m -> check_block t i c_view ~off:m.off) t.blocks;
  (* one charge per entry, as a block scan makes them *)
  for _ = 1 to t.count do
    charge_cpu t decode_cpu_ns
  done;
  { c_table = t; c_view; c_next_block = 0; c_pos = 0; c_left = 0 }

let rec next c =
  if c.c_left > 0 then begin
    let e, pos = Util.Kv.decode c.c_view c.c_pos in
    c.c_pos <- pos;
    c.c_left <- c.c_left - 1;
    Some e
  end
  else if c.c_next_block < Array.length c.c_table.blocks then begin
    let i = c.c_next_block in
    c.c_pos <- c.c_table.blocks.(i).off;
    c.c_left <- c.c_table.blocks.(i).entries;
    c.c_next_block <- i + 1;
    next c
  end
  else None

let to_list t =
  let c = cursor t in
  let rec drain acc = match next c with Some e -> drain (e :: acc) | None -> List.rev acc in
  drain []

let range t ~start ~stop f =
  if stop > t.min_key && start <= t.max_key then begin
    let i0 = match locate_block t start with None -> Array.length t.blocks | Some i -> i in
    (try
       for i = i0 to Array.length t.blocks - 1 do
         let data = read_block t i in
         scan_block t data ~entries:t.blocks.(i).entries (fun e ->
             if String.compare e.Util.Kv.key stop >= 0 then raise Exit
             else if String.compare e.key start >= 0 then f e)
       done
     with Exit -> ())
  end

let overlaps t ~min:lo ~max:hi =
  not (String.compare t.max_key lo < 0 || String.compare t.min_key hi > 0)

(* Full checksum walk from the medium (scrub): the meta block is re-read
   and re-verified — the handle's pinned DRAM index can outlive rot in the
   persisted copy — and every data block is read around the cache. Returns
   the failing block indices ([-1] for the meta block), [] when clean. *)
let verify t =
  if not !verify_checksums then []
  else begin
    let bad = ref [] in
    (try
       let size = Ssd.file_size t.file in
       if size < footer_bytes then bad := -1 :: !bad
       else begin
         let footer = Ssd.pread t.ssd t.file ~off:(size - footer_bytes) ~len:footer_bytes in
         let u32 pos =
           let b k = Char.code footer.[pos + k] in
           (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3
         in
         let meta_crc = u32 0 and meta_off = u32 4 in
         if
           u32 8 <> meta_magic
           || meta_off < 0
           || meta_off > size - footer_bytes
           ||
           let meta = Ssd.pread t.ssd t.file ~off:meta_off ~len:(size - footer_bytes - meta_off) in
           Util.Crc32.string meta <> meta_crc
         then bad := -1 :: !bad
       end
     with _ -> bad := -1 :: !bad);
    Array.iteri
      (fun i meta ->
        try
          let data = Ssd.pread t.ssd t.file ~off:meta.off ~len:meta.len in
          if Util.Crc32.string data <> meta.crc then bad := i :: !bad
        with _ -> bad := i :: !bad)
      t.blocks;
    List.rev !bad
  end

(* Salvage: decode every data block that still checksums. The lost key
   range is precise here — block [i] covers (blocks[i-1].last_key,
   blocks[i].last_key] — collapsed to one conservative span over all bad
   blocks. A bad meta block ([-1]) loses no data: the handle's pinned index
   still locates every (verified) data block. *)
let salvage_entries t =
  let bad = List.filter (fun i -> i >= 0) (verify t) in
  if bad = [] then (to_list t, None)
  else begin
    let survivors = ref [] in
    Array.iteri
      (fun i meta ->
        if not (List.mem i bad) then
          try
            let data = read_block t i in
            scan_block t data ~entries:meta.entries (fun e -> survivors := e :: !survivors)
          with _ -> ())
      t.blocks;
    let first_bad = List.fold_left min max_int bad in
    let last_bad = List.fold_left max (-1) bad in
    let lo = if first_bad = 0 then t.min_key else t.blocks.(first_bad - 1).last_key in
    let hi = t.blocks.(last_bad).last_key in
    (List.rev !survivors, Some (lo, hi))
  end
