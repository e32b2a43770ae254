(* The paper's three-layer compressed PM table (§IV-A, Fig. 2b).

   Layout on the region, in write order:

     [ entry layer ][ prefix layer ][ meta layer ]

   - meta layer: one record per run of keys sharing a {tableID} tag ("t" +
     4 digits at the head of database keys). The record stores the run's
     *extended* tag — the tag plus the run's common key prefix (zero-padded
     id digits, index-column headers, ...) — so the superfluous coding
     information is stored once and the bytes that remain in the groups
     discriminate early.

   - prefix layer: one fixed-width record per group. A group closes at
     [group_size] entries, or before its entries would pass
     [max_group_bytes] (one SSD block), and never between two versions of
     one key — so a group past either bound is a single key's version run:

       slot (prefix_len bytes of the group's first stripped key, \000-pad)
       u32 entry-layer offset | u16 entry count
       u8 shared-prefix length | u16 meta index

     Slots are monotone truncations of sorted stripped keys, so the layer
     is binary-searchable with one PM access per probe; when two slots tie,
     the probe reads the group's first entry (a second access) to compare
     exactly. Since every version of a key shares one group, a probe may
     land on the group that opens with its key.

   - entry layer: per group, entries back-to-back with the group's shared
     prefix removed: varint suffix_len, suffix, varint seq, kind byte,
     varint value_len, value.

   Lookup: locate the run in the (handle-cached) meta layer by extended-tag
   prefix, binary-search the run's groups, and scan the landing group — the
   only group read a point lookup makes. The scan runs over the verified
   extent in place, comparing each entry's suffix with the probe key, and
   materialises only the hit; walks, ranges, verify and salvage decode
   whole groups from the same verified read.

   Integrity: every layer is checksummed. Each fixed-width prefix record
   carries an inline CRC32 (verified on every [read_record]); each group's
   entry-layer extent has a CRC32 in a dedicated layer that the handle
   caches in DRAM (verified on every [read_extent], costing no extra PM
   access); the meta layer and the footer carry CRC32s verified at
   [open_existing] and re-checked from the medium by [verify] (scrub). A
   failed comparison raises [Integrity.Corrupted] so the engine can
   quarantine the region instead of serving garbage. The only unverified
   read is [read_first_key]'s tie-break peek — it never feeds served data
   (the group read that follows is verified); rot there is caught by the
   next scrub. *)

type meta = { tag : string; g_lo : int; g_hi : int }

type t = {
  bloom : Bloom.t;  (* screens absent keys before any PM access *)
  dev : Pmem.t;
  region : Pmem.region;
  count : int;
  prefix_len : int;
  group_count : int;
  entry_len : int;   (* entry layer byte length *)
  prefix_off : int;  (* start of the prefix layer *)
  meta_off : int;    (* start of the meta layer *)
  metas : meta array;  (* handle-side cache of the meta layer *)
  gcrcs : int array;   (* handle-side cache of the per-group entry CRCs *)
  meta_crc : int;
  min_key : string;
  max_key : string;
  payload_bytes : int;  (* uncompressed logical size *)
}

(* slot | u32 offset | u16 count | u8 shared | u16 meta_idx | u32 crc *)
let record_width t = t.prefix_len + 13

(* Kill switch for every CRC comparison in this module — exists so a fault
   sweep can plant the "forgot to verify checksums" bug and prove it gets
   caught. Leave it [true]. *)
let verify_checksums = ref true
let encode_cpu_ns = 30.0
let decode_cpu_ns = 25.0
let max_extended_tag = 40

(* A point read decodes one group; capping its entries at one SSD block
   keeps a PM get from reading more than an SSD get does. *)
let max_group_bytes = Sstable.default_block_bytes

let charge_cpu dev ns = Sim.Clock.advance (Pmem.clock dev) ns

(* Region footer: u32 entry_len | u32 meta_off | u32 group_count |
   u8 prefix_len | u8 group_size | u32 meta_crc | u32 magic |
   u32 footer_crc (over the preceding 22 bytes). The per-group entry-CRC
   layer sits between the prefix and meta layers: u32 per group.

   The meta layer ends with a serialized Bloom filter of
   [bloom_bits_per_key] bits per key, after the table statistics, so the
   meta CRC covers it. *)
let footer_bytes = 26
let magic = 0x504D4232 (* "PMB2" *)

(* Module-wide telemetry (pattern of [Manifest.fallback_count]): how many
   gets consulted a PM bloom, and how many were answered "absent" without
   touching PM. The bench divides these for the filter rate. *)
let bloom_probes = ref 0
let bloom_negatives = ref 0
let bloom_bits_per_key = 10

(* {tableID} extraction: keys built by Util.Keys open with 't' + 4 digits. *)
let extract_tag key =
  if
    String.length key >= 5
    && key.[0] = 't'
    && key.[1] >= '0' && key.[1] <= '9'
    && key.[2] >= '0' && key.[2] <= '9'
    && key.[3] >= '0' && key.[3] <= '9'
    && key.[4] >= '0' && key.[4] <= '9'
  then String.sub key 0 5
  else ""

let pad_slot prefix_len s =
  if String.length s >= prefix_len then String.sub s 0 prefix_len
  else s ^ String.make (prefix_len - String.length s) '\000'

let strip prefix key = String.sub key (String.length prefix) (String.length key - String.length prefix)

(* A group of the plan: entries [gp_lo, gp_hi) of the input, encoded at
   [gp_off] in the entry layer with [gp_strip] key bytes removed. *)
type group_plan = {
  gp_meta : int;
  gp_lo : int;
  gp_hi : int;
  gp_shared : int;  (* extra shared bytes stripped beyond the extended tag *)
  gp_strip : int;   (* extended tag + shared bytes *)
  gp_off : int;
}

let check_sorted name entries =
  let n = Array.length entries in
  for i = 1 to n - 1 do
    if Util.Kv.compare_entry entries.(i - 1) entries.(i) > 0 then
      invalid_arg (name ^ ": input not sorted by Kv.compare_entry")
  done

(* The fixed slot width: larger slots strip more shared bytes from the
   entry layer at ~zero probe cost, since the PM access cost is dominated
   by its fixed term. *)
let prefix_len = 24

(* Entry-layer bytes of [e] with its first [strip] key bytes removed. *)
let entry_bytes strip (e : Util.Kv.entry) =
  let suffix = String.length e.key - strip in
  Util.Varint.size suffix + suffix + Util.Varint.size e.seq + 1
  + Util.Varint.size (String.length e.value)
  + String.length e.value

(* Encode [e] at [pos] in the image, its first [strip] key bytes removed;
   returns the position after it. *)
let put_entry image pos strip (e : Util.Kv.entry) =
  let suffix = String.length e.key - strip in
  let pos = Util.Varint.put image pos suffix in
  Bytes.blit_string e.key strip image pos suffix;
  let pos = Util.Varint.put image (pos + suffix) e.seq in
  Bytes.set image pos (match e.kind with Util.Kv.Put -> '\001' | Delete -> '\000');
  Util.Varint.put_string image (pos + 1) e.value

(* The build sizes every layer from a plan of the groups, encodes the
   region into one exact-size image, and writes the image through the
   builder in its five layers, so the write requests end where they did
   when each layer was staged whole. *)
let build ?(group_size = 8) dev (entries : Util.Kv.entry array) =
  let n = Array.length entries in
  if n = 0 then invalid_arg "Pm_table.build: empty input";
  check_sorted "Pm_table.build" entries;
  (* 1. Cut into tag runs; per run compute the extended tag (tag + common
     prefix of the whole run, capped); then cut runs into groups and size
     each group's entry-layer extent. *)
  let metas = ref [] and groups = ref [] and group_count = ref 0 in
  let entry_len = ref 0 in
  let i = ref 0 in
  while !i < n do
    let tag = extract_tag entries.(!i).Util.Kv.key in
    let run_start = !i in
    while !i < n && extract_tag entries.(!i).Util.Kv.key = tag do
      incr i
    done;
    let run_end = !i in
    let extended =
      let first = entries.(run_start).Util.Kv.key
      and last = entries.(run_end - 1).Util.Kv.key in
      let shared = Util.Keys.common_prefix_len first last in
      let len = min max_extended_tag (max (String.length tag) shared) in
      String.sub first 0 len
    in
    let meta_idx = List.length !metas in
    let g_lo = !group_count in
    (* End of the version run starting at [k]: all entries with its key. *)
    let versions_end k =
      let k' = ref (k + 1) in
      while !k' < run_end && entries.(!k').Util.Kv.key = entries.(k).Util.Kv.key do
        incr k'
      done;
      !k'
    in
    let bytes lo hi =
      let b = ref 0 in
      for k = lo to hi - 1 do
        b := !b + Util.Kv.encoded_size entries.(k)
      done;
      !b
    in
    let j = ref run_start in
    while !j < run_end do
      (* Take whole version runs while the group stays within both
         bounds; the first one is taken whatever its size. *)
      let lo = !j in
      let hi = ref (versions_end lo) in
      let size = ref (bytes lo !hi) in
      let full = ref false in
      while (not !full) && !hi < run_end do
        let next = versions_end !hi in
        let b = bytes !hi next in
        if next - lo <= group_size && !size + b <= max_group_bytes then begin
          hi := next;
          size := !size + b
        end
        else full := true
      done;
      let hi = !hi in
      (* the prefix record's entry count is a u16 *)
      if hi - lo > 0xffff then invalid_arg "Pm_table.build: group over 65535 entries";
      (* every key of the run opens with the extended tag, so the stripped
         keys share what the full keys share beyond it *)
      let shared =
        min prefix_len
          (Util.Keys.common_prefix_len entries.(lo).Util.Kv.key entries.(hi - 1).Util.Kv.key
          - String.length extended)
      in
      let strip = String.length extended + shared in
      groups :=
        { gp_meta = meta_idx; gp_lo = lo; gp_hi = hi; gp_shared = shared; gp_strip = strip;
          gp_off = !entry_len }
        :: !groups;
      for k = lo to hi - 1 do
        entry_len := !entry_len + entry_bytes strip entries.(k)
      done;
      incr group_count;
      j := hi
    done;
    metas := { tag = extended; g_lo; g_hi = !group_count } :: !metas
  done;
  let metas = Array.of_list (List.rev !metas) in
  let groups = Array.of_list (List.rev !groups) in
  let group_count = Array.length groups and entry_len = !entry_len in
  (* Table-level statistics, persisted in the meta layer. *)
  let min_seq = ref max_int and max_seq = ref min_int and payload = ref 0 in
  Array.iter
    (fun (e : Util.Kv.entry) ->
      payload := !payload + Util.Kv.encoded_size e;
      if e.seq < !min_seq then min_seq := e.seq;
      if e.seq > !max_seq then max_seq := e.seq)
    entries;
  (* The bloom rides in the meta layer so the meta CRC covers it. *)
  let bloom = Bloom.create ~bits_per_key:bloom_bits_per_key n in
  Array.iter (fun (e : Util.Kv.entry) -> Bloom.add bloom e.key) entries;
  (* 2. Size the layers: entries, fixed-width prefix records, one u32 CRC
     per group, the meta layer, the footer. *)
  let w = prefix_len + 13 in
  let prefix_off = entry_len in
  let gcrc_off = prefix_off + (group_count * w) in
  let meta_off = gcrc_off + (4 * group_count) in
  let meta_len =
    Util.Varint.size (Array.length metas)
    + Array.fold_left
        (fun acc { tag; g_lo; g_hi } ->
          acc + Util.Varint.size (String.length tag) + String.length tag
          + Util.Varint.size g_lo + Util.Varint.size g_hi)
        0 metas
    + Util.Varint.size n + Util.Varint.size !min_seq + Util.Varint.size !max_seq
    + Util.Varint.size !payload
    + Util.Varint.size (Bloom.serialized_size bloom)
    + Bloom.serialized_size bloom
  in
  let total = meta_off + meta_len + footer_bytes in
  (* 3. Encode the region into one image, charging encode CPU. CRCs are
     taken over the image's own bytes once each layer is in place: [view]
     is only read by calls that return before the next byte is set. *)
  let image = Bytes.create total in
  let view = Bytes.unsafe_to_string image in
  Array.iter
    (fun { gp_lo; gp_hi; gp_strip; gp_off; _ } ->
      let pos = ref gp_off in
      for k = gp_lo to gp_hi - 1 do
        pos := put_entry image !pos gp_strip entries.(k)
      done)
    groups;
  charge_cpu dev (float_of_int n *. encode_cpu_ns);
  let extent_stop g = if g + 1 < group_count then groups.(g + 1).gp_off else entry_len in
  let gcrcs =
    Array.init group_count (fun g ->
        let start = groups.(g).gp_off in
        Util.Crc32.update 0 view start (extent_stop g - start))
  in
  (* Prefix layer: the slot is the group's first key past the extended
     tag, \000-padded; every record carries its own CRC. *)
  Array.iteri
    (fun g { gp_meta; gp_lo; gp_hi; gp_shared; gp_off; _ } ->
      let at = prefix_off + (g * w) in
      let first = entries.(gp_lo).Util.Kv.key in
      let ext = String.length metas.(gp_meta).tag in
      let copied = min prefix_len (String.length first - ext) in
      Bytes.blit_string first ext image at copied;
      Bytes.fill image (at + copied) (prefix_len - copied) '\000';
      let pos = Builder.put_u32 image (at + prefix_len) gp_off in
      let pos = Builder.put_u16 image pos (gp_hi - gp_lo) in
      Bytes.set image pos (Char.chr gp_shared);
      let pos = Builder.put_u16 image (pos + 1) gp_meta in
      ignore (Builder.put_u32 image pos (Util.Crc32.update 0 view at (w - 4)) : int))
    groups;
  Array.iteri (fun g crc -> ignore (Builder.put_u32 image (gcrc_off + (4 * g)) crc : int)) gcrcs;
  (* Meta layer: the tag records, then the table-level statistics the
     handle caches (counts, seq range, payload), so a table can be reopened
     from its region alone after a restart. *)
  let pos = Util.Varint.put image meta_off (Array.length metas) in
  let pos =
    Array.fold_left
      (fun pos { tag; g_lo; g_hi } ->
        let pos = Util.Varint.put_string image pos tag in
        let pos = Util.Varint.put image pos g_lo in
        Util.Varint.put image pos g_hi)
      pos metas
  in
  let pos = Util.Varint.put image pos n in
  let pos = Util.Varint.put image pos !min_seq in
  let pos = Util.Varint.put image pos !max_seq in
  let pos = Util.Varint.put image pos !payload in
  let pos = Util.Varint.put image pos (Bloom.serialized_size bloom) in
  let pos = Bloom.serialize_into bloom image pos in
  assert (pos = meta_off + meta_len);
  let meta_crc = Util.Crc32.update 0 view meta_off meta_len in
  (* A fixed-width footer closes the region (see open_existing). *)
  let footer = total - footer_bytes in
  let pos = Builder.put_u32 image footer entry_len in
  let pos = Builder.put_u32 image pos meta_off in
  let pos = Builder.put_u32 image pos group_count in
  Bytes.set image pos (Char.chr prefix_len);
  Bytes.set image (pos + 1) (Char.chr group_size);
  let pos = Builder.put_u32 image (pos + 2) meta_crc in
  let pos = Builder.put_u32 image pos magic in
  let pos = Builder.put_u32 image pos (Util.Crc32.update 0 view footer (footer_bytes - 4)) in
  assert (pos = total);
  (* 4. Allocate and write the image, one layer per staged piece. *)
  let region = Pmem.alloc dev total in
  let builder = Builder.create dev region view in
  List.iter (Builder.stage builder)
    [ entry_len; group_count * w; 4 * group_count; meta_len; footer_bytes ];
  let written = Builder.finish builder in
  assert (written = total);
  {
    bloom;
    dev;
    region;
    count = n;
    prefix_len;
    group_count;
    entry_len;
    prefix_off;
    meta_off;
    metas;
    gcrcs;
    meta_crc;
    min_key = entries.(0).key;
    max_key = entries.(n - 1).key;
    payload_bytes = !payload;
  }

let count t = t.count
let byte_size t = Pmem.region_len t.region
let payload_bytes t = t.payload_bytes
let min_key t = t.min_key
let max_key t = t.max_key
let free t = Pmem.free t.dev t.region
let region_id t = Pmem.region_id t.region

(* A prefix-layer record, decoded where it lies: [view] is the region's
   bytes as the probe's read returned them and [slot] the slot's offset in
   it. Records live for one probe or walk and never leave this module. *)
type record = {
  view : string;
  slot : int;
  offset : int;
  count_ : int;
  shared : int;
  meta_idx : int;
}

(* One PM access: the fixed-width prefix-layer record of group [g],
   verified against its inline CRC. *)
let read_record t g =
  let w = record_width t in
  let at = t.prefix_off + (g * w) in
  let view = Pmem.read_in_place t.dev t.region ~off:at ~len:w in
  if
    !verify_checksums
    && Builder.read_u32 view (at + w - 4) <> Util.Crc32.update 0 view at (w - 4)
  then
    raise
      (Integrity.Corrupted
         { region_id = Pmem.region_id t.region; layer = "prefix"; index = g });
  let fields = at + t.prefix_len in
  {
    view;
    slot = at;
    offset = Builder.read_u32 view fields;
    count_ = Builder.read_u16 view (fields + 4);
    shared = Char.code view.[fields + 6];
    meta_idx = Builder.read_u16 view (fields + 7);
  }

let group_prefix t record =
  let tag = t.metas.(record.meta_idx).tag in
  tag ^ String.sub record.view record.slot record.shared

(* The first entry's key of group [g]: read the head of the group's extent
   for the length varint, then the suffix itself (a second access only when
   the suffix outruns the peek). Used only to break slot ties. *)
let read_first_key t record =
  let peek = min 16 (t.entry_len - record.offset) in
  let head = Pmem.read_in_place t.dev t.region ~off:record.offset ~len:peek in
  let cur = ref record.offset in
  let suffix_len = Util.Varint.read_at head cur in
  let available = record.offset + peek - !cur in
  if available < 0 then failwith "Varint.read: truncated input";
  if suffix_len > available then
    ignore
      (Pmem.read_in_place t.dev t.region ~off:(record.offset + peek)
         ~len:(suffix_len - available)
        : string);
  group_prefix t record ^ String.sub head !cur suffix_len

(* Module-wide telemetry, like [bloom_probes]: group extents decoded. *)
let group_reads = ref 0

(* Read group [g]'s entry-layer extent, verified; returns the view and the
   extent's end in it. The next group's record ends the extent; it is read
   here and returned, so a sequential walk reads each record once. The
   extent is checked in place against the handle-cached group CRC — one
   pass over the bytes, no extra PM access — so a rotten group raises
   instead of decoding junk. Every decoder of a group starts here and pays
   the same per-entry decode charge. *)
let read_extent t g record =
  let next = if g + 1 < t.group_count then Some (read_record t (g + 1)) else None in
  let stop = match next with Some r -> r.offset | None -> t.entry_len in
  incr group_reads;
  let len = stop - record.offset in
  let view = Pmem.read_in_place t.dev t.region ~off:record.offset ~len in
  if !verify_checksums && Util.Crc32.update 0 view record.offset len <> t.gcrcs.(g) then
    raise
      (Integrity.Corrupted
         { region_id = Pmem.region_id t.region; layer = "entry"; index = g });
  charge_cpu t.dev (float_of_int record.count_ *. decode_cpu_ns);
  (view, stop, next)

(* The [len] bytes at [!cur] of a group extent ending at [stop]; a decode
   never runs past its extent, even over rot no CRC was asked to catch. *)
let take cur ~stop len =
  if !cur + len > stop then failwith "Pm_table: entry overruns its group";
  cur := !cur + len

(* Decode group [g]'s entries, reconstructing full keys: every key and
   value is a copy, so nothing decoded aliases the region. *)
let read_group_next t g record =
  let view, stop, next = read_extent t g record in
  let prefix = group_prefix t record in
  let plen = String.length prefix in
  let cur = ref record.offset in
  let entries =
    Array.init record.count_ (fun _ ->
        let suffix_len = Util.Varint.read_at view cur in
        let at = !cur in
        take cur ~stop suffix_len;
        let key = Bytes.create (plen + suffix_len) in
        Bytes.blit_string prefix 0 key 0 plen;
        Bytes.blit_string view at key plen suffix_len;
        let seq = Util.Varint.read_at view cur in
        let at = !cur in
        take cur ~stop 1;
        let kind = if view.[at] = '\000' then Util.Kv.Delete else Util.Kv.Put in
        let value_len = Util.Varint.read_at view cur in
        let at = !cur in
        take cur ~stop value_len;
        { Util.Kv.key = Bytes.unsafe_to_string key; seq; kind;
          value = String.sub view at value_len })
  in
  (entries, next)

let read_group t g record = fst (read_group_next t g record)

(* Decode groups [g], [g+1], ... in order, handing each to [f] until it
   returns [false]. *)
let rec walk t g record f =
  let entries, next = read_group_next t g record in
  if f entries then match next with Some r -> walk t (g + 1) r f | None -> ()

(* Reopen a table from its persisted region (after a restart or crash):
   the footer locates the layers, the meta layer restores the tag index and
   table statistics, and the boundary keys are re-read from the entry
   layer. Only the DRAM handle is rebuilt; no table data moves. *)
let open_existing dev region =
  let len = Pmem.region_len region in
  if len < footer_bytes then invalid_arg "Pm_table.open_existing: region too small";
  let footer = len - footer_bytes in
  let raw = Pmem.read_in_place dev region ~off:footer ~len:footer_bytes in
  if Builder.read_u32 raw (footer + 18) <> magic then
    failwith "Pm_table.open_existing: bad magic (not a PM table, or torn write)";
  if
    !verify_checksums
    && Builder.read_u32 raw (footer + 22) <> Util.Crc32.update 0 raw footer (footer_bytes - 4)
  then
    raise
      (Integrity.Corrupted
         { region_id = Pmem.region_id region; layer = "footer"; index = 0 });
  let entry_len = Builder.read_u32 raw footer in
  let meta_off = Builder.read_u32 raw (footer + 4) in
  let group_count = Builder.read_u32 raw (footer + 8) in
  let prefix_len = Char.code raw.[footer + 12] in
  (* the byte after it is the group size: part of the format, read by
     nothing *)
  let meta_crc = Builder.read_u32 raw (footer + 14) in
  let meta_len = footer - meta_off in
  let meta_raw = Pmem.read_in_place dev region ~off:meta_off ~len:meta_len in
  if !verify_checksums && Util.Crc32.update 0 meta_raw meta_off meta_len <> meta_crc then
    raise
      (Integrity.Corrupted
         { region_id = Pmem.region_id region; layer = "meta"; index = 0 });
  let gcrc_off = meta_off - (4 * group_count) in
  let gcrcs =
    if group_count = 0 then [||]
    else begin
      let gcrc_raw = Pmem.read_in_place dev region ~off:gcrc_off ~len:(4 * group_count) in
      Array.init group_count (fun g -> Builder.read_u32 gcrc_raw (gcrc_off + (4 * g)))
    end
  in
  let meta_count, pos = Util.Varint.read meta_raw meta_off in
  let pos = ref pos in
  let metas =
    Array.init meta_count (fun _ ->
        let tag, p = Util.Varint.read_string meta_raw !pos in
        let g_lo, p = Util.Varint.read meta_raw p in
        let g_hi, p = Util.Varint.read meta_raw p in
        pos := p;
        { tag; g_lo; g_hi })
  in
  let count, p = Util.Varint.read meta_raw !pos in
  (* the persisted min/max seq: part of the format, read by nothing *)
  let _min_seq, p = Util.Varint.read meta_raw p in
  let _max_seq, p = Util.Varint.read meta_raw p in
  let payload_bytes, p = Util.Varint.read meta_raw p in
  let bloom = Bloom.deserialize (fst (Util.Varint.read_string meta_raw p)) in
  let t =
    {
      bloom;
      dev;
      region;
      count;
      prefix_len;
      group_count;
      entry_len;
      prefix_off = entry_len;
      meta_off;
      metas;
      gcrcs;
      meta_crc;
      min_key = "";
      max_key = "";
      payload_bytes;
    }
  in
  if group_count = 0 then failwith "Pm_table.open_existing: empty table";
  let first_key = read_first_key t (read_record t 0) in
  let last_group = read_group t (group_count - 1) (read_record t (group_count - 1)) in
  let last_key = last_group.(Array.length last_group - 1).Util.Kv.key in
  { t with min_key = first_key; max_key = last_key }


(* Metas whose extended tag is a prefix of [key], i.e. runs that can hold
   it. Tags are sorted; normally zero or one matches, with a rare second on
   nested prefixes, so we check the rightmost tag <= key and its left
   neighbours while they remain prefixes. *)
let metas_for t key =
  let n = Array.length t.metas in
  if n = 0 then []
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    if String.compare t.metas.(0).tag key > 0 then []
    else begin
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if String.compare t.metas.(mid).tag key <= 0 then lo := mid else hi := mid - 1
      done;
      let rec collect i acc =
        if i < 0 then acc
        else if Util.Keys.is_prefix ~prefix:t.metas.(i).tag key then
          collect (i - 1) (t.metas.(i) :: acc)
        else acc
      in
      collect !lo []
    end
  end

(* Compare group [g]'s first key against [key]: slots first (one access
   already paid by the caller's [record]), exact first-key read only on
   ties. Returns < 0 when the group starts before [key] and 0 when it
   opens with it — it then holds every version of [key]. *)
let compare_group_start t record ~probe_slot ~key =
  let rec compare_slot i =
    if i >= t.prefix_len then 0
    else
      let c = Char.compare record.view.[record.slot + i] probe_slot.[i] in
      if c <> 0 then c else compare_slot (i + 1)
  in
  let c = compare_slot 0 in
  if c <> 0 then c else String.compare (read_first_key t record) key

(* Last group in [g_lo, g_hi) starting at or before [key], with its
   record, or None when [key] precedes the run's first group. *)
let locate t ~g_lo ~g_hi ~probe_slot ~key =
  if g_hi <= g_lo then None
  else
    let first = read_record t g_lo in
    if compare_group_start t first ~probe_slot ~key > 0 then None
    else begin
      let lo = ref g_lo and lo_record = ref first and hi = ref (g_hi - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        let record = read_record t mid in
        if compare_group_start t record ~probe_slot ~key <= 0 then begin
          lo := mid;
          lo_record := record
        end
        else hi := mid - 1
      done;
      Some (!lo, !lo_record)
    end

(* [s.[pos .. pos+len-1]] equals [key.[kpos .. kpos+len-1]], compared in
   place. *)
let rec equal_at s pos key kpos len =
  len <= 0 || (s.[pos] = key.[kpos] && equal_at s (pos + 1) key (kpos + 1) (len - 1))

(* The newest version of [key] in group [g]: scan the verified extent,
   comparing each entry's suffix with [key] in place, and materialise only
   the hit — the first match, as a full decode followed by a search would
   find. Non-matches are skipped without allocating. *)
let find_in_group t g record key =
  let raw, stop, _ = read_extent t g record in
  let tag = t.metas.(record.meta_idx).tag in
  let plen = String.length tag + record.shared in
  let suffix_len = String.length key - plen in
  if
    suffix_len < 0
    || not (equal_at tag 0 key 0 (String.length tag))
    || not (equal_at record.view record.slot key (String.length tag) record.shared)
  then None
  else begin
    let cur = ref record.offset in
    let rec scan i =
      if i >= record.count_ then None
      else begin
        let len = Util.Varint.read_at raw cur in
        let at = !cur in
        take cur ~stop len;
        let hit = len = suffix_len && equal_at raw at key plen len in
        let seq = Util.Varint.read_at raw cur in
        let at = !cur in
        take cur ~stop 1;
        let kind = if raw.[at] = '\000' then Util.Kv.Delete else Util.Kv.Put in
        let value_len = Util.Varint.read_at raw cur in
        let at = !cur in
        take cur ~stop value_len;
        (* the value is copied out: the caller keeps it past the view *)
        if hit then Some { Util.Kv.key; seq; kind; value = String.sub raw at value_len }
        else scan (i + 1)
      end
    in
    scan 0
  end

(* A key's versions never cross a group boundary, so the located group is
   the only one that can hold it. *)
let get_in_run t ~g_lo ~g_hi key tag =
  let probe_slot = pad_slot t.prefix_len (strip tag key) in
  match locate t ~g_lo ~g_hi ~probe_slot ~key with
  | None -> None
  | Some (g, record) -> find_in_group t g record key

let groups t =
  let records = Array.init t.group_count (read_record t) in
  List.init t.group_count (fun g ->
      let stop = if g + 1 < t.group_count then records.(g + 1).offset else t.entry_len in
      (records.(g).count_, stop - records.(g).offset))

let get t key =
  if key < t.min_key || key > t.max_key then None
  else begin
    incr bloom_probes;
    Obs.Attr.charge Obs.Attr.Pm_bloom 0.0;
    if not (Bloom.mem t.bloom key) then begin
      incr bloom_negatives;
      None
    end
    else
      List.find_map
        (fun { tag; g_lo; g_hi } -> get_in_run t ~g_lo ~g_hi key tag)
        (metas_for t key)
  end

let iter t f =
  walk t 0 (read_record t 0) (fun entries ->
      Array.iter f entries;
      true)

let to_list t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc

(* First group that could contain a key >= [start]: locate gives the last
   group starting at or before [start], whose tail may reach it; runs
   whose tag region sorts entirely before [start] are skipped. The walk
   from there reads one prefix record per group. *)
let range t ~start ~stop f =
  if stop > t.min_key && start <= t.max_key then begin
    let at g = Some (g, read_record t g) in
    let start_group =
      (* Find the first run whose key region may reach [start]. *)
      let rec scan i =
        if i >= Array.length t.metas then None
        else begin
          let m = t.metas.(i) in
          if Util.Keys.is_prefix ~prefix:m.tag start then
            let probe_slot = pad_slot t.prefix_len (strip m.tag start) in
            match locate t ~g_lo:m.g_lo ~g_hi:m.g_hi ~probe_slot ~key:start with
            | Some _ as found -> found
            | None -> at m.g_lo
          else if String.compare m.tag start >= 0 then at m.g_lo
          else
            (* Every key of this run shares [m.tag], which sorts before
               [start] without being its prefix, so every key of the run
               sorts before [start]: skip the run. *)
            scan (i + 1)
        end
      in
      scan 0
    in
    match start_group with
    | None -> ()
    | Some (g, record) ->
        walk t g record (fun entries ->
            let continue = ref true in
            Array.iter
              (fun (e : Util.Kv.entry) ->
                if String.compare e.key stop >= 0 then continue := false
                else if String.compare e.key start >= 0 then f e)
              entries;
            !continue)
  end

(* Full checksum walk from the medium (scrub). The footer and meta layer
   are re-read from PM — the handle's DRAM copies can outlive rot in the
   persisted bytes — then every prefix record and group extent is checked.
   Returns (layer, group index) per failure, empty when clean. *)
let verify t =
  if not !verify_checksums then []
  else begin
    let bad = ref [] in
    let note layer index = bad := (layer, index) :: !bad in
    let len = Pmem.region_len t.region in
    let footer = len - footer_bytes in
    (try
       let raw = Pmem.read_in_place t.dev t.region ~off:footer ~len:footer_bytes in
       if
         Builder.read_u32 raw (footer + 18) <> magic
         || Builder.read_u32 raw (footer + 22)
            <> Util.Crc32.update 0 raw footer (footer_bytes - 4)
       then note "footer" 0
     with _ -> note "footer" 0);
    (try
       let meta_len = footer - t.meta_off in
       let meta_raw = Pmem.read_in_place t.dev t.region ~off:t.meta_off ~len:meta_len in
       if Util.Crc32.update 0 meta_raw t.meta_off meta_len <> t.meta_crc then note "meta" 0
     with _ -> note "meta" 0);
    (* The persisted group-checksum layer itself (the DRAM cache used by
       reads would mask rot in it until the next reopen). *)
    (try
       let gcrc_off = t.meta_off - (4 * t.group_count) in
       let raw = Pmem.read_in_place t.dev t.region ~off:gcrc_off ~len:(4 * t.group_count) in
       for g = 0 to t.group_count - 1 do
         if Builder.read_u32 raw (gcrc_off + (4 * g)) <> t.gcrcs.(g) then note "gcrc" g
       done
     with _ -> note "gcrc" 0);
    for g = 0 to t.group_count - 1 do
      match read_record t g with
      | record -> (
          try ignore (read_group t g record) with _ -> note "entry" g)
      | exception _ -> note "prefix" g
    done;
    List.rev !bad
  end

(* Salvage: decode every group that still checksums; the keys that may have
   been lost with the failing ones are bounded conservatively by the last
   surviving key before the first bad group and the first surviving key
   after the last one (table boundaries when no such neighbour survives).
   Returns the surviving entries in order plus that lost range, or [None]
   when nothing was lost. *)
let salvage_entries t =
  let groups =
    Array.init t.group_count (fun g ->
        try Some (read_group t g (read_record t g)) with _ -> None)
  in
  let survivors =
    Array.to_list groups
    |> List.concat_map (function Some es -> Array.to_list es | None -> [])
  in
  let first_bad = ref (-1) and last_bad = ref (-1) in
  Array.iteri
    (fun g -> function
      | None ->
          if !first_bad < 0 then first_bad := g;
          last_bad := g
      | Some _ -> ())
    groups;
  if !first_bad < 0 then (survivors, None)
  else begin
    let lo = ref t.min_key and hi = ref t.max_key in
    (try
       for g = !first_bad - 1 downto 0 do
         match groups.(g) with
         | Some es when Array.length es > 0 ->
             lo := es.(Array.length es - 1).Util.Kv.key;
             raise Exit
         | _ -> ()
       done
     with Exit -> ());
    (try
       for g = !last_bad + 1 to t.group_count - 1 do
         match groups.(g) with
         | Some es when Array.length es > 0 ->
             hi := es.(0).Util.Kv.key;
             raise Exit
         | _ -> ()
       done
     with Exit -> ());
    (survivors, Some (!lo, !hi))
  end
