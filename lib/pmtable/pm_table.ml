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
   only group read a point lookup makes.

   Integrity: every layer is checksummed. Each fixed-width prefix record
   carries an inline CRC32 (verified on every [read_record]); each group's
   entry-layer extent has a CRC32 in a dedicated layer that the handle
   caches in DRAM (verified on every [read_group], costing no extra PM
   access); the meta layer and the footer carry CRC32s verified at
   [open_existing] and re-checked from the medium by [verify] (scrub). A
   failed comparison raises [Integrity.Corrupted] so the engine can
   quarantine the region instead of serving garbage. The only unverified
   read is [read_first_key]'s tie-break peek — it never feeds served data
   (the group read that follows is verified); rot there is caught by the
   next scrub. *)

type meta = { tag : string; g_lo : int; g_hi : int }

type t = {
  bloom : Bloom.t option;  (* format v2: screens absent keys before any PM access *)
  dev : Pmem.t;
  region : Pmem.region;
  count : int;
  group_size : int;
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
  min_seq : int;
  max_seq : int;
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

   Format v2 ("PMB2") appends a serialized Bloom filter to the meta layer,
   after the table statistics, so it is covered by the existing meta CRC;
   everything else is byte-identical to v1 and [open_existing] accepts
   both magics. A table built with [bloom_bits_per_key = 0] is written in
   v1 form. *)
let footer_bytes = 26
let magic = 0x504D4254 (* "PMBT", format v1: no bloom *)
let magic_v2 = 0x504D4232 (* "PMB2": bloom appended to the meta layer *)

(* Module-wide telemetry (pattern of [Manifest.fallback_count]): how many
   gets consulted a PM bloom, and how many were answered "absent" without
   touching PM. The bench divides these for the filter rate. *)
let bloom_probes = ref 0
let bloom_negatives = ref 0
let default_bloom_bits_per_key = 10

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

type group_plan = {
  gp_meta : int;
  gp_slot : string;
  gp_shared : int;  (* extra shared bytes stripped beyond the extended tag *)
  gp_entries : Util.Kv.entry array;
}

let check_sorted name entries =
  let n = Array.length entries in
  for i = 1 to n - 1 do
    if Util.Kv.compare_entry entries.(i - 1) entries.(i) > 0 then
      invalid_arg (name ^ ": input not sorted by Kv.compare_entry")
  done

let default_prefix_len = 24

let build ?(group_size = 8) ?(prefix_len = default_prefix_len)
    ?(bloom_bits_per_key = default_bloom_bits_per_key) dev
    (entries : Util.Kv.entry array) =
  let n = Array.length entries in
  if n = 0 then invalid_arg "Pm_table.build: empty input";
  check_sorted "Pm_table.build" entries;
  (* 1. Cut into tag runs; per run compute the extended tag (tag + common
     prefix of the whole run, capped); then cut runs into groups. *)
  let metas = ref [] and groups = ref [] and group_count = ref 0 in
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
      let stripped_first = strip extended entries.(lo).Util.Kv.key in
      let stripped_last = strip extended entries.(hi - 1).Util.Kv.key in
      let shared =
        min prefix_len (Util.Keys.common_prefix_len stripped_first stripped_last)
      in
      groups :=
        {
          gp_meta = meta_idx;
          gp_slot = pad_slot prefix_len stripped_first;
          gp_shared = shared;
          gp_entries = Array.sub entries lo (hi - lo);
        }
        :: !groups;
      incr group_count;
      j := hi
    done;
    metas := { tag = extended; g_lo; g_hi = !group_count } :: !metas
  done;
  let metas = Array.of_list (List.rev !metas) in
  let groups = Array.of_list (List.rev !groups) in
  (* 2. Encode the three layers into DRAM staging, charging encode CPU. *)
  let entry_layer = Buffer.create 4096 in
  let group_offsets = Array.make (Array.length groups) 0 in
  let min_seq = ref max_int and max_seq = ref min_int and payload = ref 0 in
  Array.iteri
    (fun g { gp_shared; gp_entries; gp_meta; _ } ->
      group_offsets.(g) <- Buffer.length entry_layer;
      let strip_len = String.length metas.(gp_meta).tag + gp_shared in
      Array.iter
        (fun (e : Util.Kv.entry) ->
          let suffix = String.sub e.key strip_len (String.length e.key - strip_len) in
          Util.Varint.write_string entry_layer suffix;
          Util.Varint.write entry_layer e.seq;
          Buffer.add_char entry_layer
            (match e.kind with Util.Kv.Put -> '\001' | Delete -> '\000');
          Util.Varint.write_string entry_layer e.value;
          payload := !payload + Util.Kv.encoded_size e;
          if e.seq < !min_seq then min_seq := e.seq;
          if e.seq > !max_seq then max_seq := e.seq)
        gp_entries)
    groups;
  charge_cpu dev (float_of_int n *. encode_cpu_ns);
  (* Per-group CRCs over the entry-layer extents, cached in the handle and
     persisted in their own layer between the prefix and meta layers. *)
  let entry_str = Buffer.contents entry_layer in
  let gcrcs =
    Array.init (Array.length groups) (fun g ->
        let start = group_offsets.(g) in
        let stop =
          if g + 1 < Array.length groups then group_offsets.(g + 1)
          else String.length entry_str
        in
        Util.Crc32.update 0 entry_str start (stop - start))
  in
  let prefix_layer = Buffer.create 1024 in
  let rec_buf = Buffer.create 64 in
  Array.iteri
    (fun g { gp_slot; gp_shared; gp_entries; gp_meta } ->
      Buffer.clear rec_buf;
      Buffer.add_string rec_buf gp_slot;
      let add_u32 v =
        Buffer.add_char rec_buf (Char.chr ((v lsr 24) land 0xff));
        Buffer.add_char rec_buf (Char.chr ((v lsr 16) land 0xff));
        Buffer.add_char rec_buf (Char.chr ((v lsr 8) land 0xff));
        Buffer.add_char rec_buf (Char.chr (v land 0xff))
      and add_u16 v =
        Buffer.add_char rec_buf (Char.chr ((v lsr 8) land 0xff));
        Buffer.add_char rec_buf (Char.chr (v land 0xff))
      in
      add_u32 group_offsets.(g);
      add_u16 (Array.length gp_entries);
      Buffer.add_char rec_buf (Char.chr gp_shared);
      add_u16 gp_meta;
      (* inline record CRC: every prefix-layer probe self-verifies *)
      add_u32 (Util.Crc32.string (Buffer.contents rec_buf));
      Buffer.add_buffer prefix_layer rec_buf)
    groups;
  let gcrc_layer = Buffer.create (4 * Array.length groups) in
  Array.iter
    (fun crc ->
      Buffer.add_char gcrc_layer (Char.chr ((crc lsr 24) land 0xff));
      Buffer.add_char gcrc_layer (Char.chr ((crc lsr 16) land 0xff));
      Buffer.add_char gcrc_layer (Char.chr ((crc lsr 8) land 0xff));
      Buffer.add_char gcrc_layer (Char.chr (crc land 0xff)))
    gcrcs;
  (* Meta layer: the tag records, then the table-level statistics the
     handle caches (counts, seq range, payload), so a table can be reopened
     from its region alone after a restart. *)
  let meta_layer = Buffer.create 128 in
  Util.Varint.write meta_layer (Array.length metas);
  Array.iter
    (fun { tag; g_lo; g_hi } ->
      Util.Varint.write_string meta_layer tag;
      Util.Varint.write meta_layer g_lo;
      Util.Varint.write meta_layer g_hi)
    metas;
  Util.Varint.write meta_layer n;
  Util.Varint.write meta_layer !min_seq;
  Util.Varint.write meta_layer !max_seq;
  Util.Varint.write meta_layer !payload;
  (* Format v2: the bloom rides in the meta layer so the existing meta CRC
     covers it; bits_per_key = 0 keeps the byte-identical v1 layout. *)
  let bloom =
    if bloom_bits_per_key <= 0 then None
    else
      Some
        (Bloom.of_keys ~bits_per_key:bloom_bits_per_key
           (Array.to_list (Array.map (fun (e : Util.Kv.entry) -> e.key) entries)))
  in
  (match bloom with
  | Some b -> Util.Varint.write_string meta_layer (Bloom.serialize b)
  | None -> ());
  (* 3. Allocate and write through the buffered builder; a fixed-width
     footer closes the region (see open_existing). *)
  let entry_len = Buffer.length entry_layer in
  let meta_off = entry_len + Buffer.length prefix_layer + Buffer.length gcrc_layer in
  let meta_crc = Util.Crc32.string (Buffer.contents meta_layer) in
  let footer = Buffer.create footer_bytes in
  let add_u32 v =
    Buffer.add_char footer (Char.chr ((v lsr 24) land 0xff));
    Buffer.add_char footer (Char.chr ((v lsr 16) land 0xff));
    Buffer.add_char footer (Char.chr ((v lsr 8) land 0xff));
    Buffer.add_char footer (Char.chr (v land 0xff))
  in
  add_u32 entry_len;
  add_u32 meta_off;
  add_u32 (Array.length groups);
  Buffer.add_char footer (Char.chr prefix_len);
  Buffer.add_char footer (Char.chr group_size);
  add_u32 meta_crc;
  add_u32 (match bloom with Some _ -> magic_v2 | None -> magic);
  add_u32 (Util.Crc32.string (Buffer.contents footer));
  assert (Buffer.length footer = footer_bytes);
  let total = meta_off + Buffer.length meta_layer + footer_bytes in
  let region = Pmem.alloc dev total in
  let builder = Builder.create dev region in
  Builder.add_string builder (Buffer.contents entry_layer);
  Builder.add_string builder (Buffer.contents prefix_layer);
  Builder.add_string builder (Buffer.contents gcrc_layer);
  Builder.add_string builder (Buffer.contents meta_layer);
  Builder.add_string builder (Buffer.contents footer);
  let written = Builder.finish builder in
  assert (written = total);
  {
    bloom;
    dev;
    region;
    count = n;
    group_size;
    prefix_len;
    group_count = Array.length groups;
    entry_len;
    prefix_off = entry_len;
    meta_off;
    metas;
    gcrcs;
    meta_crc;
    min_key = entries.(0).key;
    max_key = entries.(n - 1).key;
    min_seq = !min_seq;
    max_seq = !max_seq;
    payload_bytes = !payload;
  }

let count t = t.count
let byte_size t = Pmem.region_len t.region
let payload_bytes t = t.payload_bytes
let min_key t = t.min_key
let max_key t = t.max_key
let seq_range t = (t.min_seq, t.max_seq)
let free t = Pmem.free t.dev t.region
let region_id t = Pmem.region_id t.region
let group_count t = t.group_count

type record = { slot : string; offset : int; count_ : int; shared : int; meta_idx : int }

(* One PM access: the fixed-width prefix-layer record of group [g],
   verified against its inline CRC. *)
let read_record t g =
  let w = record_width t in
  let raw = Pmem.read t.dev t.region ~off:(t.prefix_off + (g * w)) ~len:w in
  if
    !verify_checksums
    && Builder.read_u32 raw (w - 4) <> Util.Crc32.update 0 raw 0 (w - 4)
  then
    raise
      (Integrity.Corrupted
         { region_id = Pmem.region_id t.region; layer = "prefix"; index = g });
  {
    slot = String.sub raw 0 t.prefix_len;
    offset = Builder.read_u32 raw t.prefix_len;
    count_ = Builder.read_u16 raw (t.prefix_len + 4);
    shared = Char.code raw.[t.prefix_len + 6];
    meta_idx = Builder.read_u16 raw (t.prefix_len + 7);
  }

let group_prefix t record =
  let tag = t.metas.(record.meta_idx).tag in
  tag ^ String.sub record.slot 0 record.shared

(* The first entry's key of group [g]: read the head of the group's extent
   for the length varint, then the suffix itself (a second access only when
   the suffix outruns the peek). Used only to break slot ties. *)
let read_first_key t record =
  let peek = min 16 (t.entry_len - record.offset) in
  let head = Pmem.read t.dev t.region ~off:record.offset ~len:peek in
  let suffix_len, p = Util.Varint.read head 0 in
  let available = peek - p in
  let suffix =
    if suffix_len <= available then String.sub head p suffix_len
    else
      String.sub head p available
      ^ Pmem.read t.dev t.region ~off:(record.offset + peek) ~len:(suffix_len - available)
  in
  group_prefix t record ^ suffix

(* Module-wide telemetry, like [bloom_probes]: group extents decoded. *)
let group_reads = ref 0

(* Decode group [g]'s entries, reconstructing full keys. The next group's
   record ends the extent; it is read here and returned, so a sequential
   walk reads each record once. The raw extent is verified against the
   handle-cached group CRC first — one string pass, no extra PM access — so
   a rotten group raises instead of decoding junk. *)
let read_group_next t g record =
  let next = if g + 1 < t.group_count then Some (read_record t (g + 1)) else None in
  let stop = match next with Some r -> r.offset | None -> t.entry_len in
  incr group_reads;
  let raw = Pmem.read t.dev t.region ~off:record.offset ~len:(stop - record.offset) in
  if !verify_checksums && Util.Crc32.string raw <> t.gcrcs.(g) then
    raise
      (Integrity.Corrupted
         { region_id = Pmem.region_id t.region; layer = "entry"; index = g });
  charge_cpu t.dev (float_of_int record.count_ *. decode_cpu_ns);
  let prefix = group_prefix t record in
  let pos = ref 0 in
  let entries =
    Array.init record.count_ (fun _ ->
        let suffix, p = Util.Varint.read_string raw !pos in
        let seq, p = Util.Varint.read raw p in
        let kind = if raw.[p] = '\000' then Util.Kv.Delete else Util.Kv.Put in
        let value, p = Util.Varint.read_string raw (p + 1) in
        pos := p;
        { Util.Kv.key = prefix ^ suffix; seq; kind; value })
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
  let raw = Pmem.read dev region ~off:(len - footer_bytes) ~len:footer_bytes in
  let format_version =
    let m = Builder.read_u32 raw 18 in
    if m = magic then 1
    else if m = magic_v2 then 2
    else failwith "Pm_table.open_existing: bad magic (not a PM table, or torn write)"
  in
  if
    !verify_checksums
    && Builder.read_u32 raw 22 <> Util.Crc32.update 0 raw 0 (footer_bytes - 4)
  then
    raise
      (Integrity.Corrupted
         { region_id = Pmem.region_id region; layer = "footer"; index = 0 });
  let entry_len = Builder.read_u32 raw 0 in
  let meta_off = Builder.read_u32 raw 4 in
  let group_count = Builder.read_u32 raw 8 in
  let prefix_len = Char.code raw.[12] in
  let group_size = Char.code raw.[13] in
  let meta_crc = Builder.read_u32 raw 14 in
  let meta_raw = Pmem.read dev region ~off:meta_off ~len:(len - footer_bytes - meta_off) in
  if !verify_checksums && Util.Crc32.string meta_raw <> meta_crc then
    raise
      (Integrity.Corrupted
         { region_id = Pmem.region_id region; layer = "meta"; index = 0 });
  let gcrc_off = meta_off - (4 * group_count) in
  let gcrc_raw =
    if group_count = 0 then ""
    else Pmem.read dev region ~off:gcrc_off ~len:(4 * group_count)
  in
  let gcrcs = Array.init group_count (fun g -> Builder.read_u32 gcrc_raw (4 * g)) in
  let meta_count, pos = Util.Varint.read meta_raw 0 in
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
  let min_seq, p = Util.Varint.read meta_raw p in
  let max_seq, p = Util.Varint.read meta_raw p in
  let payload_bytes, p = Util.Varint.read meta_raw p in
  let bloom =
    if format_version < 2 then None
    else
      let raw, _ = Util.Varint.read_string meta_raw p in
      Some (Bloom.deserialize raw)
  in
  let t =
    {
      bloom;
      dev;
      region;
      count;
      group_size;
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
      min_seq;
      max_seq;
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
  let c = String.compare record.slot probe_slot in
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

(* A key's versions never cross a group boundary, so the located group is
   the only one that can hold it. *)
let get_in_run t ~g_lo ~g_hi key tag =
  let probe_slot = pad_slot t.prefix_len (strip tag key) in
  match locate t ~g_lo ~g_hi ~probe_slot ~key with
  | None -> None
  | Some (g, record) ->
      Array.find_opt (fun (e : Util.Kv.entry) -> e.key = key) (read_group t g record)

let groups t =
  let records = Array.init t.group_count (read_record t) in
  List.init t.group_count (fun g ->
      let stop = if g + 1 < t.group_count then records.(g + 1).offset else t.entry_len in
      (records.(g).count_, stop - records.(g).offset))

let has_bloom t = t.bloom <> None

let get ?(use_bloom = true) t key =
  if key < t.min_key || key > t.max_key then None
  else
    let screened =
      match t.bloom with
      | Some b when use_bloom ->
          incr bloom_probes;
          Obs.Attr.charge Obs.Attr.Pm_bloom 0.0;
          let absent = not (Bloom.mem b key) in
          if absent then incr bloom_negatives;
          absent
      | _ -> false
    in
    if screened then None
    else
      List.find_map
        (fun { tag; g_lo; g_hi } -> get_in_run t ~g_lo ~g_hi key tag)
        (metas_for t key)

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
    (try
       let raw = Pmem.read t.dev t.region ~off:(len - footer_bytes) ~len:footer_bytes in
       let m = Builder.read_u32 raw 18 in
       if
         (m <> magic && m <> magic_v2)
         || Builder.read_u32 raw 22 <> Util.Crc32.update 0 raw 0 (footer_bytes - 4)
       then note "footer" 0
     with _ -> note "footer" 0);
    (try
       let meta_raw =
         Pmem.read t.dev t.region ~off:t.meta_off ~len:(len - footer_bytes - t.meta_off)
       in
       if Util.Crc32.string meta_raw <> t.meta_crc then note "meta" 0
     with _ -> note "meta" 0);
    (* The persisted group-checksum layer itself (the DRAM cache used by
       reads would mask rot in it until the next reopen). *)
    (try
       let gcrc_off = t.meta_off - (4 * t.group_count) in
       let raw = Pmem.read t.dev t.region ~off:gcrc_off ~len:(4 * t.group_count) in
       for g = 0 to t.group_count - 1 do
         if Builder.read_u32 raw (4 * g) <> t.gcrcs.(g) then note "gcrc" g
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
