(* Uncompressed array-based PM table (the structure MatrixKV uses, and the
   "Array-based" baseline of Fig. 6).

   Layout on the region:

     [ entry data ........ ][ offset slots: u32 per entry ]

   The data area holds entries encoded back-to-back with Kv.encode; the
   metadata area holds one fixed-width offset per entry so binary search can
   jump to any entry. Each binary-search probe therefore costs two PM
   accesses: one for the offset slot, one for the entry bytes -- the double
   access the paper's three-layer structure is designed to avoid. *)

type t = {
  dev : Pmem.t;
  region : Pmem.region;
  count : int;
  slots_off : int;      (* start of the offset area *)
  data_len : int;
  min_key : string;
  max_key : string;
  payload_bytes : int;  (* uncompressed logical size *)
}

(* CPU cost of encoding/decoding one entry, charged alongside device time. *)
let encode_cpu_ns = 30.0
let decode_cpu_ns = 25.0

let charge_cpu dev ns = Sim.Clock.advance (Pmem.clock dev) ns

let build dev (entries : Util.Kv.entry array) =
  let n = Array.length entries in
  if n = 0 then invalid_arg "Array_table.build: empty input";
  for i = 1 to n - 1 do
    if Util.Kv.compare_entry entries.(i - 1) entries.(i) > 0 then
      invalid_arg "Array_table.build: input not sorted by Kv.compare_entry"
  done;
  (* One exact-size image: the entries, then one u32 slot per entry. *)
  let data_len = Array.fold_left (fun acc e -> acc + Util.Kv.encoded_size e) 0 entries in
  let total = data_len + (4 * n) in
  let image = Bytes.create total in
  let pos = ref 0 in
  Array.iteri
    (fun i e ->
      ignore (Builder.put_u32 image (data_len + (4 * i)) !pos : int);
      pos := Util.Kv.encode_into image !pos e)
    entries;
  charge_cpu dev (float_of_int n *. encode_cpu_ns);
  let region = Pmem.alloc dev total in
  let builder = Builder.create dev region (Bytes.unsafe_to_string image) in
  (* the data staged whole, the slots staged as the u32s they are encoded
     from, byte by byte *)
  Builder.stage builder data_len;
  Builder.stage_bytewise builder (4 * n);
  let written = Builder.finish builder in
  assert (written = total);
  {
    dev;
    region;
    count = n;
    slots_off = data_len;
    data_len;
    min_key = entries.(0).key;
    max_key = entries.(n - 1).key;
    payload_bytes = data_len;
  }

let count t = t.count
let byte_size t = Pmem.region_len t.region
let payload_bytes t = t.payload_bytes
let min_key t = t.min_key
let max_key t = t.max_key
let free t = Pmem.free t.dev t.region
let region_id t = Pmem.region_id t.region

(* One offset slot: a 4-byte PM access, decoded in place. *)
let read_slot t i =
  let off = t.slots_off + (4 * i) in
  Builder.read_u32 (Pmem.read_in_place t.dev t.region ~off ~len:4) off

let entry_bounds t i =
  let start = read_slot t i in
  let stop = if i + 1 < t.count then read_slot t (i + 1) else t.data_len in
  (start, stop)

(* One probe = offset-slot read + entry read: the two PM accesses per
   lookup step that motivate the compressed layout. *)
let read_entry t i =
  let start, stop = entry_bounds t i in
  let view = Pmem.read_in_place t.dev t.region ~off:start ~len:(stop - start) in
  charge_cpu t.dev decode_cpu_ns;
  fst (Util.Kv.decode view start)

(* Index of the first entry >= (key, max seq), i.e. the newest version of
   [key] if present. *)
let lower_bound t key =
  let probe = Util.Kv.entry ~key ~seq:max_int "" in
  let lo = ref 0 and hi = ref t.count in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let e = read_entry t mid in
    if Util.Kv.compare_entry e probe < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let get t key =
  if key < t.min_key || key > t.max_key then None
  else begin
    let i = lower_bound t key in
    if i >= t.count then None
    else
      let e = read_entry t i in
      if e.Util.Kv.key = key then Some e else None
  end

(* Sequential scan: read the data area in chunk-sized pieces (charging
   bandwidth, not per-entry random accesses), then decode in place. *)
let read_data_sequential t =
  let chunk = 4096 in
  let view = ref "" in
  let off = ref 0 in
  while !off < t.data_len do
    let len = min chunk (t.data_len - !off) in
    view := Pmem.read_in_place t.dev t.region ~off:!off ~len;
    off := !off + len
  done;
  !view

let iter t f =
  let data = read_data_sequential t in
  charge_cpu t.dev (float_of_int t.count *. decode_cpu_ns);
  let pos = ref 0 in
  for _ = 1 to t.count do
    let e, next = Util.Kv.decode data !pos in
    pos := next;
    f e
  done

let to_list t =
  let acc = ref [] in
  iter t (fun e -> acc := e :: !acc);
  List.rev !acc

(* Entries with key in [start, stop): binary search to the start, then
   sequential reads. *)
let range t ~start ~stop f =
  if stop > t.min_key && start <= t.max_key then begin
    let i0 = lower_bound t start in
    let rec loop i =
      if i < t.count then begin
        let e = read_entry t i in
        if String.compare e.Util.Kv.key stop < 0 then begin
          f e;
          loop (i + 1)
        end
      end
    in
    loop i0
  end
