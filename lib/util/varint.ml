(* LEB128-style variable-length integers, used by every on-device encoding
   (PM tables, SSTable blocks). Little-endian base-128 with a continuation
   bit, as in protobuf/LevelDB. *)

let write buf v =
  if v < 0 then invalid_arg "Varint.write: negative";
  let v = ref v in
  while !v >= 0x80 do
    Buffer.add_char buf (Char.chr ((!v land 0x7f) lor 0x80));
    v := !v lsr 7
  done;
  Buffer.add_char buf (Char.chr !v)

(* [write] into a sized image: encode at [pos], return the next position. *)
let put b pos v =
  if v < 0 then invalid_arg "Varint.put: negative";
  let v = ref v and pos = ref pos in
  while !v >= 0x80 do
    Bytes.set b !pos (Char.chr ((!v land 0x7f) lor 0x80));
    incr pos;
    v := !v lsr 7
  done;
  Bytes.set b !pos (Char.chr !v);
  !pos + 1

(* Decode the varint at [!cur] and move [cur] past it. [read] is this with
   a local cursor; scans that must not allocate per field call it
   directly. *)
let[@inline] read_at s cur =
  let result = ref 0 in
  let shift = ref 0 in
  let continue = ref true in
  while !continue do
    if !cur >= String.length s then failwith "Varint.read: truncated input";
    let byte = Char.code s.[!cur] in
    incr cur;
    result := !result lor ((byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    if byte < 0x80 then continue := false
    else if !shift > 62 then failwith "Varint.read: overflow"
  done;
  !result

let read s pos =
  let cur = ref pos in
  let v = read_at s cur in
  (v, !cur)

let size v =
  if v < 0 then invalid_arg "Varint.size: negative";
  let rec loop v acc = if v < 0x80 then acc else loop (v lsr 7) (acc + 1) in
  loop v 1

let write_string buf s =
  write buf (String.length s);
  Buffer.add_string buf s

let put_string b pos s =
  let pos = put b pos (String.length s) in
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

let read_string s pos =
  let len, pos = read s pos in
  if pos + len > String.length s then failwith "Varint.read_string: truncated input";
  (String.sub s pos len, pos + len)
