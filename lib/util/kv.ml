(* The record type flowing through every layer of the LSM-tree.

   Keys and values are opaque byte strings. Each write is stamped with a
   monotonically increasing sequence number; a (key, seq) pair identifies one
   version. Within a key, higher seq shadows lower seq. Deletes are
   tombstones that shadow older versions and are dropped only when the merge
   reaches the bottom level. *)

type kind = Put | Delete

type entry = { key : string; seq : int; kind : kind; value : string }

let entry ?(kind = Put) ~key ~seq value = { key; seq; kind; value }

let tombstone ~key ~seq = { key; seq; kind = Delete; value = "" }

(* Internal ordering: by key ascending, then by seq *descending*, so the
   newest version of a key sorts first — the order every merge relies on. *)
let compare_entry a b =
  let c = String.compare a.key b.key in
  if c <> 0 then c else compare b.seq a.seq

let encoded_size e =
  Varint.size (String.length e.key)
  + String.length e.key
  + Varint.size e.seq
  + 1
  + Varint.size (String.length e.value)
  + String.length e.value

let encode buf e =
  Varint.write_string buf e.key;
  Varint.write buf e.seq;
  Buffer.add_char buf (match e.kind with Put -> '\001' | Delete -> '\000');
  Varint.write_string buf e.value

let encode_into b pos e =
  let pos = Varint.put_string b pos e.key in
  let pos = Varint.put b pos e.seq in
  Bytes.set b pos (match e.kind with Put -> '\001' | Delete -> '\000');
  Varint.put_string b (pos + 1) e.value

let decode s pos =
  let key, pos = Varint.read_string s pos in
  let seq, pos = Varint.read s pos in
  if pos >= String.length s then failwith "Kv.decode: truncated entry";
  let kind = if s.[pos] = '\000' then Delete else Put in
  let value, pos = Varint.read_string s (pos + 1) in
  ({ key; seq; kind; value }, pos)

let pp_kind ppf = function
  | Put -> Fmt.string ppf "put"
  | Delete -> Fmt.string ppf "del"

let pp ppf e =
  Fmt.pf ppf "@[<h>%s@%d %a %S@]" e.key e.seq pp_kind e.kind e.value
