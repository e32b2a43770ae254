(* Bloom filter with double hashing (Kirsch-Mitzenmacher).

   One filter per SSTable, sized by bits-per-key like LevelDB/RocksDB.
   k probe positions are derived from two hashes of the key, the second
   finalized from the first so the key is walked once: g_i = h1 + i*h2.
   No false negatives (property-tested); false positive rate
   ~ (1 - e^{-kn/m})^k. *)

type t = { bits : Bytes.t; nbits : int; k : int }

(* FNV-1a over the key in one pass, then a murmur-style finalizer of that
   h1 for the second hash. h1 < 2^32 and h2 < 2^31. *)
let hash1 s =
  let h = ref 0x811c9dc5 in
  for i = 0 to String.length s - 1 do
    h := (!h lxor Char.code s.[i]) * 0x01000193 land 0x7fffffff
  done;
  !h

let hash2 h1 =
  let h = (h1 lxor 0x5bd1e995) * 0xcc9e2d51 land 0x7fffffff in
  let h = h lxor (h lsr 15) in
  let h = h * 0x1b873593 land 0x7fffffff in
  let h = h lxor (h lsr 13) in
  (* An even h2 would make probes cycle; force odd. *)
  h lor 1

let optimal_k bits_per_key =
  let k = int_of_float (float_of_int bits_per_key *. 0.69) in
  if k < 1 then 1 else if k > 30 then 30 else k

let create ~bits_per_key n =
  let n = max n 1 in
  let nbits = max 64 (n * bits_per_key) in
  { bits = Bytes.make ((nbits + 7) / 8) '\000'; nbits; k = optimal_k bits_per_key }

let set_bit t i =
  let byte = i lsr 3 in
  Bytes.set_uint8 t.bits byte (Bytes.get_uint8 t.bits byte lor (1 lsl (i land 7)))

let get_bit t i = Bytes.get_uint8 t.bits (i lsr 3) land (1 lsl (i land 7)) <> 0

(* Probe i sits at g_i mod nbits. Stepping from [h1 mod nbits] by
   [h2 mod nbits] with a conditional subtract lands on the same positions
   for two [mod]s per key: every term is non-negative and k <= 30 keeps
   h1 + i*h2 far from overflow. *)
let next_probe t pos step =
  let pos = pos + step in
  if pos >= t.nbits then pos - t.nbits else pos

let add t key =
  let h1 = hash1 key in
  let step = hash2 h1 mod t.nbits in
  let pos = ref (h1 mod t.nbits) in
  for _ = 1 to t.k do
    set_bit t !pos;
    pos := next_probe t !pos step
  done

let rec all_set t step i pos =
  i >= t.k || (get_bit t pos && all_set t step (i + 1) (next_probe t pos step))

let mem t key =
  let h1 = hash1 key in
  all_set t (hash2 h1 mod t.nbits) 0 (h1 mod t.nbits)

let size_bytes t = Bytes.length t.bits

let of_keys ~bits_per_key keys =
  let t = create ~bits_per_key (List.length keys) in
  List.iter (add t) keys;
  t

(* Persisted form: varint nbits, varint k, raw bit bytes — so SSTable meta
   blocks can store the filter and recovery can reopen it. *)
let serialized_size t =
  Util.Varint.size t.nbits + Util.Varint.size t.k + Bytes.length t.bits

let serialize_into t b pos =
  let pos = Util.Varint.put b pos t.nbits in
  let pos = Util.Varint.put b pos t.k in
  Bytes.blit t.bits 0 b pos (Bytes.length t.bits);
  pos + Bytes.length t.bits

let serialize t =
  let b = Bytes.create (serialized_size t) in
  ignore (serialize_into t b 0 : int);
  Bytes.unsafe_to_string b

let deserialize s =
  let nbits, pos = Util.Varint.read s 0 in
  let k, pos = Util.Varint.read s pos in
  let byte_count = (nbits + 7) / 8 in
  if String.length s - pos < byte_count then failwith "Bloom.deserialize: truncated";
  { bits = Bytes.of_string (String.sub s pos byte_count); nbits; k }
