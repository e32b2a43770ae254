(* Bloom filter with double hashing (Kirsch-Mitzenmacher).

   One filter per SSTable, sized by bits-per-key like LevelDB/RocksDB.
   k probe positions are derived from two independent 32-bit hashes of the
   key: g_i = h1 + i*h2. No false negatives (property-tested); false
   positive rate ~ (1 - e^{-kn/m})^k. *)

type t = { bits : Bytes.t; nbits : int; k : int }

(* FNV-1a, then a murmur-style finalizer for the second hash. *)
let hash1 s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0x7fffffff)
    s;
  !h

let hash2 s =
  let h = ref (hash1 s lxor 0x5bd1e995) in
  h := !h * 0xcc9e2d51 land 0x7fffffff;
  h := !h lxor (!h lsr 15);
  h := !h * 0x1b873593 land 0x7fffffff;
  h := !h lxor (!h lsr 13);
  (* An even h2 would make probes cycle; force odd. *)
  !h lor 1

let optimal_k bits_per_key =
  let k = int_of_float (float_of_int bits_per_key *. 0.69) in
  if k < 1 then 1 else if k > 30 then 30 else k

let create ~bits_per_key n =
  let n = max n 1 in
  let nbits = max 64 (n * bits_per_key) in
  { bits = Bytes.make ((nbits + 7) / 8) '\000'; nbits; k = optimal_k bits_per_key }

let set_bit t i =
  let byte = i / 8 and bit = i mod 8 in
  Bytes.set t.bits byte (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl bit)))

let get_bit t i =
  let byte = i / 8 and bit = i mod 8 in
  Char.code (Bytes.get t.bits byte) land (1 lsl bit) <> 0

let add t key =
  let h1 = hash1 key and h2 = hash2 key in
  for i = 0 to t.k - 1 do
    set_bit t ((h1 + (i * h2)) mod t.nbits)
  done

let mem t key =
  let h1 = hash1 key and h2 = hash2 key in
  let rec probe i = i >= t.k || (get_bit t ((h1 + (i * h2)) mod t.nbits) && probe (i + 1)) in
  probe 0

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
