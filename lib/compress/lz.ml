(* Snappy-like LZ byte compressor.

   Stands in for Google Snappy in the Array-snappy / Array-snappy-group
   baselines of Fig. 6: a greedy LZ77 with a small hash table over 4-byte
   sequences, emitting a stream of literal runs and (offset, length) copies.
   Format (all varints little-endian base-128):

     header  : varint uncompressed_length
     element : tag byte 'L' + varint len + len literal bytes
             | tag byte 'C' + varint offset + varint len (copy from output)

   Like Snappy it favours speed over ratio: no entropy coding, greedy
   matching, minimum match length 4. The simulated CPU cost of using it is
   charged by callers via Cost. *)

let min_match = 4
let hash_bits = 13
let hash_size = 1 lsl hash_bits

let hash4 s i =
  let b k = Char.code s.[i + k] in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  (v * 0x9E3779B1) lsr (31 - hash_bits) land (hash_size - 1)

let compress input =
  let n = String.length input in
  let out = Buffer.create (n / 2) in
  Util.Varint.write out n;
  if n < min_match then begin
    if n > 0 then begin
      Buffer.add_char out 'L';
      Util.Varint.write_string out input
    end;
    Buffer.contents out
  end
  else begin
    let table = Array.make hash_size (-1) in
    let lit_start = ref 0 in
    let emit_literals upto =
      if upto > !lit_start then begin
        Buffer.add_char out 'L';
        Util.Varint.write out (upto - !lit_start);
        Buffer.add_substring out input !lit_start (upto - !lit_start)
      end
    in
    let i = ref 0 in
    while !i + min_match <= n do
      let h = hash4 input !i in
      let candidate = table.(h) in
      table.(h) <- !i;
      if
        candidate >= 0
        && String.sub input candidate min_match = String.sub input !i min_match
      then begin
        (* Extend the match as far as possible. *)
        let len = ref min_match in
        while !i + !len < n && input.[candidate + !len] = input.[!i + !len] do
          incr len
        done;
        emit_literals !i;
        Buffer.add_char out 'C';
        Util.Varint.write out (!i - candidate);
        Util.Varint.write out !len;
        i := !i + !len;
        lit_start := !i
      end
      else incr i
    done;
    emit_literals n;
    Buffer.contents out
  end

let decompress ?(pos = 0) ?len compressed =
  let n = match len with Some len -> pos + len | None -> String.length compressed in
  if pos < 0 || n < pos || n > String.length compressed then
    invalid_arg "Lz.decompress: out of bounds";
  let total, pos = Util.Varint.read compressed pos in
  let out = Buffer.create total in
  let pos = ref pos in
  while !pos < n do
    let tag = compressed.[!pos] in
    incr pos;
    match tag with
    | 'L' ->
        let len, p = Util.Varint.read compressed !pos in
        if p + len > n then failwith "Lz.decompress: truncated literal";
        Buffer.add_substring out compressed p len;
        pos := p + len
    | 'C' ->
        let offset, p = Util.Varint.read compressed !pos in
        let len, p = Util.Varint.read compressed p in
        pos := p;
        let start = Buffer.length out - offset in
        if start < 0 || offset = 0 then failwith "Lz.decompress: bad copy offset";
        (* Copies may overlap forward (RLE-style); copy byte-by-byte. *)
        for k = 0 to len - 1 do
          Buffer.add_char out (Buffer.nth out (start + k))
        done
    | c -> failwith (Printf.sprintf "Lz.decompress: bad tag %C" c)
  done;
  let result = Buffer.contents out in
  if String.length result <> total then failwith "Lz.decompress: length mismatch";
  result

(* Simulated CPU costs — Snappy-class software codec: ~1 GB/s compression,
   ~2 GB/s decompression, plus a fixed per-call overhead (setup, hash-table
   clearing) that penalises compressing tiny units. Used by the table
   builders to charge the virtual clock. *)
let compress_cost_ns_per_byte = 1.0
let decompress_cost_ns_per_byte = 0.5
let compress_call_ns = 300.0
let decompress_call_ns = 100.0
