(* CRC-32 (IEEE 802.3 polynomial, reflected) through zlib's [crc32_z]: a
   [noalloc] call with untagged arguments into a C stub
   (crc32_stubs.c). Its result equals the classic byte-at-a-time loop for
   every input. The crc is the 32-bit value zlib passes around, so an
   incoming crc must lie in [0, 2^32): every caller seeds with 0 or a
   previous result. Used to detect torn or corrupted PM-table, SSTable,
   WAL and manifest blocks. *)

external crc32_z :
  (int[@untagged]) -> string -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "pmb_crc32_update_byte" "pmb_crc32_update"
[@@noalloc]

let update crc s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Crc32.update";
  if crc < 0 || crc > 0xFFFFFFFF then invalid_arg "Crc32.update: crc outside 32 bits";
  crc32_z crc s pos len

let string s = update 0 s 0 (String.length s)
