(* CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8: the main loop
   folds 8 input bytes per step through eight 256-entry tables, kept in one
   flat array and built eagerly ([tables.(k * 256 + n)] is byte [n]'s
   contribution with k more bytes still to come); the tail runs byte by
   byte through the first table. The result equals the classic
   byte-at-a-time loop for every input. Used to detect torn or corrupted
   PM-table, SSTable, WAL and manifest blocks. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let u32_le s i = Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF

let update crc s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Crc32.update";
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    (* [lo] and [hi] are the state xored with the next 8 bytes; the state's
       bits past 32 line up with the second word, as the bytewise shift
       would carry them. *)
    let lo = !c lxor u32_le s !i in
    let hi = (!c lsr 32) lxor u32_le s (!i + 4) in
    c :=
      tables.(0x700 + (lo land 0xff))
      lxor tables.(0x600 + ((lo lsr 8) land 0xff))
      lxor tables.(0x500 + ((lo lsr 16) land 0xff))
      lxor tables.(0x400 + ((lo lsr 24) land 0xff))
      lxor tables.(0x300 + (hi land 0xff))
      lxor tables.(0x200 + ((hi lsr 8) land 0xff))
      lxor tables.(0x100 + ((hi lsr 16) land 0xff))
      lxor tables.((hi lsr 24) land 0xff);
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    c := tables.((!c lxor Char.code s.[j]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let string s = update 0 s 0 (String.length s)
