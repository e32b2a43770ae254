(* Sequential writer of one finished table image onto a PM region.

   A table is encoded into one exact-size DRAM image first; the builder
   then writes slices of it in [chunk]-byte pieces, amortising the
   per-access write cost the way real PM code batches ntstore/clwb. The
   caller stages the image in the pieces it was laid out in: a piece staged
   whole ([stage]) spills once the staged bytes reach a chunk, a piece
   staged bytewise ([stage_bytewise]) spills at every chunk. Spills flush
   (clwb) only the cache lines they complete; a line straddling two chunks
   is flushed once, by the spill that fills it (or by [finish] for the
   final partial line) — flushing it early would be wasted work, since the
   next chunk rewrites it and forces another write-back before the closing
   fence. pmsan counts exactly that pattern as a redundant flush. *)

type t = {
  dev : Pmem.t;
  region : Pmem.region;
  image : string;
  mutable staged : int;       (* end of the staged bytes *)
  mutable written : int;      (* bytes already on the device *)
  mutable flushed_upto : int; (* line-aligned clwb high-water mark *)
}

let chunk = 4096
let line_bytes = 64

(* Planted-bug kill switches (cf. [Pm_table.verify_checksums]): drop the
   clwb of spilled chunks, or the closing fence, so the sanitizer tests
   can prove pmsan catches an unpersisted seal. Never set in production
   code. *)
let chaos_skip_flush = ref false
let chaos_skip_drain = ref false

let create dev region image =
  if String.length image <> Pmem.region_len region then
    invalid_arg "Builder.create: image and region sizes differ";
  { dev; region; image; staged = 0; written = 0; flushed_upto = 0 }

(* Write back the completed lines in [flushed_upto, upto): each line gets
   exactly one clwb per build. *)
let flush_upto t upto =
  if upto > t.flushed_upto && not !chaos_skip_flush then
    Pmem.flush t.dev t.region ~off:t.flushed_upto ~len:(upto - t.flushed_upto);
  t.flushed_upto <- max t.flushed_upto upto

let spill t =
  let len = t.staged - t.written in
  if len > 0 then begin
    Pmem.write t.dev t.region ~off:t.written ~src_off:t.written ~len t.image;
    t.written <- t.staged;
    (* leave a partial tail line dirty: the next chunk finishes it *)
    flush_upto t (t.written land lnot (line_bytes - 1))
  end

let check_stage t len =
  if len < 0 || t.staged + len > String.length t.image then
    invalid_arg "Builder.stage: past the end of the image"

let stage t len =
  check_stage t len;
  t.staged <- t.staged + len;
  if t.staged - t.written >= chunk then spill t

let stage_bytewise t len =
  check_stage t len;
  let stop = t.staged + len in
  while t.staged < stop do
    t.staged <- min stop (t.written + chunk);
    if t.staged - t.written >= chunk then spill t
  done

let finish t =
  spill t;
  flush_upto t t.written;  (* the final partial line *)
  if not !chaos_skip_drain then Pmem.drain t.dev;
  (* the seal is a durability barrier: the table must be fully fenced
     before anything references it *)
  (* pmlint:allow flush-before-commit: the only unflushed paths are the
     chaos_skip_flush/chaos_skip_drain kill switches above, planted so the
     sanitizer tests can prove pmsan catches an unpersisted seal; pmsan
     checks the real protocol on every sanitized run *)
  Pmem.commit_point t.dev "pmtable.seal";
  t.written

(* Fixed-width big-endian u32, for binary-searchable offset slots. *)
let put_u32 b pos v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Builder.put_u32: out of range";
  Bytes.set b pos (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (pos + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (pos + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (pos + 3) (Char.chr (v land 0xff));
  pos + 4

let put_u16 b pos v =
  if v < 0 || v > 0xFFFF then invalid_arg "Builder.put_u16: out of range";
  Bytes.set b pos (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (pos + 1) (Char.chr (v land 0xff));
  pos + 2

let read_u32 s pos =
  let b k = Char.code s.[pos + k] in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

let read_u16 s pos =
  let b k = Char.code s.[pos + k] in
  (b 0 lsl 8) lor b 1
