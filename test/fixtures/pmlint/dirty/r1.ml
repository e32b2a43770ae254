(* Planted R1 violations — parse-only fixture, never compiled. Every
   durability point below is reachable with un-persisted PM bytes; pmlint
   must flag all five. *)

let direct_commit dev region data =
  Pmem.write dev region ~off:0 data;
  Pmem.commit_point dev "wal.sync"

(* the PR 5 chaos_skip_flush shape: the flush sits behind a kill switch,
   so one path reaches the seal with the write unflushed *)
let skipped_flush dev region data ~chaos =
  Pmem.write dev region ~off:0 data;
  if not chaos then Pmem.flush dev region ~off:0 ~len:(String.length data);
  Pmem.drain dev;
  Pmem.commit_point dev "pmtable.seal"

(* the PR 5 tail-line shape: the final partial line is rewritten after
   its flush and never flushed again before the fence *)
let tail_line dev region chunk tail =
  Pmem.write dev region ~off:0 chunk;
  Pmem.flush dev region ~off:0 ~len:(String.length chunk);
  Pmem.write dev region ~off:(String.length chunk) tail;
  Pmem.drain dev;
  Pmem.commit_point dev "pmtable.seal"

(* decomposed through a local helper: the summary must carry the dirty
   state from [spill] into [finish] *)
let spill dev region data = Pmem.write dev region ~off:0 data

let finish dev region data =
  spill dev region data;
  Pmem.drain dev;
  Pmem.commit_point dev "pmtable.seal"

(* the Wal.chaos_skip_drain shape: the group goes to the log ring and its
   lines are written back, but the fence sits behind a kill switch, so one
   path acknowledges the group flushed-but-unfenced *)
let ring_sync dev ring ~off group ~chaos =
  Pmem.write dev ring ~off group;
  Pmem.flush dev ring ~off ~len:(String.length group);
  if not chaos then Pmem.drain dev;
  Pmem.commit_point dev "wal.sync"
