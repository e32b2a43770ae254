(* Shared DRAM block cache: sharded, strictly capacity-bounded LRU.

   One cache serves every SSTable of an engine (the per-table unbounded
   arrays it replaces could grow past any DRAM budget). Entries are keyed
   by (file_id, block index) and charged their payload size plus a fixed
   bookkeeping overhead; an insert that would overflow a shard evicts from
   its LRU tail *before* admitting, so the resident total never exceeds
   the configured capacity — not even transiently.

   Sharding bounds the cost of the LRU list operations and mirrors how a
   concurrent cache would partition its locks; the shard of a block is a
   hash of its key, so one hot file spreads across shards. Hits charge
   DRAM latency to the virtual clock (fixed access cost plus a per-byte
   stream term), keeping the simulated read path honest about where bytes
   were served from. *)

type node = {
  n_file : int;
  n_block : int;
  n_data : string;
  n_charge : int;
  mutable prev : node;  (* toward MRU; cyclic through the sentinel *)
  mutable next : node;  (* toward LRU *)
}

type shard = {
  tbl : (int * int, node) Hashtbl.t;
  sentinel : node;  (* sentinel.next = MRU head, sentinel.prev = LRU tail *)
  mutable used : int;
  s_capacity : int;
}

type t = {
  shards : shard array;
  capacity : int;
  clock : Sim.Clock.t option;
  mutable hits : int;
  mutable misses : int;
  mutable admissions : int;
  mutable evictions : int;
  mutable rejections : int;   (* blocks larger than a whole shard *)
  mutable invalidations : int;
}

(* Hashtbl slot + node + key tuple bookkeeping, approximated. *)
let node_overhead = 64

let default_shards = 8
(* DRAM read cost of a hit: a fixed access plus a per-byte copy. *)
let dram_access_ns = 100.0
let dram_byte_ns = 0.05

let make_shard s_capacity =
  let rec sentinel =
    { n_file = -1; n_block = -1; n_data = ""; n_charge = 0; prev = sentinel; next = sentinel }
  in
  { tbl = Hashtbl.create 64; sentinel; used = 0; s_capacity }

let create ?(shards = default_shards) ?clock ~capacity_bytes () =
  if capacity_bytes <= 0 then invalid_arg "Block_cache.create: capacity must be positive";
  let shards = max 1 shards in
  let per_shard = max 1 (capacity_bytes / shards) in
  {
    shards = Array.init shards (fun _ -> make_shard per_shard);
    capacity = per_shard * shards;
    clock;
    hits = 0;
    misses = 0;
    admissions = 0;
    evictions = 0;
    rejections = 0;
    invalidations = 0;
  }

let capacity_bytes t = t.capacity
let resident_bytes t = Array.fold_left (fun acc s -> acc + s.used) 0 t.shards
let resident_blocks t = Array.fold_left (fun acc s -> acc + Hashtbl.length s.tbl) 0 t.shards

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let rejections t = t.rejections
let invalidations t = t.invalidations

let hit_ratio t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total

(* Hash the key well enough that consecutive blocks of one file spread
   across shards (a hot file must not serialise on one LRU list). *)
let shard_of t ~file_id ~block =
  let h = Hashtbl.hash (file_id, block) in
  t.shards.(h mod Array.length t.shards)

let unlink n =
  n.prev.next <- n.next;
  n.next.prev <- n.prev;
  n.prev <- n;
  n.next <- n

let push_front s n =
  n.next <- s.sentinel.next;
  n.prev <- s.sentinel;
  s.sentinel.next.prev <- n;
  s.sentinel.next <- n

let remove_node s n =
  unlink n;
  Hashtbl.remove s.tbl (n.n_file, n.n_block);
  s.used <- s.used - n.n_charge

let charge_of data = String.length data + node_overhead

let find t ~file_id ~block =
  let s = shard_of t ~file_id ~block in
  match Hashtbl.find_opt s.tbl (file_id, block) with
  | Some n ->
      t.hits <- t.hits + 1;
      unlink n;
      push_front s n;
      (match t.clock with
      | Some clock ->
          let dt =
            dram_access_ns +. (float_of_int (String.length n.n_data) *. dram_byte_ns)
          in
          Sim.Clock.advance clock dt;
          Obs.Attr.charge Obs.Attr.Cache_hit dt
      | None -> ());
      Some n.n_data
  | None ->
      t.misses <- t.misses + 1;
      Obs.Attr.charge Obs.Attr.Cache_miss 0.0;
      None

let insert t ~file_id ~block data =
  let s = shard_of t ~file_id ~block in
  let charge = charge_of data in
  if charge > s.s_capacity then t.rejections <- t.rejections + 1
  else begin
    (match Hashtbl.find_opt s.tbl (file_id, block) with
    | Some old -> remove_node s old
    | None -> ());
    (* Evict before admitting: the bound holds at every instant. *)
    while s.used + charge > s.s_capacity && s.sentinel.prev != s.sentinel do
      remove_node s s.sentinel.prev;
      t.evictions <- t.evictions + 1
    done;
    let rec n =
      { n_file = file_id; n_block = block; n_data = data; n_charge = charge; prev = n; next = n }
    in
    push_front s n;
    Hashtbl.replace s.tbl (file_id, block) n;
    s.used <- s.used + charge;
    t.admissions <- t.admissions + 1
  end

let mem t ~file_id ~block =
  let s = shard_of t ~file_id ~block in
  Hashtbl.mem s.tbl (file_id, block)

(* Bytes resident for one file — O(resident blocks); used by invalidation
   tests and forensics, never on the per-get path. *)
let file_resident_bytes t ~file_id =
  Array.fold_left
    (fun acc s ->
      Hashtbl.fold
        (fun (f, _) n acc -> if f = file_id then acc + n.n_charge else acc)
        s.tbl acc)
    0 t.shards

(* Drop every block of [file_id]: called when a table is deleted,
   quarantined or salvage-rewritten, so stale bytes can never be served
   for a structure that left the read path. O(resident blocks), and those
   events are rare. *)
let invalidate_file t ~file_id =
  Array.iter
    (fun s ->
      let victims =
        Hashtbl.fold (fun (f, _) n acc -> if f = file_id then n :: acc else acc) s.tbl []
      in
      List.iter
        (fun n ->
          remove_node s n;
          t.invalidations <- t.invalidations + 1)
        victims)
    t.shards

let register_metrics reg t =
  let open Obs.Registry in
  let name n = "cache." ^ n in
  register_int reg (name "hits") ~help:"block reads served from DRAM" (fun () -> t.hits);
  register_int reg (name "misses") ~help:"block reads that went to the device" (fun () ->
      t.misses);
  register_int reg (name "admissions") ~help:"blocks admitted after a miss" (fun () ->
      t.admissions);
  register_int reg (name "evictions") ~help:"blocks evicted to honour the capacity bound"
    (fun () -> t.evictions);
  register_int reg (name "rejections") ~help:"blocks larger than a whole shard, never admitted"
    (fun () -> t.rejections);
  register_int reg (name "invalidations")
    ~help:"blocks dropped because their table was deleted/quarantined/salvaged" (fun () ->
      t.invalidations);
  register_int reg (name "resident_bytes") ~kind:Gauge ~help:"bytes currently cached"
    (fun () -> resident_bytes t);
  register_int reg (name "resident_blocks") ~kind:Gauge ~help:"blocks currently cached"
    (fun () -> resident_blocks t);
  register_int reg (name "capacity_bytes") ~kind:Gauge ~help:"configured cache capacity"
    (fun () -> t.capacity);
  register_float reg (name "hit_ratio") ~help:"fraction of block reads served from DRAM"
    (fun () -> hit_ratio t)
