(* Unified handle over the level-0 table structures a configuration can
   select, so the engine and the compaction machinery are agnostic to which
   one it is (PM-Blade uses the compressed three-layer table; the array
   variants use the plain array table). *)

type kind =
  | Pm_compressed   (* three-layer prefix-compressed table (the paper's) *)
  | Array_plain

type t =
  | Pm of Pm_table.t
  | Array of Array_table.t

let kind = function
  | Pm _ -> Pm_compressed
  | Array _ -> Array_plain

let build dev ~kind entries =
  match kind with
  | Pm_compressed -> Pm (Pm_table.build dev entries)
  | Array_plain -> Array (Array_table.build dev entries)

let of_sorted_list dev ~kind entries = build dev ~kind (Array.of_list entries)

let count = function
  | Pm t -> Pm_table.count t
  | Array t -> Array_table.count t

let byte_size = function
  | Pm t -> Pm_table.byte_size t
  | Array t -> Array_table.byte_size t

let payload_bytes = function
  | Pm t -> Pm_table.payload_bytes t
  | Array t -> Array_table.payload_bytes t

let min_key = function
  | Pm t -> Pm_table.min_key t
  | Array t -> Array_table.min_key t

let max_key = function
  | Pm t -> Pm_table.max_key t
  | Array t -> Array_table.max_key t

let free = function
  | Pm t -> Pm_table.free t
  | Array t -> Array_table.free t

let get t key =
  match t with
  | Pm t -> Pm_table.get t key
  | Array t -> Array_table.get t key

let iter t f =
  match t with
  | Pm t -> Pm_table.iter t f
  | Array t -> Array_table.iter t f

let to_list = function
  | Pm t -> Pm_table.to_list t
  | Array t -> Array_table.to_list t

let range t ~start ~stop f =
  match t with
  | Pm t -> Pm_table.range t ~start ~stop f
  | Array t -> Array_table.range t ~start ~stop f

(* Key ranges [min,max] of two tables overlap? Used to decide whether a
   lookup must consult a table and whether runs are disjoint. *)
let overlaps t ~min:lo ~max:hi =
  not (String.compare (max_key t) lo < 0 || String.compare (min_key t) hi > 0)

let region_id = function
  | Pm t -> Pm_table.region_id t
  | Array t -> Array_table.region_id t

(* Recovery path: only the compressed PM table persists a self-describing
   footer (the engine's durable configurations use it). *)
let open_existing dev region = Pm (Pm_table.open_existing dev region)

(* Integrity: only the compressed PM table carries checksums — the array
   table is a non-durable ablation baseline, so a scrub reports it clean
   rather than unverifiable. *)
let verify = function
  | Pm t -> Pm_table.verify t
  | Array _ -> []

let salvage_entries = function
  | Pm t -> Pm_table.salvage_entries t
  | Array t -> (Array_table.to_list t, None)
