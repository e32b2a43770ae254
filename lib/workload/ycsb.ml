(* YCSB core workloads (Cooper et al., SoCC'10), reimplemented for the
   simulated engine. Key choosers and operation mixes follow the standard
   definitions:

     Load  100% insert
     A     50% read / 50% update          zipfian
     B     95% read /  5% update          zipfian
     C     100% read                      zipfian
     D     95% read /  5% insert          latest
     E     95% scan /  5% insert          zipfian, scan length U(1,100)
     F     50% read / 50% read-modify-write   zipfian

   Keys are "user" + zero-padded scrambled rank, values a single field of
   [value_bytes] (the paper loads 1 KB values). *)

type workload = Load | A | B | C | D | E | F

let name = function
  | Load -> "Load"
  | A -> "A"
  | B -> "B"
  | C -> "C"
  | D -> "D"
  | E -> "E"
  | F -> "F"

let of_string = function
  | "load" | "Load" -> Load
  | "a" | "A" -> A
  | "b" | "B" -> B
  | "c" | "C" -> C
  | "d" | "D" -> D
  | "e" | "E" -> E
  | "f" | "F" -> F
  | s -> invalid_arg ("Ycsb.of_string: unknown workload " ^ s)

(* YCSB's standard request skew and workload-E scan length bound. *)
let zipf_theta = 0.99
let max_scan_len = 100

type t = {
  rng : Util.Xoshiro.t;
  mutable record_count : int;  (* keys inserted so far *)
  value_bytes : int;
  (* The zeta precomputation in Zipf.create is O(n); cache the chooser and
     rebuild only once the keyspace has grown by >10%. *)
  mutable zipf_cache : (int * Util.Zipf.t) option;
}

let create ?(seed = 11) ?(value_bytes = 1024) () =
  { rng = Util.Xoshiro.create seed; record_count = 0; value_bytes; zipf_cache = None }

let key_of_rank rank = Util.Keys.ycsb_key rank

let value t = Util.Xoshiro.string t.rng t.value_bytes

let zipf t =
  let n = max 1 t.record_count in
  match t.zipf_cache with
  | Some (cached_n, z) when n <= cached_n * 11 / 10 -> z
  | _ ->
      let z = Util.Zipf.create ~theta:zipf_theta ~n t.rng in
      t.zipf_cache <- Some (n, z);
      z

(* Zipfian over the live keyspace, scrambled so hot keys spread out. *)
let zipf_key t =
  let n = max 1 t.record_count in
  key_of_rank (Util.Zipf.next_scrambled (zipf t) mod n)

(* "Latest": zipfian over recency — rank 0 is the newest insert. *)
let latest_key t =
  let n = max 1 t.record_count in
  let rank = Util.Zipf.next (zipf t) mod n in
  key_of_rank (max 0 (t.record_count - 1 - rank))

let insert_next_sink t (sink : Sink.t) =
  let key = key_of_rank t.record_count in
  t.record_count <- t.record_count + 1;
  sink.put ~update:false ~key (value t)

let load_sink t sink ~records =
  for _ = 1 to records do
    insert_next_sink t sink
  done

(* One operation of the given workload against the store. *)
let step_sink t (sink : Sink.t) workload =
  let p = Util.Xoshiro.float t.rng 1.0 in
  match workload with
  | Load -> insert_next_sink t sink
  | A ->
      if p < 0.5 then ignore (sink.get (zipf_key t))
      else sink.put ~update:true ~key:(zipf_key t) (value t)
  | B ->
      if p < 0.95 then ignore (sink.get (zipf_key t))
      else sink.put ~update:true ~key:(zipf_key t) (value t)
  | C -> ignore (sink.get (zipf_key t))
  | D ->
      if p < 0.95 then ignore (sink.get (latest_key t))
      else insert_next_sink t sink
  | E ->
      if p < 0.95 then
        let len = 1 + Util.Xoshiro.int t.rng max_scan_len in
        ignore (sink.scan ~start:(zipf_key t) ~limit:len)
      else insert_next_sink t sink
  | F ->
      if p < 0.5 then ignore (sink.get (zipf_key t))
      else begin
        let key = zipf_key t in
        ignore (sink.get key);
        sink.put ~update:true ~key (value t)
      end

let run_sink t sink workload ~ops =
  for _ = 1 to ops do
    step_sink t sink workload
  done

let record_count t = t.record_count
