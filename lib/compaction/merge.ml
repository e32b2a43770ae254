(* K-way merge of sorted entry runs with version shadowing.

   Inputs are sources (cursors, or lists through [of_list]) sorted by
   Kv.compare_entry (key asc, seq desc); runs are merged
   newest-version-first, older versions of a key are dropped, and
   tombstones are dropped only when [drop_tombstones] says the output lands
   at the bottom of the tree. Merge CPU is charged to the virtual clock per
   entry and per byte, matching the S2 model of the scheduling
   experiments. *)

type stats = {
  input_entries : int;
  output_entries : int;
  dropped_versions : int;    (* shadowed versions removed *)
  dropped_tombstones : int;
}

let cpu_per_entry_ns = 150.0
let cpu_per_byte_ns = 1.0

type source = unit -> Util.Kv.entry option

let of_list entries =
  let rest = ref entries in
  fun () ->
    match !rest with
    | [] -> None
    | e :: tl ->
        rest := tl;
        Some e

(* Binary min-heap of run ids keyed by each run's head entry. The run id
   breaks ties so the merge is stable; inputs must already place newer
   versions first within a run. *)
module Heap = struct
  type t = { heads : Util.Kv.entry array; ids : int array; mutable size : int }

  let create heads = { heads; ids = Array.make (Array.length heads) 0; size = 0 }

  let less h a b =
    let c = Util.Kv.compare_entry h.heads.(a) h.heads.(b) in
    c < 0 || (c = 0 && a < b)

  let swap h i j =
    let tmp = h.ids.(i) in
    h.ids.(i) <- h.ids.(j);
    h.ids.(j) <- tmp

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less h h.ids.(i) h.ids.(parent) then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = if l < h.size && less h h.ids.(l) h.ids.(i) then l else i in
    let smallest = if r < h.size && less h h.ids.(r) h.ids.(smallest) then r else smallest in
    if smallest <> i then begin
      swap h i smallest;
      sift_down h smallest
    end

  let push h run =
    h.ids.(h.size) <- run;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)

  (* The top run's head changed (or, with [exhausted], the run ran dry). *)
  let reseat_top h ~exhausted =
    if exhausted then begin
      h.size <- h.size - 1;
      h.ids.(0) <- h.ids.(h.size)
    end;
    sift_down h 0
end

let merge_stream ?(drop_tombstones = false) ~clock sources emit =
  let t0 = Sim.Clock.now clock in
  let sources = Array.of_list sources in
  let dummy = Util.Kv.tombstone ~key:"" ~seq:0 in
  let heap = Heap.create (Array.make (Array.length sources) dummy) in
  Array.iteri
    (fun run src ->
      match src () with
      | Some e ->
          heap.Heap.heads.(run) <- e;
          Heap.push heap run
      | None -> ())
    sources;
  let input_entries = ref 0 in
  let output_entries = ref 0 in
  let dropped_versions = ref 0 in
  let dropped_tombstones = ref 0 in
  let bytes = ref 0 in
  let last_key = ref None in
  while heap.Heap.size > 0 do
    let run = heap.Heap.ids.(0) in
    let e = heap.Heap.heads.(run) in
    incr input_entries;
    bytes := !bytes + Util.Kv.encoded_size e;
    (match sources.(run) () with
    | Some next ->
        heap.Heap.heads.(run) <- next;
        Heap.reseat_top heap ~exhausted:false
    | None -> Heap.reseat_top heap ~exhausted:true);
    match !last_key with
    | Some k when k = e.Util.Kv.key -> incr dropped_versions
    | _ ->
        last_key := Some e.key;
        if drop_tombstones && e.kind = Util.Kv.Delete then incr dropped_tombstones
        else begin
          incr output_entries;
          emit e
        end
  done;
  Sim.Clock.advance clock
    ((float_of_int !input_entries *. cpu_per_entry_ns)
    +. (float_of_int !bytes *. cpu_per_byte_ns));
  let stats =
    {
      input_entries = !input_entries;
      output_entries = !output_entries;
      dropped_versions = !dropped_versions;
      dropped_tombstones = !dropped_tombstones;
    }
  in
  if Obs.Trace.is_enabled () then
    Obs.Trace.complete "compaction.merge" ~ts:t0 ~dur:(Sim.Clock.now clock -. t0)
      ~attrs:(fun () ->
        [
          ("runs", Obs.Trace.Int (Array.length sources));
          ("input_entries", Obs.Trace.Int stats.input_entries);
          ("output_entries", Obs.Trace.Int stats.output_entries);
          ("dropped_versions", Obs.Trace.Int stats.dropped_versions);
          ("dropped_tombstones", Obs.Trace.Int stats.dropped_tombstones);
        ]);
  stats

let merge ?drop_tombstones ~clock runs =
  let out = ref [] in
  let stats =
    merge_stream ?drop_tombstones ~clock (List.map of_list runs) (fun e -> out := e :: !out)
  in
  (List.rev !out, stats)

(* Slice boundaries of a sorted run: a slice holds at most [target_bytes]
   (or one entry), and never splits the versions of one key. *)
type cutter = {
  target_bytes : int;
  mutable slice_bytes : int;
  mutable last_key : string option;
}

let cutter ~target_bytes = { target_bytes; slice_bytes = 0; last_key = None }

let starts_slice c (e : Util.Kv.entry) =
  let size = Util.Kv.encoded_size e in
  let fresh =
    match c.last_key with
    | None -> true
    | Some k -> c.slice_bytes + size > c.target_bytes && k <> e.key
  in
  c.slice_bytes <- (if fresh then size else c.slice_bytes + size);
  c.last_key <- Some e.key;
  fresh

let split_run ~target_bytes entries =
  let c = cutter ~target_bytes in
  let slices = ref [] and current = ref [] in
  List.iter
    (fun e ->
      if starts_slice c e && !current <> [] then begin
        slices := List.rev !current :: !slices;
        current := []
      end;
      current := e :: !current)
    entries;
  List.rev (if !current = [] then !slices else List.rev !current :: !slices)
