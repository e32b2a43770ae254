(* Per-shard group commit: coalesce concurrent writers' WAL syncs into one
   PM ring write and one fence (flush+fence batching).

   An engine's put only stages its record into the WAL's DRAM group buffer;
   the durability point, the one call of [Engine.sync_wal], is here. Two
   modes:

   - [Sync]: no scheduler attached (sequential benches, crash sweeps).
     Every commit syncs immediately — a batch of one — so the ack still
     implies durability and the golden model's single-pending-op story is
     unchanged.

   - [Batch]: clients are coroutines under one scheduler. The first writer
     to commit becomes the batch *leader*: it opens a batch and yields
     until either [group_commit_max] writers have joined or the
     [group_commit_window] closes. *Followers* increment the batch and
     park on its latch. The leader then closes the batch, performs the one
     [Engine.sync_wal] covering every staged record, and signals the
     latch; every member's put returns only after that sync, so a crash
     before it loses the whole batch (the staged records were DRAM-only)
     and a crash after it loses nothing — never a partial batch.

   Cooperative tasks only interleave at effect points, but the
   leader/follower handoff still mutates [cur]/[size] across yields; the
   sanitizer can't see that the interleavings are safe unless we tell it,
   so every critical section is bracketed by a named schedsan mutex and
   each access annotated. [plant_race] (the kill-switch test) skips the
   mutex while keeping the annotations: schedsan must then report the
   write-write race — proving the sweep has teeth. *)

type mode = Sync | Batch

type batch = { mutable size : int; latch : Coroutine.Co.latch }

type t = {
  gc_name : string;  (* "shard3.gc": sanitizer var and latch label *)
  window_ns : float;
  max_batch : int;
  mutable mode : mode;
  mutable san : Sanitize.Schedsan.t option;
  mutable cur : batch option;
  mutable batches : int;
  mutable synced_entries : int;
  size_hist : Util.Histogram.t;
}

(* Planted-race kill switch (tests only): skip the schedsan mutex while
   keeping the shared-state annotations. *)
let plant_race = ref false

let create ~name ~window_ns ~max_batch =
  {
    gc_name = name ^ ".gc";
    window_ns;
    max_batch = max 1 max_batch;
    mode = Sync;
    san = None;
    cur = None;
    batches = 0;
    synced_entries = 0;
    size_hist = Util.Histogram.create ();
  }

let set_mode t mode ~san =
  t.mode <- mode;
  t.san <- san

let lock t =
  if not !plant_race then
    match t.san with Some s -> Sanitize.Schedsan.lock s t.gc_name | None -> ()

let unlock t =
  if not !plant_race then
    match t.san with Some s -> Sanitize.Schedsan.unlock s t.gc_name | None -> ()

let note_write t =
  match t.san with Some s -> Sanitize.Schedsan.write s t.gc_name | None -> ()

let note_read t =
  match t.san with Some s -> Sanitize.Schedsan.read s t.gc_name | None -> ()

let record t ~size =
  t.batches <- t.batches + 1;
  t.synced_entries <- t.synced_entries + size;
  Util.Histogram.record t.size_hist (float_of_int size)

let sync_now t engine ~size =
  Core.Engine.sync_wal engine;
  record t ~size

(* The calling writer has just staged its WAL record; return once that
   record is durable. *)
let commit t engine =
  match t.mode with
  | Sync -> sync_now t engine ~size:1
  | Batch -> (
      lock t;
      note_write t;
      match t.cur with
      | Some b ->
          (* Follower: join the open batch; the joining write that fills it
             closes it so late arrivals start a fresh one. *)
          b.size <- b.size + 1;
          if b.size >= t.max_batch then t.cur <- None;
          unlock t;
          Obs.Attr.with_phase Obs.Attr.Group_commit_wait (fun () ->
              Coroutine.Co.await b.latch)
      | None ->
          (* Leader: open a batch and hold it for the window. *)
          let b = { size = 1; latch = Coroutine.Co.latch ~name:t.gc_name () } in
          t.cur <- Some b;
          unlock t;
          let opened = Coroutine.Co.now () in
          let rec hold () =
            lock t;
            note_read t;
            let size = b.size in
            let still_open = match t.cur with Some b' -> b' == b | None -> false in
            unlock t;
            if
              still_open && size < t.max_batch
              && Coroutine.Co.now () -. opened < t.window_ns
            then begin
              let t0 = Coroutine.Co.now () in
              Coroutine.Co.yield ();
              (* A yield that moved neither the clock nor the batch means no
                 other runnable client exists; holding longer is pointless
                 (and would spin forever on an otherwise idle scheduler). *)
              if Coroutine.Co.now () > t0 || b.size > size then hold ()
            end
          in
          Obs.Attr.with_phase Obs.Attr.Group_commit_wait hold;
          lock t;
          note_write t;
          (match t.cur with Some b' when b' == b -> t.cur <- None | _ -> ());
          let size = b.size in
          unlock t;
          sync_now t engine ~size;
          Coroutine.Co.signal b.latch)

let batches t = t.batches
let synced_entries t = t.synced_entries
let size_hist t = t.size_hist
