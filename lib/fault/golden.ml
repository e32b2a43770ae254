(* The golden model: the history of operations the engine acknowledged,
   kept in plain DRAM where no fault can touch it. An op is recorded as
   pending before it is handed to the engine and acknowledged once the
   engine's call returns; a crash mid-call leaves it pending, and the
   checker then accepts either its before- or after-state (single-key
   atomicity) while holding every acknowledged op to full durability. *)

type op = { key : string; value : string option }

type t = {
  acked : (string, string option) Hashtbl.t;
      (* key -> Some value (live) | None (deleted) *)
  mutable pending : op option;
}

let create () = { acked = Hashtbl.create 256; pending = None }

let begin_put t ~key value =
  assert (t.pending = None);
  t.pending <- Some { key; value = Some value }

let begin_delete t key =
  assert (t.pending = None);
  t.pending <- Some { key; value = None }

let ack t =
  match t.pending with
  | None -> invalid_arg "Golden.ack: no pending op"
  | Some { key; value } ->
      Hashtbl.replace t.acked key value;
      t.pending <- None

(* A shed write never touched the engine: drop the pending op without
   acknowledging it, restoring the model to its pre-op state. *)
let abort t =
  match t.pending with
  | None -> invalid_arg "Golden.abort: no pending op"
  | Some _ -> t.pending <- None

let pending t = t.pending

let acked t key = Hashtbl.find_opt t.acked key

let entries t =
  Hashtbl.fold (fun key value acc -> (key, value) :: acc) t.acked []
  |> List.sort compare
