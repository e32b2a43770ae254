(* Forward iterator over the live keyspace of an engine.

   A cursor fetches windows of merged, tombstone-resolved pairs through
   Engine.scan and serves them one at a time; when a window drains it
   refetches from the successor of the last delivered key. A window
   shorter than asked means the keyspace is exhausted. Each window is an
   ordinary engine scan, charged and accounted like any other.

   No snapshot is taken: a window reflects the engine at the moment it was
   fetched, so writes racing the iteration may or may not appear — the
   usual contract of an unpinned LSM cursor. *)

type t = {
  engine : Engine.t;
  window : int;
  mutable buffer : (string * string) list;
  mutable resume : string option;  (* next window's start; None = exhausted *)
}

let refill t =
  match t.resume with
  | None -> ()
  | Some start ->
      let pairs = Engine.scan t.engine ~start ~limit:t.window in
      t.buffer <- pairs;
      t.resume <-
        (if List.length pairs < t.window then None
         else Some (fst (List.nth pairs (t.window - 1)) ^ "\x00"))

let seek ?(window = 64) engine start =
  if window <= 0 then invalid_arg "Iterator.seek: window must be positive";
  let t = { engine; window; buffer = []; resume = Some start } in
  refill t;
  t

let valid t = t.buffer <> []

let head t fn =
  match t.buffer with
  | pair :: _ -> pair
  | [] -> invalid_arg ("Iterator." ^ fn ^ ": iterator exhausted")

let key t = fst (head t "key")
let value t = snd (head t "value")

let next t =
  match t.buffer with
  | [] -> invalid_arg "Iterator.next: iterator exhausted"
  | _ :: rest ->
      t.buffer <- rest;
      if rest = [] then refill t

let fold ?window engine ~start ~init f =
  let it = seek ?window engine start in
  let acc = ref init in
  while valid it do
    acc := f !acc (key it) (value it);
    next it
  done;
  !acc

let take it n =
  let rec loop acc n =
    if n = 0 || not (valid it) then List.rev acc
    else begin
      let pair = (key it, value it) in
      next it;
      loop (pair :: acc) (n - 1)
    end
  in
  loop [] n
