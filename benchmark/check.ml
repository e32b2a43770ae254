(* Output checks. A single client is checked against a sequential shadow
   map: every get and scan must return exactly what the shadow holds.
   Concurrent clients are checked as a per-key register: a get may return
   only a value written to that key and not superseded before the get
   began, and at the end each key must hold the value of a put that no
   other put to the key was invoked after the first put's ack. *)

module SMap = Map.Make (String)

type shadow = {
  mutable map : string SMap.t;
  unknown : (string, unit) Hashtbl.t;
      (* keys whose last write failed ambiguously: the store may hold
         either value, so they are no longer checked *)
}

type write = { inv : int; mutable ack : int }

type reg = {
  writes : (Digest.t, write) Hashtbl.t;
  mutable max_acked_inv : int;  (* latest invocation among acked writes *)
}

type register = { keys : (string, reg) Hashtbl.t; mutable seq : int }

type model = Shadow of shadow | Register of register

type t = { model : model; mutable violations : string list; mutable count : int }

let shadow () =
  { model = Shadow { map = SMap.empty; unknown = Hashtbl.create 16 }; violations = []; count = 0 }

let register () =
  { model = Register { keys = Hashtbl.create 4096; seq = 0 }; violations = []; count = 0 }

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      t.count <- t.count + 1;
      if t.count <= 20 then t.violations <- msg :: t.violations)
    fmt

let violations t = (t.count, List.rev t.violations)

let tick r =
  r.seq <- r.seq + 1;
  r.seq

let reg_of r key =
  match Hashtbl.find_opt r.keys key with
  | Some g -> g
  | None ->
      let g = { writes = Hashtbl.create 4; max_acked_inv = -1 } in
      Hashtbl.replace r.keys key g;
      g

(* --- Writes -------------------------------------------------------------- *)

type put_token = No_token | Pending of reg * Digest.t * write

let put_invoke t ~key value =
  match t.model with
  | Shadow _ -> No_token
  | Register r ->
      let g = reg_of r key in
      let d = Digest.string value and w = { inv = tick r; ack = max_int } in
      Hashtbl.replace g.writes d w;
      Pending (g, d, w)

(* [outcome] is the store's answer: [Ok ()], or [Error reason] where a
   reason starting with "shed" means the store provably did not apply it. *)
let put_done t token ~key value outcome =
  let shed =
    match outcome with Error why -> String.starts_with ~prefix:"shed" why | Ok () -> false
  in
  match (t.model, token) with
  | Shadow s, _ -> (
      match outcome with
      | Ok () -> if not (Hashtbl.mem s.unknown key) then s.map <- SMap.add key value s.map
      | Error _ when shed -> ()
      | Error _ ->
          s.map <- SMap.remove key s.map;
          Hashtbl.replace s.unknown key ())
  | Register r, Pending (g, d, w) -> (
      match outcome with
      | Ok () ->
          w.ack <- tick r;
          g.max_acked_inv <- max g.max_acked_inv w.inv
      | Error _ when shed -> Hashtbl.remove g.writes d
      | Error _ -> () (* ambiguous: stays concurrent with everything after it *))
  | Register _, No_token -> ()

(* --- Reads --------------------------------------------------------------- *)

type get_token = G_none | G_reg of reg option * int

let get_invoke t key =
  match t.model with
  | Shadow _ -> G_none
  | Register r ->
      ignore (tick r);
      let g = Hashtbl.find_opt r.keys key in
      G_reg (g, match g with Some g -> g.max_acked_inv | None -> -1)

let get_done t token key result =
  match (t.model, token) with
  | Shadow s, _ ->
      if not (Hashtbl.mem s.unknown key) then begin
        let want = SMap.find_opt key s.map in
        let show = function
          | Some v -> Printf.sprintf "%d bytes" (String.length v)
          | None -> "none"
        in
        if want <> result then
          fail t "get %S returned %s, expected %s" key (show result) (show want)
      end
  | Register _, G_reg (g, acked_before) -> (
      match (result, g) with
      | None, _ -> if acked_before >= 0 then fail t "get %S missed an acked write" key
      | Some _, None -> fail t "get %S returned a value never written" key
      | Some v, Some g -> (
          match Hashtbl.find_opt g.writes (Digest.string v) with
          | None -> fail t "get %S returned a value never written to it" key
          | Some w ->
              if acked_before > w.ack then
                fail t "get %S returned a value superseded before the get began" key))
  | Register _, G_none -> ()

(* Scans are checked only against the sequential shadow (the concurrent
   workload issues none), and only while no key is ambiguous. *)
let scan_done t ~start ~limit result =
  match t.model with
  | Shadow s when Hashtbl.length s.unknown = 0 ->
      let want = SMap.to_seq_from start s.map |> Seq.take limit |> List.of_seq in
      if want <> result then
        fail t "scan from %S limit %d returned %d pairs, expected %d" start limit
          (List.length result) (List.length want)
  | _ -> ()

let scan_range_done t ~start ~stop result =
  match t.model with
  | Shadow s when Hashtbl.length s.unknown = 0 ->
      let want =
        SMap.to_seq_from start s.map
        |> Seq.take_while (fun (k, _) -> String.compare k stop < 0)
        |> List.of_seq
      in
      if want <> result then
        fail t "scan [%S, %S) returned %d pairs, expected %d" start stop (List.length result)
          (List.length want)
  | _ -> ()

(* --- Final state --------------------------------------------------------- *)

(* [contents] is the store's full key-ordered contents. [label] names the
   moment (end of run, after recovery) in violation messages. *)
let final t ~label contents =
  match t.model with
  | Shadow s ->
      let got = List.filter (fun (k, _) -> not (Hashtbl.mem s.unknown k)) contents in
      let want = SMap.bindings s.map in
      if got <> want then begin
        let rec first_diff = function
          | (k, v) :: a, (k', v') :: b when k = k' && v = v' -> first_diff (a, b)
          | (k, _) :: _, _ | [], (k, _) :: _ -> k
          | [], [] -> "?"
        in
        fail t "%s: store holds %d keys, shadow %d; first difference at %S" label
          (List.length got) (List.length want) (first_diff (got, want))
      end
  | Register r ->
      let seen = Hashtbl.create (Hashtbl.length r.keys) in
      List.iter
        (fun (key, v) ->
          Hashtbl.replace seen key ();
          match Hashtbl.find_opt r.keys key with
          | None -> fail t "%s: key %S was never written" label key
          | Some g -> (
              let d = Digest.string v in
              match Hashtbl.find_opt g.writes d with
              | None -> fail t "%s: key %S holds a value never written to it" label key
              | Some w ->
                  let later =
                    Hashtbl.fold
                      (fun d' w' acc -> if d' <> d && w'.inv > w.ack then true else acc)
                      g.writes false
                  in
                  if later then
                    fail t "%s: key %S holds a value overwritten by a later put" label key))
        contents;
      Hashtbl.iter
        (fun key g ->
          if g.max_acked_inv >= 0 && not (Hashtbl.mem seen key) then
            fail t "%s: key %S lost every acked write" label key)
        r.keys
