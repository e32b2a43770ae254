(* In-memory spans of the traced run: one per set-up phase, per measured
   step and per router call, each with its parent, its step id, and start
   and end on both clocks. Nothing is written until {!write_chrome} at
   exit. Self time of a span is its duration minus the time its direct
   children cover. *)

type span = {
  id : int;
  parent : int;  (* -1 for a root *)
  op : int;  (* step id; -1 outside steps *)
  name : string;
  h0 : float;  (* host ns *)
  v0 : float;  (* virtual ns *)
  mutable h1 : float;
  mutable v1 : float;
}

type t = { clock : Sim.Clock.t; mutable spans : span list; mutable next : int }

let create clock = { clock; spans = []; next = 0 }

let host_ns () = Int64.to_float (Monotonic_clock.now ())

let open_ t ?(parent = -1) ?(op = -1) name =
  let s =
    {
      id = t.next;
      parent;
      op;
      name;
      h0 = host_ns ();
      v0 = Sim.Clock.now t.clock;
      h1 = 0.0;
      v1 = 0.0;
    }
  in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  s

let close t s =
  s.h1 <- host_ns ();
  s.v1 <- Sim.Clock.now t.clock

let with_span t name f =
  let s = open_ t name in
  Fun.protect ~finally:(fun () -> close t s) f

(* Per span name: (host self ns, virtual self ns), summed over its spans. Children
   of one parent never overlap each other (a client waits for each call),
   so summing their durations is exact. *)
let self_times t =
  let child_h = Hashtbl.create 1024 and child_v = Hashtbl.create 1024 in
  let add tbl k x =
    Hashtbl.replace tbl k (x +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        add child_h s.parent (s.h1 -. s.h0);
        add child_v s.parent (s.v1 -. s.v0)
      end)
    t.spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let ch = Option.value ~default:0.0 (Hashtbl.find_opt child_h s.id) in
      let cv = Option.value ~default:0.0 (Hashtbl.find_opt child_v s.id) in
      let h, v = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (h +. (s.h1 -. s.h0 -. ch), v +. (s.v1 -. s.v0 -. cv)))
    t.spans;
  Hashtbl.fold (fun name x acc -> (name, x) :: acc) by_name []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Chrome trace-event JSON: complete events on the host timeline (us from
   the first span), with the virtual interval and ids as arguments. *)
let write_chrome t path =
  let spans = List.rev t.spans in
  let origin = match spans with s :: _ -> s.h0 | [] -> 0.0 in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          Printf.fprintf oc
            "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\
             \"args\":{\"id\":%d,\"parent\":%d,\"op\":%d,\
             \"sim_start_ns\":%.1f,\"sim_end_ns\":%.1f}}"
            s.name
            ((s.h0 -. origin) /. 1e3)
            ((s.h1 -. s.h0) /. 1e3)
            s.id s.parent s.op s.v0 s.v1)
        spans;
      output_string oc "\n]}\n")
