(* Discrete-event scheduler over the virtual clock.

   A binary min-heap of (time, sequence, thunk) events. The sequence number
   makes simultaneous events fire in schedule order, which keeps every run
   deterministic. Drives Coroutine.Scheduler, and through it the §V replays
   of Compaction.Pipeline (Table III, Fig. 9). *)

type event = { at : float; seq : int; run : unit -> unit }

type t = {
  clock : Clock.t;
  mutable heap : event array;
  mutable size : int;
  mutable next_seq : int;
}

let create clock = { clock; heap = Array.make 64 { at = 0.0; seq = 0; run = ignore }; size = 0; next_seq = 0 }

let clock t = t.clock

let before a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

let grow t =
  let bigger = Array.make (Array.length t.heap * 2) t.heap.(0) in
  Array.blit t.heap 0 bigger 0 t.size;
  t.heap <- bigger

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(parent);
      t.heap.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(!smallest);
    t.heap.(!smallest) <- tmp;
    sift_down t !smallest
  end

let schedule_at t at run =
  if at < Clock.now t.clock then invalid_arg "Des.schedule_at: in the past";
  if t.size = Array.length t.heap then grow t;
  t.heap.(t.size) <- { at; seq = t.next_seq; run };
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let schedule_after t delay run = schedule_at t (Clock.now t.clock +. delay) run

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    t.heap.(0) <- t.heap.(t.size);
    sift_down t 0;
    Some top
  end

let pending t = t.size

(* Run events until the queue drains or [until] is reached. Each event may
   schedule further events. *)
let run ?until t =
  let limit = match until with Some u -> u | None -> infinity in
  let continue = ref true in
  while !continue do
    match pop t with
    | None -> continue := false
    | Some ev ->
        if ev.at > limit then begin
          (* Put it back and stop; heap re-insert keeps order. *)
          schedule_at t ev.at ev.run;
          Clock.advance_to t.clock limit;
          continue := false
        end
        else begin
          Clock.advance_to t.clock ev.at;
          ev.run ()
        end
  done
