(* [agree]: compare two sets of result files. A result file is the standard
   output of one run; its "workload metric value unit" lines are read and
   everything else is ignored. For every workload and metric the two sets'
   medians and quartiles are printed, and for each end-to-end metric
   whether the medians agree within its bound from BENCHMARK.json. *)

(* Quartiles as Python's [statistics.quantiles(values, n=4)] computes them
   (the "exclusive" method), so the numbers match other tools. *)
let quartiles values =
  let d = Samples.of_list values in
  let n = Float.Array.length d in
  if n = 1 then
    let x = Float.Array.get d 0 in
    (x, x, x)
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((Float.Array.get d (j - 1) *. float_of_int (4 - delta))
      +. (Float.Array.get d j *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let read_results files =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun file ->
      In_channel.with_open_text file In_channel.input_lines
      |> List.iter (fun line ->
             match String.split_on_char ' ' line with
             | [ w; m; v; u ] -> (
                 match float_of_string_opt v with
                 | Some x ->
                     let prev = Option.value ~default:("", []) (Hashtbl.find_opt tbl (w, m)) in
                     Hashtbl.replace tbl (w, m) (u, x :: snd prev)
                 | None -> ())
             | _ -> ()))
    files;
  tbl

let files_of dir =
  Sys.readdir dir |> Array.to_list |> List.sort String.compare
  |> List.map (Filename.concat dir)
  |> List.filter (fun f -> not (Sys.is_directory f))

(* Prints the comparison; returns false when an end-to-end metric's
   medians disagree or is missing from one set. *)
let run (spec : Spec.t) dir_a dir_b =
  let a = read_results (files_of dir_a) and b = read_results (files_of dir_b) in
  let keys =
    Hashtbl.fold (fun k _ acc -> k :: acc) a (Hashtbl.fold (fun k _ acc -> k :: acc) b [])
    |> List.sort_uniq compare
  in
  let ok = ref true in
  Printf.printf "%-18s %-36s %-6s %28s %28s %9s %6s  %s\n" "workload" "metric" "unit"
    "A median [q1, q3] n" "B median [q1, q3] n" "B/A-1" "bound" "verdict";
  let show = function
    | Some (_, vs) ->
        let q1, med, q3 = quartiles vs in
        (Some med, Printf.sprintf "%.6g [%.6g, %.6g] %d" med q1 q3 (List.length vs))
    | None -> (None, "-")
  in
  List.iter
    (fun ((w, m) as key) ->
      let ra = Hashtbl.find_opt a key and rb = Hashtbl.find_opt b key in
      let unit_ = match (ra, rb) with Some (u, _), _ | None, Some (u, _) -> u | None, None -> "" in
      let ma, sa = show ra and mb, sb = show rb in
      let bound =
        match Spec.find spec m with Some { Spec.bound = Some x; _ } -> Some x | _ -> None
      in
      let rel =
        match (ma, mb) with
        | Some x, Some y when x <> 0.0 -> Some ((y /. x) -. 1.0)
        | Some x, Some y when x = y -> Some 0.0
        | _ -> None
      in
      let verdict =
        match (bound, rel) with
        | None, _ -> "-"
        | Some bd, Some r when Float.abs r <= bd -> "agree"
        | Some _, _ ->
            ok := false;
            "DISAGREE"
      in
      Printf.printf "%-18s %-36s %-6s %28s %28s %9s %6s  %s\n" w m unit_ sa sb
        (match rel with Some r -> Printf.sprintf "%+.4f" r | None -> "-")
        (match bound with Some x -> Printf.sprintf "%.3g" x | None -> "-")
        verdict)
    keys;
  !ok
