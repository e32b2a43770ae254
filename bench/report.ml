(* Table rendering for the benchmark harness: every experiment prints the
   rows of its paper artefact plus a short "paper vs measured" shape
   note. *)

(* Optional machine-readable mirror of everything printed: when a JSON path
   is set (bench/main.exe --json FILE), headings, notes and tables are also
   recorded and dumped as one JSON document at exit. *)
type recorded_table = {
  title : string;
  header : string list;
  rows : string list list;
  mutable notes : string list;  (* reversed; notes follow their table *)
}

(* Bump when the JSON document shape changes; the perf gate refuses to
   compare documents of different schema versions. *)
let schema_version = 2

let json_path : string option ref = ref None
let current_heading = ref ""
let recorded : recorded_table list ref = ref []
let configs : (string * string) list ref = ref []
let metrics : (string * float) list ref = ref []

let set_json_path path = json_path := Some path

let record_table ~header rows =
  if !json_path <> None then
    recorded := { title = !current_heading; header; rows; notes = [] } :: !recorded

let record_note s =
  match !recorded with
  | t :: _ when !json_path <> None -> t.notes <- s :: t.notes
  | _ -> ()

(* Stamp the engine configuration an experiment ran under. The JSON
   document carries the name -> fingerprint map so a comparison tool can
   tell config drift apart from a genuine perf change. *)
let note_config (cfg : Core.Config.t) =
  let entry = (cfg.Core.Config.name, Core.Config.fingerprint cfg) in
  if not (List.mem entry !configs) then configs := entry :: !configs

(* A scalar metric for the perf gate: one named number per line of the
   "metrics" JSON object. Last write wins so an experiment can refine. *)
let record_metric name v =
  metrics := (name, v) :: List.remove_assoc name !metrics

(* A floor the experiment asserts on a quantity it computed: printed either
   way, and a failed one makes bench/main.exe exit 1 once the JSON is
   written. *)
let failed_floors : string list ref = ref []

let require what ok =
  if not ok then failed_floors := what :: !failed_floors;
  Printf.printf "  floor %s: %s\n" (if ok then "ok" else "FAILED") what

let write_json () =
  match !json_path with
  | None -> ()
  | Some path ->
      let open Obs.Json in
      let strings l = List (List.map (fun s -> String s) l) in
      let tables =
        List.rev_map
          (fun t ->
            Obj
              [
                ("title", String t.title);
                ("header", strings t.header);
                ("rows", List (List.map strings t.rows));
                ("notes", strings (List.rev t.notes));
              ])
          !recorded
      in
      let config_fields =
        List.rev_map (fun (name, fp) -> (name, String fp)) !configs
      in
      let metric_fields =
        List.rev_map (fun (name, v) -> (name, Float v)) !metrics
      in
      let oc = open_out path in
      output_string oc
        (to_string
           (Obj
              [
                ("schema_version", Int schema_version);
                ("configs", Obj config_fields);
                ("metrics", Obj metric_fields);
                ("tables", List tables);
              ]));
      output_char oc '\n';
      close_out oc;
      Printf.printf "\nbenchmark tables written to %s\n" path

let heading title =
  current_heading := title;
  let line = String.make (String.length title + 4) '=' in
  Printf.printf "\n%s\n= %s =\n%s\n" line title line

let note fmt =
  Printf.ksprintf
    (fun s ->
      record_note s;
      Printf.printf "  %s\n" s)
    fmt

(* Print a table given a header and string rows; column widths auto-fit. *)
let table ~header rows =
  record_table ~header rows;
  let all = header :: rows in
  let cols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init cols width in
  let print_row row =
    List.iteri
      (fun c cell -> Printf.printf "%-*s  " (List.nth widths c) cell)
      row;
    print_newline ()
  in
  print_row header;
  List.iteri
    (fun c _ -> Printf.printf "%s  " (String.make (List.nth widths c) '-'))
    header;
  print_newline ();
  List.iter print_row rows

let us ns = Printf.sprintf "%.1f us" (ns /. 1e3)
let ms ns = Printf.sprintf "%.2f ms" (ns /. 1e6)
let s ns = Printf.sprintf "%.3f s" (ns /. 1e9)
let pct x = Printf.sprintf "%.1f%%" (x *. 100.0)
let mb bytes = Printf.sprintf "%.1f MB" (float_of_int bytes /. 1048576.0)
let ratio x = Printf.sprintf "%.2fx" x

let duration ns =
  if ns < 1e3 then Printf.sprintf "%.0f ns" ns
  else if ns < 1e6 then us ns
  else if ns < 1e9 then ms ns
  else s ns
