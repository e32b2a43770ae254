(* The benchmark's definition, read from BENCHMARK.json: which metrics a
   run reports in its result line, and by how much an end-to-end metric
   may worsen before a change counts as a regression. *)

type metric = { name : string; unit_ : string; bound : float option }
type t = { workloads : (string * string) list;  (** name, why *)
  end_to_end : metric list; per_layer : metric list }

let fail fmt = Printf.ksprintf failwith fmt

let field name j =
  match Obs.Json.member name j with Some v -> v | None -> fail "BENCHMARK.json: missing %S" name

let str name j =
  match Obs.Json.to_string_opt (field name j) with
  | Some s -> s
  | None -> fail "BENCHMARK.json: %S is not a string" name

let list name j =
  match field name j with Obs.Json.List l -> l | _ -> fail "BENCHMARK.json: %S is not a list" name

let metric j =
  {
    name = str "name" j;
    unit_ = str "unit" j;
    bound = Option.bind (Obs.Json.member "bound" j) Obs.Json.to_float_opt;
  }

let load path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let j = Obs.Json.parse text in
  {
    workloads = List.map (fun w -> (str "name" w, str "why" w)) (list "workloads" j);
    end_to_end = List.map metric (list "end_to_end" j);
    per_layer = List.map metric (list "per_layer" j);
  }

let find t name = List.find_opt (fun m -> m.name = name) (t.end_to_end @ t.per_layer)
