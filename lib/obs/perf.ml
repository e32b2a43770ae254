(* The perf-regression comparator: a committed bench JSON baseline versus a
   fresh run of the same experiment.

   The simulation is deterministic, so honest same-code reruns reproduce
   the baseline exactly; tolerances exist to absorb intentional small
   drift (an extra metrics sample, a tweaked constant) without churning
   the committed file. Comparison is direction-aware and only the *worse*
   side gates: a latency metric may improve without bound, but a
   beyond-tolerance move in its bad direction fails the gate.

   Two documents are comparable only when their headers agree: same
   [schema_version], and an identical config-name -> fingerprint map
   (Config.fingerprint covers every behaviour-affecting field, so config
   drift is reported as such instead of surfacing as a fake regression). *)

type direction = Lower_is_better | Higher_is_better

type rule = { pattern : string; tol : float; direction : direction }

let rule ?(tol = 0.05) ?(direction = Lower_is_better) pattern =
  { pattern; tol; direction }

(* Exact name, a prefix glob written "prefix*", or a suffix glob written
   "*suffix". *)
let matches name ~pattern =
  let n = String.length name and m = String.length pattern in
  if m > 0 && pattern.[0] = '*' then
    let suffix = String.sub pattern 1 (m - 1) in
    n >= m - 1 && String.equal (String.sub name (n - m + 1) (m - 1)) suffix
  else
    match String.index_opt pattern '*' with
    | None -> String.equal name pattern
    | Some i -> n >= i && String.equal (String.sub name 0 i) (String.sub pattern 0 i)

type status = Ok | Improved | Regressed | Missing

type result = {
  metric : string;
  base : float;
  current : float;
  delta : float;  (* signed fractional change relative to the baseline *)
  tol : float;
  status : status;
}

type report = { header_errors : string list; results : result list }

let passed r =
  r.header_errors = []
  && List.for_all
       (fun res -> match res.status with Ok | Improved -> true | _ -> false)
       r.results

(* --- document access ---------------------------------------------------- *)

let obj_fields doc key =
  match Json.member key doc with Some (Json.Obj fields) -> Some fields | _ -> None

let header_errors baseline current =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  (match (Json.member "schema_version" baseline, Json.member "schema_version" current) with
  | Some (Json.Int a), Some (Json.Int b) when a = b -> ()
  | Some (Json.Int a), Some (Json.Int b) ->
      err "schema_version mismatch: baseline %d vs current %d" a b
  | _ -> err "schema_version missing from one of the documents");
  (match (obj_fields baseline "configs", obj_fields current "configs") with
  | Some base_cfgs, Some cur_cfgs ->
      List.iter
        (fun (name, fp) ->
          match List.assoc_opt name cur_cfgs with
          | None -> err "config %S present in baseline but not in current run" name
          | Some fp' when fp <> fp' ->
              err "config %S fingerprint changed (baseline %s, current %s)" name
                (match fp with Json.String s -> s | _ -> "?")
                (match fp' with Json.String s -> s | _ -> "?")
          | Some _ -> ())
        base_cfgs;
      List.iter
        (fun (name, _) ->
          if not (List.mem_assoc name base_cfgs) then
            err "config %S present in current run but not in baseline" name)
        cur_cfgs
  | _ -> err "configs object missing from one of the documents");
  List.rev !errs

let find_rule ~rules ~default name =
  match List.find_opt (fun r -> matches name ~pattern:r.pattern) rules with
  | Some r -> r
  | None -> default

let compare_metric ~rule:r name base current =
  let delta =
    if base = 0.0 then if current = 0.0 then 0.0 else Float.infinity
    else (current -. base) /. Float.abs base
  in
  let worse =
    match r.direction with
    | Lower_is_better -> delta > r.tol
    | Higher_is_better -> delta < -.r.tol
  in
  let better =
    match r.direction with
    | Lower_is_better -> delta < -.r.tol
    | Higher_is_better -> delta > r.tol
  in
  let status = if worse then Regressed else if better then Improved else Ok in
  { metric = name; base; current; delta; tol = r.tol; status }

let compare_docs ?(default = rule "*") ~rules baseline current =
  let header_errors = header_errors baseline current in
  let base_metrics = Option.value (obj_fields baseline "metrics") ~default:[] in
  let cur_metrics = Option.value (obj_fields current "metrics") ~default:[] in
  let results =
    List.filter_map
      (fun (name, v) ->
        match Json.to_float_opt v with
        | None -> None
        | Some base -> (
            let r = find_rule ~rules ~default name in
            match Option.bind (List.assoc_opt name cur_metrics) Json.to_float_opt with
            | None ->
                Some
                  {
                    metric = name;
                    base;
                    current = Float.nan;
                    delta = Float.nan;
                    tol = r.tol;
                    status = Missing;
                  }
            | Some current -> Some (compare_metric ~rule:r name base current)))
      base_metrics
  in
  { header_errors; results }

let status_name = function
  | Ok -> "ok"
  | Improved -> "improved"
  | Regressed -> "REGRESSED"
  | Missing -> "MISSING"

let pp_result ppf r =
  Fmt.pf ppf "%-36s %14.4g %14.4g %+8.2f%% (tol %.1f%%) %s" r.metric r.base
    r.current (100.0 *. r.delta) (100.0 *. r.tol) (status_name r.status)

let pp_report ppf r =
  Fmt.pf ppf "@[<v>";
  List.iter (fun e -> Fmt.pf ppf "header: %s@," e) r.header_errors;
  Fmt.pf ppf "%-36s %14s %14s %8s@," "metric" "baseline" "current" "delta";
  List.iter (fun res -> Fmt.pf ppf "%a@," pp_result res) r.results;
  let bad =
    List.filter
      (fun res -> match res.status with Regressed | Missing -> true | _ -> false)
      r.results
  in
  if passed r then Fmt.pf ppf "perf gate: PASS (%d metric(s))@]" (List.length r.results)
  else
    Fmt.pf ppf "perf gate: FAIL (%d header error(s), %d bad metric(s))@]"
      (List.length r.header_errors) (List.length bad)
