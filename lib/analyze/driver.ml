let default_rules =
  [
    Rules_pm.rule;
    Rules_sched.rule;
    Rules_partial.rule;
  ]

let rule_ids rules = List.map (fun (r : Rule.t) -> r.Rule.id) rules

let parse_error_rule = "parse-error"

let run ?(rules = default_rules) paths =
  let files = Loader.collect paths in
  let known = rule_ids rules in
  let parse_failures = ref [] in
  let loaded =
    List.filter_map
      (fun path ->
        match Loader.load path with
        | Ok l -> Some l
        | Error msg ->
            parse_failures :=
              {
                Rule.rule = parse_error_rule;
                file = path;
                line = 1;
                col = 0;
                msg;
              }
              :: !parse_failures;
            None)
      files
  in
  let scans =
    List.map
      (fun (l : Loader.t) ->
        let scan, bad =
          Suppress.scan ~path:l.Loader.path ~known_rules:known l.Loader.source
        in
        (l.Loader.path, (scan, bad)))
      loaded
  in
  let ctxs =
    List.map
      (fun (l : Loader.t) ->
        { Rule.path = l.Loader.path; ast = l.Loader.ast })
      loaded
  in
  let raw =
    List.concat_map
      (fun (r : Rule.t) -> List.concat_map r.Rule.file_pass ctxs)
      rules
  in
  let bad_suppress =
    List.concat_map (fun (_, (_, bad)) -> bad) scans
  in
  let kept = ref [] and suppressed = ref [] in
  List.iter
    (fun (f : Rule.finding) ->
      match List.assoc_opt f.Rule.file scans with
      | Some (scan, _) -> (
          match Suppress.covers scan f with
          | Some reason -> suppressed := (f, reason) :: !suppressed
          | None -> kept := f :: !kept)
      | None -> kept := f :: !kept)
    raw;
  {
    Report.files = List.length files;
    findings =
      List.sort Rule.compare_finding
        (!parse_failures @ bad_suppress @ !kept);
    suppressed =
      List.sort
        (fun (a, _) (b, _) -> Rule.compare_finding a b)
        !suppressed;
  }

let has_errors (t : Report.summary) = t.Report.findings <> []
