(* pmlint: static analyzer for PM-Blade's own sources.

   Parses lib/ with the compiler's parser and enforces three disciplines
   the compiler cannot see — persistence ordering, scheduler safety and
   partial accessors (DESIGN.md "static-analysis model"). Exit 1 on any
   unsuppressed finding.

     pmlint [--json FILE] [--list-rules] [--quiet] [PATH ...]

   PATH defaults to lib; directories are walked recursively for *.ml. *)

let () =
  let json_out = ref None in
  let list_rules = ref false in
  let quiet = ref false in
  let paths = ref [] in
  let spec =
    [
      ( "--json",
        Arg.String (fun s -> json_out := Some s),
        "FILE  write the findings as a JSON artifact" );
      ("--list-rules", Arg.Set list_rules, "  print the rule catalogue and exit");
      ("--quiet", Arg.Set quiet, "  only the final tally, no per-finding lines");
    ]
  in
  let usage = "pmlint [--json FILE] [--list-rules] [--quiet] [PATH ...]" in
  Arg.parse spec (fun p -> paths := p :: !paths) usage;
  if !list_rules then begin
    List.iter
      (fun (r : Analyze.Rule.t) ->
        Printf.printf "%-28s %s\n" r.Analyze.Rule.id r.Analyze.Rule.doc)
      Analyze.Driver.default_rules;
    exit 0
  end;
  let paths = match List.rev !paths with [] -> [ "lib" ] | ps -> ps in
  let summary = Analyze.Driver.run paths in
  (match !json_out with
  | Some file -> Analyze.Report.write_json file summary
  | None -> ());
  if !quiet then
    Format.printf "pmlint: %d unsuppressed finding(s), %d suppressed, %d file(s)@."
      (List.length summary.Analyze.Report.findings)
      (List.length summary.Analyze.Report.suppressed)
      summary.Analyze.Report.files
  else Analyze.Report.pp_text Format.std_formatter summary;
  exit (if Analyze.Driver.has_errors summary then 1 else 0)
