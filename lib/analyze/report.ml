type summary = {
  files : int;
  findings : Rule.finding list;
  suppressed : (Rule.finding * string) list;
}

let pp_finding ppf (f : Rule.finding) =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" f.Rule.file f.Rule.line f.Rule.col
    f.Rule.rule f.Rule.msg

let pp_text ppf t =
  List.iter (fun f -> Format.fprintf ppf "%a@." pp_finding f) t.findings;
  Format.fprintf ppf "pmlint: %d unsuppressed finding(s), %d suppressed, %d file(s)@."
    (List.length t.findings)
    (List.length t.suppressed)
    t.files

let json_of_finding ?reason (f : Rule.finding) =
  let base =
    [
      ("file", Obs.Json.String f.Rule.file);
      ("line", Obs.Json.Int f.Rule.line);
      ("col", Obs.Json.Int f.Rule.col);
      ("rule", Obs.Json.String f.Rule.rule);
      ("message", Obs.Json.String f.Rule.msg);
    ]
  in
  Obs.Json.Obj
    (match reason with
    | None -> base
    | Some r -> base @ [ ("reason", Obs.Json.String r) ])

let to_json t =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Int 2);
      ("tool", Obs.Json.String "pmlint");
      ("files", Obs.Json.Int t.files);
      ("unsuppressed", Obs.Json.Int (List.length t.findings));
      ("suppressed", Obs.Json.Int (List.length t.suppressed));
      ( "findings",
        Obs.Json.List (List.map (fun f -> json_of_finding f) t.findings) );
      ( "suppressions",
        Obs.Json.List
          (List.map (fun (f, reason) -> json_of_finding ~reason f) t.suppressed)
      );
    ]

let write_json path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Obs.Json.to_string (to_json t) ^ "\n"))
