(* Tests for the pmlint static analyzer: one clean and one dirty fixture
   per rule, suppression semantics (honored with a reason, rejected
   without one), the JSON reporter golden form, and the bar that the real
   lib/ tree carries zero unsuppressed findings. The fixtures live under
   fixtures/pmlint/ as data-only sources: they must parse, never
   compile. *)

let check = Alcotest.check

(* dune runtest runs with cwd _build/default/test; dune exec runs from the
   project root — resolve both. *)
let fixture_root =
  if Sys.file_exists "fixtures/pmlint" then "fixtures/pmlint"
  else "test/fixtures/pmlint"

let lib_root = if Sys.file_exists "../lib" then "../lib" else "lib"

let fixture sub = Filename.concat fixture_root sub

let run paths = Analyze.Driver.run paths

(* (line, rule) pairs of the unsuppressed findings, in report order. *)
let findings_of (s : Analyze.Report.summary) =
  List.map
    (fun (f : Analyze.Rule.finding) -> (f.Analyze.Rule.line, f.Analyze.Rule.rule))
    s.Analyze.Report.findings

let check_findings name expected s =
  check
    Alcotest.(list (pair int string))
    name expected (findings_of s)

(* --- Clean fixtures ----------------------------------------------------- *)

let test_clean_fixtures () =
  let s = run [ fixture "clean" ] in
  check_findings "clean tree is silent" [] s;
  check Alcotest.int "no suppressions needed" 0
    (List.length s.Analyze.Report.suppressed);
  check Alcotest.int "all three fixtures parsed" 3 s.Analyze.Report.files

(* --- One dirty fixture per rule ----------------------------------------- *)

let test_dirty_flush_before_commit () =
  (* direct commit, conditional (chaos-style) flush, tail write after
     flush, a dirty helper seen through its summary, and a log-ring sync
     whose fence sits behind a kill switch *)
  let s = run [ fixture "dirty/r1.ml" ] in
  check_findings "all five unpersisted commits flagged"
    [
      (7, "flush-before-commit");
      (15, "flush-before-commit");
      (24, "flush-before-commit");
      (33, "flush-before-commit");
      (42, "flush-before-commit");
    ]
    s

let test_dirty_suspend_in_critical_section () =
  let s = run [ fixture "dirty/r3.ml" ] in
  check_findings "yield and await inside the lock flagged"
    [
      (13, "suspend-in-critical-section"); (19, "suspend-in-critical-section");
    ]
    s

let test_dirty_partial_accessor () =
  let s = run [ fixture "dirty/r5.ml" ] in
  check_findings "every partial/unsafe accessor flagged"
    [
      (4, "partial-accessor");
      (6, "partial-accessor");
      (8, "partial-accessor");
      (10, "partial-accessor");
    ]
    s

let test_dirty_tree_fails () =
  let s = run [ fixture "dirty" ] in
  check Alcotest.int "all planted violations surface" 11
    (List.length s.Analyze.Report.findings);
  check Alcotest.bool "dirty tree is an error exit" true
    (Analyze.Driver.has_errors s)

(* --- Suppressions ------------------------------------------------------- *)

let test_suppression_honored () =
  let s = run [ fixture "suppress/ok.ml" ] in
  check_findings "reasoned allows silence the findings" [] s;
  let reasons =
    List.map (fun (_, reason) -> reason) s.Analyze.Report.suppressed
  in
  check Alcotest.int "both hits recorded as suppressed" 2 (List.length reasons);
  List.iter
    (fun reason -> check Alcotest.bool "reason retained" true (reason <> ""))
    reasons

let test_suppression_needs_reason () =
  (* a reason-less marker and an unknown-rule marker are themselves
     findings, and the violations they point at stay unsuppressed *)
  let s = run [ fixture "suppress/noreason.ml" ] in
  check_findings "bad markers rejected, findings kept"
    [
      (5, "bad-suppress");
      (6, "partial-accessor");
      (8, "bad-suppress");
      (9, "partial-accessor");
    ]
    s;
  check Alcotest.int "nothing suppressed" 0
    (List.length s.Analyze.Report.suppressed)

(* --- JSON reporter ------------------------------------------------------ *)

let test_json_golden () =
  let f line msg =
    {
      Analyze.Rule.rule = "partial-accessor";
      file = "lib/x.ml";
      line;
      col = 15;
      msg;
    }
  in
  let s =
    {
      Analyze.Report.files = 2;
      findings = [ f 4 "List.hd raises on []" ];
      suppressed = [ (f 9 "List.tl raises on []", "bench-only fast path") ];
    }
  in
  check Alcotest.string "golden JSON form"
    ({|{"schema":2,"tool":"pmlint","files":2,"unsuppressed":1,"suppressed":1,|}
    ^ {|"findings":[{"file":"lib/x.ml","line":4,"col":15,"rule":"partial-accessor",|}
    ^ {|"message":"List.hd raises on []"}],|}
    ^ {|"suppressions":[{"file":"lib/x.ml","line":9,"col":15,"rule":"partial-accessor",|}
    ^ {|"message":"List.tl raises on []","reason":"bench-only fast path"}]}|})
    (Obs.Json.to_string (Analyze.Report.to_json s))

let test_json_roundtrip () =
  let s = run [ fixture "dirty/r5.ml" ] in
  let j = Obs.Json.parse (Obs.Json.to_string (Analyze.Report.to_json s)) in
  let int_member key =
    match Obs.Json.member key j with Some (Obs.Json.Int i) -> i | _ -> -1
  in
  check Alcotest.int "schema" 2 (int_member "schema");
  check Alcotest.int "files" 1 (int_member "files");
  check Alcotest.int "unsuppressed" 4 (int_member "unsuppressed");
  match Obs.Json.member "findings" j with
  | Some (Obs.Json.List items) ->
      check Alcotest.int "findings array matches count" 4 (List.length items)
  | _ -> Alcotest.fail "findings array missing"

(* --- The real tree ------------------------------------------------------ *)

let test_lib_tree_is_clean () =
  (* runs from _build/default/test, so ../lib is the copied source tree *)
  let s = run [ lib_root ] in
  check Alcotest.bool "lib/ sources are present" true
    (s.Analyze.Report.files >= 70);
  check_findings "zero unsuppressed findings on the unmodified tree" [] s;
  check Alcotest.bool "the audited allows are still honored" true
    (List.length s.Analyze.Report.suppressed >= 1)

let () =
  Alcotest.run "analyze"
    [
      ( "rules",
        [
          Alcotest.test_case "clean fixtures" `Quick test_clean_fixtures;
          Alcotest.test_case "flush-before-commit" `Quick
            test_dirty_flush_before_commit;
          Alcotest.test_case "suspend-in-critical-section" `Quick
            test_dirty_suspend_in_critical_section;
          Alcotest.test_case "partial-accessor" `Quick
            test_dirty_partial_accessor;
          Alcotest.test_case "dirty tree fails" `Quick test_dirty_tree_fails;
        ] );
      ( "suppress",
        [
          Alcotest.test_case "honored with reason" `Quick
            test_suppression_honored;
          Alcotest.test_case "rejected without reason" `Quick
            test_suppression_needs_reason;
        ] );
      ( "report",
        [
          Alcotest.test_case "json golden" `Quick test_json_golden;
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
        ] );
      ( "tree",
        [ Alcotest.test_case "lib is clean" `Quick test_lib_tree_is_clean ] );
    ]
