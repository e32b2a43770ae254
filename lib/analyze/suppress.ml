(* Covers findings from the marker line through the line after the
   comment closes, so a wrapped allow comment still reaches the
   expression below it. *)
type suppression = {
  s_line : int;
  s_end : int;  (** last covered line *)
  s_rules : string list;
  s_reason : string;
}

type t = suppression list

let bad_suppress_rule = "bad-suppress"

(* Built by concatenation so this file's own source does not contain the
   marker and trip the scanner when pmlint analyses itself. *)
let marker = "pmlint:" ^ "allow"

let trim = String.trim

let split_on_char_map c f s = List.map f (String.split_on_char c s)

let find_sub line sub =
  let n = String.length line and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub line i m = sub then Some i
    else go (i + 1)
  in
  go 0

let mk_finding ~path ~line msg =
  {
    Rule.rule = bad_suppress_rule;
    file = path;
    line;
    col = 0;
    msg;
  }

(* One line's allow clause: everything between the marker and the comment
   close (or end of line). *)
let parse_line ~path ~known_rules ~line_no line =
  match find_sub line marker with
  | None -> None
  | Some i -> (
      let rest = String.sub line (i + String.length marker)
                   (String.length line - i - String.length marker) in
      let closed_here, rest =
        match find_sub rest "*)" with
        | Some j -> (true, String.sub rest 0 j)
        | None -> (false, rest)
      in
      match String.index_opt rest ':' with
      | None ->
          Some
            (Error
               (mk_finding ~path ~line:line_no
                  (Printf.sprintf
                     "%s needs a reason: '(* %s <rule>: <why> *)'" marker
                     marker)))
      | Some colon ->
          let ids_part = String.sub rest 0 colon in
          let reason =
            trim
              (String.sub rest (colon + 1) (String.length rest - colon - 1))
          in
          let ids =
            split_on_char_map ',' trim ids_part |> List.filter (( <> ) "")
          in
          let unknown =
            List.filter (fun id -> not (List.mem id known_rules)) ids
          in
          if reason = "" then
            Some
              (Error
                 (mk_finding ~path ~line:line_no
                    (Printf.sprintf "%s has an empty reason" marker)))
          else if ids = [] then
            Some
              (Error
                 (mk_finding ~path ~line:line_no
                    (Printf.sprintf "%s names no rule" marker)))
          else if unknown <> [] then
            Some
              (Error
                 (mk_finding ~path ~line:line_no
                    (Printf.sprintf "%s names unknown rule(s): %s" marker
                       (String.concat ", " unknown))))
          else
            Some
              (Ok
                 ( { s_line = line_no; s_end = line_no + 1; s_rules = ids;
                     s_reason = reason },
                   closed_here )))

let scan ~path ~known_rules source =
  let lines = Array.of_list (String.split_on_char '\n' source) in
  let n = Array.length lines in
  (* first line (0-based) at or after [i] whose text closes a comment *)
  let close_after i =
    let rec go j =
      if j >= n then i
      else match find_sub lines.(j) "*)" with Some _ -> j | None -> go (j + 1)
    in
    go i
  in
  let sups = ref [] and bad = ref [] in
  Array.iteri
    (fun i line ->
      match parse_line ~path ~known_rules ~line_no:(i + 1) line with
      | None -> ()
      | Some (Ok (s, closed_here)) ->
          let s =
            if closed_here then s
            else { s with s_end = close_after (i + 1) + 2 }
          in
          sups := s :: !sups
      | Some (Error f) -> bad := f :: !bad)
    lines;
  (List.rev !sups, List.rev !bad)

let covers t (f : Rule.finding) =
  let matching =
    List.find_opt
      (fun s ->
        f.Rule.line >= s.s_line && f.Rule.line <= s.s_end
        && List.mem f.Rule.rule s.s_rules)
      t
  in
  Option.map (fun s -> s.s_reason) matching
