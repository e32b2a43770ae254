let id = "partial-accessor"

let verdict path =
  if Ast_util.ends_with ~suffix:[ "List"; "hd" ] path then
    Some "List.hd raises on []  — match on the list instead"
  else if Ast_util.ends_with ~suffix:[ "List"; "tl" ] path then
    Some "List.tl raises on [] — match on the list instead"
  else if Ast_util.ends_with ~suffix:[ "Option"; "get" ] path then
    Some "Option.get raises on None — match or provide a default instead"
  else
    match Ast_util.last path with
    | Some (("unsafe_get" | "unsafe_set") as op) when List.length path >= 2 ->
        Some (op ^ " skips bounds checks — use the checked accessor")
    | _ -> None

let file_pass (ctx : Rule.file_ctx) =
  let out = ref [] in
  Ast_util.iter_expressions ctx.Rule.ast (fun e ->
      match Ast_util.path_of e with
      | Some path -> (
          match verdict path with
          | Some msg ->
              out :=
                Rule.finding ~rule:id ~file:ctx.Rule.path e.Parsetree.pexp_loc
                  msg
                :: !out
          | None -> ())
      | None -> ());
  List.sort Rule.compare_finding !out

let rule =
  {
    Rule.id;
    doc =
      "no List.hd / List.tl / Option.get / unsafe_get / unsafe_set anywhere \
       in lib/ (AST-precise, project-wide)";
    file_pass;
  }
