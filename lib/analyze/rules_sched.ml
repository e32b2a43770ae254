open Parsetree

let id = "suspend-in-critical-section"

(* Suspension points: the Co effects that can deschedule the task.
   [Co.now] resumes immediately and is not one. *)
let is_suspension path =
  List.mem "Co" path
  &&
  match Ast_util.last path with
  | Some ("yield" | "await" | "work" | "io" | "read" | "write" | "offload_write")
    ->
      true
  | _ -> false

let is_schedsan_lock path = Ast_util.ends_with ~suffix:[ "Schedsan"; "lock" ] path
let is_schedsan_unlock path =
  Ast_util.ends_with ~suffix:[ "Schedsan"; "unlock" ] path

(* Which locally-defined functions are lock/unlock wrappers? A wrapper
   calls exactly one side of the bracket — a function that both locks and
   unlocks is a balanced critical section of its own, not a wrapper, and
   its body is checked directly. *)
let wrapper_sets structure =
  let funs = Ast_util.toplevel_functions structure in
  let calls_in body pred =
    let found = ref false in
    let it =
      let open Ast_iterator in
      {
        default_iterator with
        expr =
          (fun it e ->
            (match Ast_util.path_of e with
            | Some p when pred p -> found := true
            | _ -> ());
            default_iterator.expr it e);
      }
    in
    it.expr it body;
    !found
  in
  let classify pred anti =
    List.filter_map
      (fun (name, body) ->
        if calls_in body pred && not (calls_in body anti) then Some name
        else None)
      funs
  in
  ( classify is_schedsan_lock is_schedsan_unlock,
    classify is_schedsan_unlock is_schedsan_lock )

let file_pass (ctx : Rule.file_ctx) =
  (* schedsan's own implementation is out of scope. *)
  if Filename.basename ctx.Rule.path = "schedsan.ml" then []
  else begin
    let locks, unlocks = wrapper_sets ctx.Rule.ast in
    if locks = [] then []
    else begin
      let out = ref [] in
      let emit loc =
        out :=
          Rule.finding ~rule:id ~file:ctx.Rule.path loc
            "possible suspension point inside a schedsan-locked critical \
             section — another task can enter the section at this yield"
          :: !out
      in
      (* Walk in evaluation order with a lock depth; branches join on the
         deepest arm (conservative). Lambda arguments run inline at the
         application point; let-bound local functions are walked at their
         definition as fresh depth-0 contexts. *)
      let rec walk depth e =
        match e.pexp_desc with
        | Pexp_apply (head, args) ->
            let depth =
              List.fold_left (fun d (_, a) -> walk_arg d a) depth args
            in
            let bump d = function
              | Some p when is_schedsan_lock p -> d + 1
              | Some p when is_schedsan_unlock p -> max 0 (d - 1)
              | Some [ n ] when List.mem n locks -> d + 1
              | Some [ n ] when List.mem n unlocks -> max 0 (d - 1)
              | Some p when is_suspension p ->
                  if d > 0 then emit head.pexp_loc;
                  d
              | _ -> d
            in
            bump depth (Ast_util.path_of head)
        | Pexp_sequence (a, b) -> walk (walk depth a) b
        | Pexp_let (_, vbs, body) ->
            let depth =
              List.fold_left
                (fun d vb ->
                  if Ast_util.is_function vb.pvb_expr then begin
                    ignore (walk 0 (Ast_util.strip_funs vb.pvb_expr));
                    d
                  end
                  else walk d vb.pvb_expr)
                depth vbs
            in
            walk depth body
        | Pexp_ifthenelse (c, t, eo) ->
            let d = walk depth c in
            let dt = walk d t in
            let de = match eo with Some e2 -> walk d e2 | None -> d in
            max dt de
        | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
            let d = walk depth scrut in
            List.fold_left
              (fun acc c ->
                let dg = match c.pc_guard with Some g -> walk d g | None -> d in
                max acc (walk dg c.pc_rhs))
              d cases
        | Pexp_while (c, body) -> walk (walk depth c) body
        | Pexp_for (_, e1, e2, _, body) -> walk (walk (walk depth e1) e2) body
        | Pexp_tuple es | Pexp_array es -> List.fold_left walk depth es
        | Pexp_construct (_, Some e1) | Pexp_variant (_, Some e1) ->
            walk depth e1
        | Pexp_record (fields, base) ->
            let d = match base with Some b -> walk depth b | None -> depth in
            List.fold_left (fun d (_, x) -> walk d x) d fields
        | Pexp_field (e1, _) -> walk depth e1
        | Pexp_setfield (a, _, b) -> walk (walk depth a) b
        | Pexp_constraint (e1, _)
        | Pexp_coerce (e1, _, _)
        | Pexp_assert e1
        | Pexp_lazy e1
        | Pexp_open (_, e1)
        | Pexp_newtype (_, e1)
        | Pexp_letexception (_, e1)
        | Pexp_letmodule (_, _, e1) ->
            walk depth e1
        | Pexp_fun _ | Pexp_function _ ->
            (* a lambda not in argument position: analyse separately *)
            walk_lambda e;
            depth
        | _ -> depth
      and walk_arg depth a =
        match a.pexp_desc with
        | Pexp_fun _ -> walk depth (Ast_util.strip_funs a)
        | Pexp_function cases ->
            List.fold_left (fun acc c -> max acc (walk depth c.pc_rhs)) depth cases
        | _ -> walk depth a
      and walk_lambda e =
        match e.pexp_desc with
        | Pexp_fun _ -> ignore (walk 0 (Ast_util.strip_funs e))
        | Pexp_function cases ->
            List.iter (fun c -> ignore (walk 0 c.pc_rhs)) cases
        | _ -> ()
      in
      List.iter
        (fun (_, body) -> ignore (walk 0 body))
        (Ast_util.toplevel_functions ctx.Rule.ast);
      List.sort Rule.compare_finding !out
    end
  end

let rule =
  {
    Rule.id;
    doc =
      "no Co.yield / latch await / blocking I/O between schedsan-annotated \
       lock acquire and release (static lost-wakeup/race screen)";
    file_pass;
  }
