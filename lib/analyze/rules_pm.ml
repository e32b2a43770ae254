open Parsetree

let id = "flush-before-commit"

(* May-state: [dirty] = some PM write may be unflushed; [unfenced] = some
   flush may not have reached a drain yet. *)
type st = { dirty : bool; unfenced : bool }

let clean = { dirty = false; unfenced = false }
let join a b = { dirty = a.dirty || b.dirty; unfenced = a.unfenced || b.unfenced }

(* A local function's transfer: input state -> output state plus the
   findings that fire under that input. *)
type summary = st -> st * Rule.finding list

type env = (string * summary) list

let is_commit_sink path =
  Ast_util.ends_with ~suffix:[ "Pmem"; "commit_point" ] path
  || List.length path >= 2
     &&
     match Ast_util.last path with
     | Some ("seal" | "sync" | "sync_wal") -> true
     | _ -> false

let literal_string_arg args =
  List.find_map
    (fun (_, a) ->
      match a.pexp_desc with
      | Pexp_constant (Pconst_string (s, _, _)) -> Some s
      | _ -> None)
    args

let rec eval ~file ~(emit : Rule.finding -> unit) (env : env) st e =
  let eval' = eval ~file ~emit in
  match e.pexp_desc with
  | Pexp_apply (head, args) -> eval_apply ~file ~emit env st head args
  | Pexp_sequence (a, b) ->
      let st = eval' env st a in
      eval' env st b
  | Pexp_let (rf, vbs, body) ->
      let env', st = eval_let ~file ~emit env st rf vbs in
      eval' env' st body
  | Pexp_ifthenelse (c, t, eo) ->
      let st = eval' env st c in
      let st_t = eval' env st t in
      let st_e = match eo with Some e2 -> eval' env st e2 | None -> st in
      join st_t st_e
  | Pexp_match (scrut, cases) ->
      let st0 = eval' env st scrut in
      eval_cases ~file ~emit env st0 cases
  | Pexp_try (body, cases) ->
      let st0 = eval' env st body in
      join st0 (eval_cases ~file ~emit env st0 cases)
  | Pexp_while (c, body) ->
      let once s = eval' env (eval' env s c) body in
      let s1 = once st in
      let s2 = once (join st s1) in
      join st (join s1 s2)
  | Pexp_for (_, e1, e2, _, body) ->
      let st = eval' env (eval' env st e1) e2 in
      let s1 = eval' env st body in
      let s2 = eval' env (join st s1) body in
      join st (join s1 s2)
  | Pexp_tuple es | Pexp_array es ->
      List.fold_left (fun s x -> eval' env s x) st es
  | Pexp_construct (_, Some e1) | Pexp_variant (_, Some e1) -> eval' env st e1
  | Pexp_record (fields, base) ->
      let st = match base with Some b -> eval' env st b | None -> st in
      List.fold_left (fun s (_, x) -> eval' env s x) st fields
  | Pexp_field (e1, _) -> eval' env st e1
  | Pexp_setfield (a, _, b) -> eval' env (eval' env st a) b
  | Pexp_constraint (e1, _)
  | Pexp_coerce (e1, _, _)
  | Pexp_assert e1
  | Pexp_lazy e1
  | Pexp_open (_, e1)
  | Pexp_newtype (_, e1)
  | Pexp_letexception (_, e1)
  | Pexp_letmodule (_, _, e1) ->
      eval' env st e1
  | _ -> st

and eval_cases ~file ~emit env st0 cases =
  match cases with
  | [] -> st0
  | first :: rest ->
      let case_state c =
        let s =
          match c.pc_guard with
          | Some g -> eval ~file ~emit env st0 g
          | None -> st0
        in
        eval ~file ~emit env s c.pc_rhs
      in
      List.fold_left (fun acc c -> join acc (case_state c)) (case_state first) rest

(* A lambda appearing as an argument is treated as run once, inline, at
   the application point — the [with_phase (fun () -> ...)] /
   [Fun.protect] idiom. *)
and eval_arg ~file ~emit env st a =
  match a.pexp_desc with
  | Pexp_fun _ -> eval ~file ~emit env st (Ast_util.strip_funs a)
  | Pexp_function cases -> eval_cases ~file ~emit env st cases
  | _ -> eval ~file ~emit env st a

and eval_apply ~file ~emit env st head args =
  let st = List.fold_left (fun s (_, a) -> eval_arg ~file ~emit env s a) st args in
  match Ast_util.path_of head with
  | Some path when Ast_util.ends_with ~suffix:[ "Pmem"; "write" ] path ->
      { st with dirty = true }
  | Some path when Ast_util.ends_with ~suffix:[ "Pmem"; "flush" ] path ->
      { dirty = false; unfenced = true }
  | Some path when Ast_util.ends_with ~suffix:[ "Pmem"; "drain" ] path ->
      { st with unfenced = false }
  | Some path when is_commit_sink path ->
      (if st.dirty || st.unfenced then
         let site =
           match literal_string_arg args with
           | Some s -> Printf.sprintf " %S" s
           | None -> ""
         in
         let what =
           if st.dirty then "an unflushed PM write (missing clwb on some path)"
           else "a flushed-but-unfenced PM write (missing drain on some path)"
         in
         emit
           (Rule.finding ~rule:id ~file head.pexp_loc
              (Printf.sprintf
                 "durability point%s is reachable with %s — flush+drain every \
                  PM write before committing"
                 site what)));
      clean
  | Some [ name ] -> (
      match List.assoc_opt name env with
      | Some summary ->
          let out, fs = summary st in
          List.iter emit fs;
          out
      | None -> st)
  | Some _ -> st
  | None -> eval ~file ~emit env st head

(* Bindings: function values get a summary in the environment; plain
   values are evaluated for their effects. [let rec]/[and] groups are
   pre-bound through mutable slots so recursion terminates (a recursive
   call is approximated as the identity transfer). *)
and eval_let ~file ~emit env st rf vbs =
  let is_fun vb = Ast_util.is_function vb.pvb_expr in
  let name_of vb =
    match vb.pvb_pat.ppat_desc with Ppat_var { txt; _ } -> Some txt | _ -> None
  in
  let funs, values = List.partition is_fun vbs in
  let st =
    List.fold_left (fun s vb -> eval ~file ~emit env s vb.pvb_expr) st values
  in
  let named =
    List.filter_map
      (fun vb -> Option.map (fun n -> (n, vb.pvb_expr)) (name_of vb))
      funs
  in
  let slots = List.map (fun (n, _) -> (n, ref (fun s -> (s, [])))) named in
  let env' =
    List.fold_left
      (fun acc (n, slot) -> (n, fun s -> !slot s) :: acc)
      env slots
  in
  let def_env = match rf with Asttypes.Recursive -> env' | Nonrecursive -> env in
  List.iter2
    (fun (_, body) (_, slot) ->
      slot := summarize ~file def_env (Ast_util.strip_funs body))
    named slots;
  (env', st)

and summarize ~file env body : summary =
  let memo = Hashtbl.create 4 in
  fun input ->
    match Hashtbl.find_opt memo input with
    | Some r -> r
    | None ->
        (* recursion cut: in-progress evaluation answers identity *)
        Hashtbl.add memo input (input, []);
        let fs = ref [] in
        let out = eval ~file ~emit:(fun f -> fs := f :: !fs) env input body in
        let r = (out, List.rev !fs) in
        Hashtbl.replace memo input r;
        r

let dedup findings =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun (f : Rule.finding) ->
      let key = (f.Rule.line, f.Rule.col, f.Rule.rule) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    (List.sort Rule.compare_finding findings)

let file_pass (ctx : Rule.file_ctx) =
  (* The device module itself implements write/flush/drain — its
     unqualified internals are not protocol users. *)
  if Filename.basename ctx.Rule.path = "pmem.ml" then []
  else begin
    let out = ref [] in
    let emit f = out := f :: !out in
    let env = ref [] in
    let rec walk_items items = List.iter walk_item items
    and walk_item item =
      match item.pstr_desc with
      | Pstr_value (rf, vbs) ->
          let env', _st =
            eval_let ~file:ctx.Rule.path ~emit !env clean rf vbs
          in
          env := env';
          (* entry analysis: every top-level function, entered clean *)
          List.iter
            (fun vb ->
              match (vb.pvb_pat.ppat_desc, Ast_util.is_function vb.pvb_expr) with
              | Ppat_var { txt; _ }, true -> (
                  match List.assoc_opt txt !env with
                  | Some summary ->
                      let _, fs = summary clean in
                      List.iter emit fs
                  | None -> ())
              | _ -> ())
            vbs
      | Pstr_eval (e, _) ->
          ignore (eval ~file:ctx.Rule.path ~emit !env clean e)
      | Pstr_module { pmb_expr; _ } -> walk_module pmb_expr
      | Pstr_recmodule mbs -> List.iter (fun mb -> walk_module mb.pmb_expr) mbs
      | _ -> ()
    and walk_module me =
      match me.pmod_desc with
      | Pmod_structure items -> walk_items items
      | Pmod_constraint (me, _) -> walk_module me
      | _ -> ()
    in
    walk_items ctx.Rule.ast;
    dedup !out
  end

let rule =
  {
    Rule.id;
    doc =
      "a PM write can reach a durability point (Pmem.commit_point / seal / \
       sync) without an intervening flush+drain on some path";
    file_pass;
  }
