type finding = {
  rule : string;
  file : string;
  line : int;
  col : int;
  msg : string;
}

type file_ctx = { path : string; ast : Parsetree.structure }

type t = {
  id : string;
  doc : string;
  file_pass : file_ctx -> finding list;
}

let finding ~rule ~file loc msg =
  let p = loc.Location.loc_start in
  {
    rule;
    file;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    msg;
  }

let compare_finding a b =
  match compare a.file b.file with
  | 0 -> (
      match compare a.line b.line with
      | 0 -> (
          match compare a.col b.col with 0 -> compare a.rule b.rule | c -> c)
      | c -> c)
  | c -> c
