(* Call-site capture for sanitizer reports.

   Walks the current backtrace and returns the first frame that does not
   belong to the sanitizer itself or to the instrumented device shims, so
   a redundant flush issued while [Pmtable.Builder] writes a table image
   is attributed to "builder.ml:NN" rather than to the pmem wrapper that
   observed it.
   Requires debug info (dune builds with -g by default); degrades to a
   placeholder otherwise. *)

let internal_files =
  [
    "pmsan.ml"; "schedsan.ml"; "site.ml"; "pmem.ml"; "scheduler.ml"; "co.ml";
    "camlinternalLazy.ml" (* lazy-captured sites force under Lazy.force *);
  ]

let capture () =
  let bt = Printexc.get_callstack 16 in
  match Printexc.backtrace_slots bt with
  | None -> "<no-debug-info>"
  | Some slots ->
      let best = ref "<unknown>" in
      (try
         Array.iter
           (fun slot ->
             match Printexc.Slot.location slot with
             | None -> ()
             | Some loc ->
                 let base = Filename.basename loc.Printexc.filename in
                 if not (List.mem base internal_files) then begin
                   best := Printf.sprintf "%s:%d" base loc.Printexc.line_number;
                   raise Exit
                 end)
           slots
       with Exit -> ());
      !best
