(* Direct calls for virtual ones: how much context-sensitivity buys a compiler.

   Solves the pmd-profile synthetic benchmark (an AST-visitor-style
   workload) under increasingly precise analyses and reports how many
   virtual call sites become direct calls: the metric bundle gives the
   site totals, the monomorphic-call-site checker the sites with exactly
   one target.

     dune exec examples/devirtualization.exe *)

module Driver = Pta_driver.Driver
module Metrics = Pta_clients.Metrics
module Checkers = Pta_checkers.Checkers
module Diagnostic = Pta_checkers.Diagnostic
module Results = Pta_checkers.Results

let solve_named program name =
  match Driver.run program ~analysis:name with
  | Ok r -> r.Driver.solver
  | Error e -> Driver.report_and_exit e

let monomorphic solver =
  Checkers.run ~only:[ "monomorphic-call-site" ] (Results.of_solver solver)

let () =
  let profile = Option.get (Pta_workloads.Profile.by_name "pmd") in
  let program = Pta_workloads.Workloads.program profile in
  Printf.printf
    "workload: %s (%d methods)\n\n" profile.Pta_workloads.Profile.name
    (Pta_ir.Ir.Program.n_meths program);
  let table =
    Pta_report.Table.create
      ~headers:[ "analysis"; "sites"; "monomorphic"; "polymorphic"; "unresolved"; "devirt %" ]
  in
  List.iter
    (fun name ->
      let solver = solve_named program name in
      let m = Metrics.compute solver in
      let mono = List.length (monomorphic solver) in
      let poly = m.Metrics.poly_vcalls in
      let total = m.Metrics.total_vcalls in
      Pta_report.Table.add_row table
        [
          name;
          string_of_int total;
          string_of_int mono;
          string_of_int poly;
          string_of_int (total - mono - poly);
          Printf.sprintf "%.1f%%" (100. *. float_of_int mono /. float_of_int total);
        ])
    [ "insens"; "1call"; "1obj"; "SB-1obj"; "2type+H"; "S-2type+H"; "2obj+H"; "S-2obj+H" ];
  print_string (Pta_report.Table.render table);
  print_newline ();
  (* Show a few calls that only the hybrid can devirtualize. *)
  let run name = monomorphic (solve_named program name) in
  let base = run "2obj+H" and hybrid = run "S-2obj+H" in
  let base_spans = List.map (fun (d : Diagnostic.t) -> d.span) base in
  let newly =
    List.filter (fun (d : Diagnostic.t) -> not (List.mem d.span base_spans)) hybrid
  in
  Printf.printf "%d call sites devirtualized by S-2obj+H but not by 2obj+H" (List.length newly);
  List.iteri
    (fun i (d : Diagnostic.t) ->
      if i < 5 then
        match d.span with
        | Some { left; _ } ->
          Printf.printf "\n    %s:%d:%d: %s" left.file left.line left.col d.message
        | None -> Printf.printf "\n    %s" d.message)
    newly;
  print_newline ()
