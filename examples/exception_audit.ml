(* Exception audit: which exceptions can escape which methods, and can
   anything crash the program?

   Runs the exception-flow client over the hsqldb-profile workload (a
   database engine's error paths) and reports, per analysis, how many
   methods may leak exceptions and which allocation sites can reach main
   uncaught.

     dune exec examples/exception_audit.exe *)

module Ir = Pta_ir.Ir
module Solver = Pta_solver.Solver
module Exceptions = Pta_clients.Exceptions
module Driver = Pta_driver.Driver

let () =
  let profile = Option.get (Pta_workloads.Profile.by_name "hsqldb") in
  let program = Pta_workloads.Workloads.program profile in
  Printf.printf "workload: %s (%d methods)\n\n" profile.Pta_workloads.Profile.name
    (Ir.Program.n_meths program);
  let table =
    Pta_report.Table.create
      ~headers:[ "analysis"; "throwing methods"; "uncaught sites" ]
  in
  let last = ref None in
  List.iter
    (fun name ->
      let solver =
        match Driver.run program ~analysis:name with
        | Ok r -> r.Driver.solver
        | Error e -> Driver.report_and_exit e
      in
      let escapes = Exceptions.escapes solver in
      let uncaught = Exceptions.uncaught_at_entries solver escapes in
      Pta_report.Table.add_row table
        [ name; string_of_int (List.length escapes);
          string_of_int (List.length uncaught) ];
      last := Some (solver, uncaught))
    [ "insens"; "1obj"; "2obj+H"; "S-2obj+H" ];
  print_string (Pta_report.Table.render table);
  match !last with
  | None -> ()
  | Some (solver, uncaught) ->
    let program = Solver.program solver in
    Printf.printf "\nexceptions that may crash the program (S-2obj+H):\n";
    List.iteri
      (fun i h ->
        if i < 8 then Printf.printf "    %s\n" (Ir.Program.heap_name program h))
      uncaught;
    if List.length uncaught > 8 then
      Printf.printf "    ... and %d more\n" (List.length uncaught - 8)
