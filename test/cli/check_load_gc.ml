(* The load's collection count: `check_load_gc FILE` loads FILE through
   [Driver.load_files] in this fresh process and requires the load to
   run exactly one minor collection, the one that [Driver.configure_gc]'s
   [Gc.set] of the nursery runs, and no major collection.  On OCaml 5 a
   load that allocates past half the 4M-word nursery starts a major
   cycle, which empties the nursery and promotes the whole young AST. *)

module Driver = Pta_driver.Driver

let () =
  let file =
    match Sys.argv with
    | [| _; file |] -> file
    | _ ->
      prerr_endline "usage: check_load_gc FILE";
      exit 2
  in
  let before = Gc.quick_stat () in
  (match Driver.load_files [ file ] with
  | Ok _ -> ()
  | Error e -> Driver.report_and_exit e);
  let after = Gc.quick_stat () in
  let minor = after.Gc.minor_collections - before.Gc.minor_collections
  and major = after.Gc.major_collections - before.Gc.major_collections in
  if minor <> 1 || major <> 0 then begin
    Printf.eprintf
      "%s: the load ran %d minor and %d major collection(s), not 1 and 0\n"
      file minor major;
    exit 1
  end;
  Printf.printf "%s: 1 minor and 0 major collections\n" file
