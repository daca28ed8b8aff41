(* The IR of every generated workload, pinned by digest: for gen tiny,
   cyclic and the ten Table-1 profiles, one line with the workload's
   name and the MD5 of `pointsto dump-ir` on its source.
   `dump_ir_digest POINTSTO` prints the lines; the golden diff in this
   directory turns any change to a type, field, method, variable, heap
   or invocation id or name into a visible test change. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let workloads =
  [ "tiny"; "cyclic"; "antlr"; "bloat"; "chart"; "eclipse"; "hsqldb";
    "jython"; "luindex"; "lusearch"; "pmd"; "xalan" ]

let output exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> fail "%s %s failed" exe (String.concat " " args)

let () =
  let exe =
    match Sys.argv with
    | [| _; exe |] -> exe
    | _ -> fail "usage: dump_ir_digest POINTSTO"
  in
  let src = Filename.temp_file "dump_ir" ".mj" in
  Fun.protect
    ~finally:(fun () -> Sys.remove src)
    (fun () ->
      List.iter
        (fun w ->
          Out_channel.with_open_bin src (fun oc ->
              output_string oc (output exe [ "gen"; w ]));
          let ir = output exe [ "dump-ir"; src ] in
          Printf.printf "%s %s\n" w (Digest.to_hex (Digest.string ir)))
        workloads)
