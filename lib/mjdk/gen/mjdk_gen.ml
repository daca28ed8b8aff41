(* Writes the [Mjdk] module to stdout: the mini-JDK source read from the
   file named on the command line, and its declarations, parsed here and
   embedded as a marshalled [Ast.program].  The generator and the
   library it writes are built by the same compiler, so the marshalled
   form always matches the [Ast] types the library is compiled with. *)

let file_name = "<mjdk>"

let () =
  let source = In_channel.with_open_bin Sys.argv.(1) In_channel.input_all in
  let decls = Pta_frontend.Frontend.parse ~file:file_name source in
  Printf.printf "(* Generated from mjdk.mj by gen/mjdk_gen.ml: edit mjdk.mj. *)\n\n";
  Printf.printf "let file_name = %S\n\n" file_name;
  Printf.printf "let source = %S\n\n" source;
  Printf.printf "let decls : Pta_frontend.Ast.program =\n  Marshal.from_string %S 0\n"
    (Marshal.to_string decls [])
