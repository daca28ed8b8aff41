(** Facade over the MJ frontend: parse and lower sources to an IR program.

    All functions raise {!Srcloc.Error} on lexical, syntactic or semantic
    errors; {!report} formats such an error for users. *)

val parse : file:string -> string -> Ast.program
(** Parse one source without lowering. *)

val program_of_sources : (string * string) list -> Pta_ir.Ir.Program.t
(** [(filename, contents)] pairs; all classes are linked into one
    program. *)

val program_of_string : ?file:string -> string -> Pta_ir.Ir.Program.t
val report : Format.formatter -> exn -> bool
(** Pretty-print a frontend error; returns [false] if the exception is
    not a frontend error (caller should re-raise). *)
