(** The mini-JDK: MJ source for the core library classes every workload
    links against — the stand-in for the JDK the paper analyzes alongside
    each DaCapo benchmark.

    It models the allocation/points-to behaviour of the classes that
    dominate real Java points-to analysis: strings and string builders,
    the collections framework (lists, maps, sets, iterators), boxed
    values, and the static utility classes whose pass-through methods
    are precisely the feature hybrid context-sensitivity targets. *)

val source : string
(** One MJ compilation unit containing the whole library: the text of
    [mjdk.mj]. *)

val decls : Pta_frontend.Ast.program
(** [source], parsed at build time: equal to
    [Pta_frontend.Frontend.parse ~file:file_name source], positions
    included.  Loading starts from these instead of parsing [source]. *)

val file_name : string
(** Pseudo file name used in error positions. *)
