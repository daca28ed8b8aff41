(** Facade: named synthetic benchmarks ready for analysis. *)

val names : string list
(** The ten DaCapo-profile benchmark names, in Table-1 order. *)

val source : Profile.t -> string
(** Benchmark source including the mini-JDK. *)

val program : Profile.t -> Pta_ir.Ir.Program.t
(** Parse the generated part of {!source}, prepend the mini-JDK's
    pre-parsed declarations ([Pta_mjdk.Mjdk.decls]) and lower the
    whole; memoized per profile name. *)

val program_by_name : string -> Pta_ir.Ir.Program.t option
