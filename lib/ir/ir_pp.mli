(** Human-readable printing of IR programs. *)

val pp_program : Format.formatter -> Ir.Program.t -> unit
