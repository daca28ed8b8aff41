(** Exception-flow client: which exception objects may escape each
    method, and which may escape the program entirely (reach an entry
    point uncaught) — the information an IDE uses for "undeclared
    thrown exception" warnings. *)

type escape = {
  meth : Pta_ir.Ir.Meth_id.t;
  exceptions : Pta_ir.Ir.Heap_id.t list;
      (** allocation sites of exceptions escaping [meth] in some
          context, deduplicated, in id order *)
}

val escapes : Pta_solver.Solver.t -> escape list
(** Per-method escaping exceptions, methods with none omitted. *)

val uncaught_at_entries :
  Pta_solver.Solver.t -> escape list -> Pta_ir.Ir.Heap_id.t list
(** [uncaught_at_entries solver escapes], where [escapes] is
    [escapes solver]: exception allocation sites that may propagate out
    of an entry point (crash the program), in id order. *)
