(** Cast-safety client: a cast [(T) x] in a reachable method {e may fail}
    when the analysis cannot prove every object [x] points to is
    compatible with [T] — the paper's headline precision metric. *)

type verdict =
  | Safe
  | May_fail of Pta_ir.Ir.Heap_id.t list
      (** witnesses: incompatible allocation sites that may reach the
          operand *)

type site = {
  in_meth : Pta_ir.Ir.Meth_id.t;
  cast_type : Pta_ir.Ir.Type_id.t;
  source : Pta_ir.Ir.Var_id.t;
  verdict : verdict;
}

val incompatible :
  Pta_ir.Ir.Program.t ->
  Pta_ir.Hierarchy.t ->
  cast_type:Pta_ir.Ir.Type_id.t ->
  Pta_solver.Intset.t ->
  Pta_ir.Ir.Heap_id.t list
(** [incompatible program hierarchy ~cast_type heaps]: the heap ids in
    [heaps] whose allocated type is not a subtype of [cast_type], in
    ascending order — the witnesses that a cast to [cast_type] of an
    operand pointing to [heaps] may fail. *)

val analyze : Pta_solver.Solver.t -> site list
(** All casts in context-insensitively reachable methods, deterministic
    order. *)

val may_fail_count : site list -> int
