(** Cast safety, the paper's headline precision metric: a cast [(T) x]
    in a reachable method {e may fail} when the analysis cannot prove
    every object [x] points to is compatible with [T].  {!Metrics}
    counts such casts and the [may-fail-cast] checker reports them. *)

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
