(** Reference implementation of the analysis: the paper's Figure-2 rules
    encoded literally on the generic Datalog engine, with context
    construction as engine constructor hooks.

    Orders of magnitude slower than {!Pta_solver.Solver}, but a direct
    transcription of the declarative specification — used as the
    differential-testing oracle that the native solver must agree with on
    every program. *)

type t

val run :
  ?budget:Pta_obs.Budget.t ->
  ?trace:Pta_obs.Trace.t ->
  Pta_ir.Ir.Program.t ->
  Pta_context.Strategy.t ->
  t
(** Evaluate the reference rules, optionally under the same budget and
    trace instruments as the native solver — so the
    differential oracle is measured with the same tools.  A live [trace]
    receives per-rule complete spans from the engine (see
    {!Pta_datalog.Engine.run}).

    @raise Pta_obs.Budget.Exhausted when the budget runs out. *)

val fold_var_points_to :
  t ->
  (Pta_ir.Ir.Var_id.t ->
  Pta_context.Ctx.value ->
  Pta_ir.Ir.Heap_id.t ->
  Pta_context.Ctx.value ->
  'a ->
  'a) ->
  'a ->
  'a
(** Every [VarPointsTo(var, ctx, heap, hctx)] fact, contexts decoded. *)

val fold_call_edges :
  t ->
  (Pta_ir.Ir.Invo_id.t ->
  Pta_context.Ctx.value ->
  Pta_ir.Ir.Meth_id.t ->
  Pta_context.Ctx.value ->
  'a ->
  'a) ->
  'a ->
  'a

val fold_throw_points_to :
  t ->
  (Pta_ir.Ir.Meth_id.t ->
  Pta_context.Ctx.value ->
  Pta_ir.Ir.Heap_id.t ->
  Pta_context.Ctx.value ->
  'a ->
  'a) ->
  'a ->
  'a
(** Every [ThrowPointsTo(meth, ctx, heap, hctx)] fact. *)

val fold_reachable :
  t -> (Pta_ir.Ir.Meth_id.t -> Pta_context.Ctx.value -> 'a -> 'a) -> 'a -> 'a

val census : t -> Pta_obs.Census.t
(** A reachable-heap census of the solved EDB/IDB state: one component
    per result relation (["var-points-to"], ["call-graph"],
    ["reachable"], ["throw-points-to"]) plus ["context-tables"].  Runs
    [Gc.full_major] and walks the reachable heap — call it once after
    {!run}, never inside a timed region. *)
