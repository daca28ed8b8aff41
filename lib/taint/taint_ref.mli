(** Reference taint engine: the same analysis as {!Taint}, written as
    ten Datalog rules over the reference implementation's solved facts.

    The taint rules need no context-constructor hooks — points-to runs
    first, so contexts arrive pre-built inside the [VarPointsTo] /
    [CallGraphEdge] / [Reachable] facts; taint is a plain monotone
    second fixpoint over them.  Both engines consume the same
    {!Flows.extract} skeleton (same cut-shortcut treatment) and the same
    compiled spec, which is what the differential suite leans on. *)

module Ir = Pta_ir.Ir
module Ctx = Pta_context.Ctx

type t

val analyze :
  Ir.Program.t -> Pta_context.Strategy.t -> Pta_refimpl.Refimpl.t ->
  Spec.compiled -> t
(** The strategy supplies the cut-shortcut plan; it must be the one the
    reference run was made with. *)

val fold_tainted : t -> (Ir.Var_id.t -> Ctx.value -> int -> 'a -> 'a) -> 'a -> 'a
(** Every [Tainted(var, ctx, label)] fact, contexts decoded. *)

val fold_sink_hits :
  t -> (Ir.Invo_id.t -> int -> Ctx.value -> int -> 'a -> 'a) -> 'a -> 'a
(** Every [SinkHit(invo, pos, caller ctx, label)] fact. *)

val flows : t -> Taint.flow list
(** Distinct context-insensitive verdicts, sorted — same encoding as
    {!Taint.flows}. *)

val summary : t -> Taint.summary
(** Engine-neutral view for the checkers (no provenance chains). *)
