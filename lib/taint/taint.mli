(** The native taint-flow pass: a second fixpoint over the exploded
    (variable, context) supergraph of a {e solved} points-to state.

    Taint is a set of source labels per node.  It propagates through
    moves and casts (unconditionally — taint tracks the reference, not
    its type), through the heap via per-(heap object, field) label sets
    keyed by the points-to abstraction, into and out of calls
    context-sensitively along the solved call-graph edges (so precision
    is exactly the active strategy's), and is cut at calls whose callee
    is a sanitizer.  Static fields are context-insensitive cells, as in
    the points-to analysis itself.

    The pass reuses the solver's difference-propagation machinery: label
    sets are {!Pta_solver.Intset.t}s, deltas are [diff2]-fused, and the
    worklist is a {!Pta_solver.Pqueue.t}.  {!Taint_ref} implements the
    same analysis as Datalog rules over the reference implementation's
    facts; the differential suite keeps the two agreeing on every
    source→sink verdict.

    Exception flow is not tracked (taint does not propagate through
    [throw]/[catch]); the limitation is shared by both engines, so
    parity holds.

    Cost: what propagation reaches.  A method's flows
    ({!Flows.iter_meth}) are extracted the first time propagation
    reaches one of its variables or invocations; call edges and
    reachable contexts are read from the solver's call-graph index
    ({!Pta_solver.Solver.iter_invo_edges} and its siblings).  No index
    over every var node is built: a store reads its base's set with
    {!Pta_solver.Solver.var_points_to}.  The loads of the reachable
    methods are walked once, the first time a heap cell is tainted, and
    a field's inverse load lookup is built by one scan of the var nodes
    the first time a cell of that field is tainted, reading only the
    sets of that field's load bases; the static loads of the reachable
    methods are walked once, the first time a static cell is tainted.
    Sink verdicts read only the call edges into sink methods.  An
    unreachable method costs the pass nothing. *)

module Ir = Pta_ir.Ir
module Ctx = Pta_context.Ctx
module Intset = Pta_solver.Intset

type t

val analyze :
  ?budget:Pta_obs.Budget.t -> Pta_solver.Solver.t -> Spec.compiled -> t
(** Run the taint fixpoint on a completed solve.  The cut-shortcut plan
    is taken from the solver's strategy, so flows match what the
    points-to engines actually wired.  [budget] (default: unlimited) is
    ticked once per worklist iteration; pass the solve's own token to
    keep counting against the same deadline.
    @raise Invalid_argument on an aborted (incomplete) solver state.
    @raise Pta_obs.Budget.Exhausted when [budget] runs out. *)

val iter_tainted : t -> (Ir.Var_id.t -> Ctx.id -> Intset.t -> unit) -> unit
(** Every tainted (variable, context) node with its label set.  Context
    ids are the solver's interning; decode with {!ctx_value}. *)

val ctx_value : t -> Ctx.id -> Ctx.value

(** One sink hit: tainted data reaching a sensitive argument position
    of a call resolving to a sink method, per caller context. *)
type hit = {
  h_invo : Ir.Invo_id.t;
  h_pos : int;  (** argument position *)
  h_ctx : Ctx.id;  (** caller context *)
  h_labels : Intset.t;  (** source labels that reach it *)
}

val sink_hits : t -> hit list
(** Sorted by (invocation, position, context). *)

(** A context-insensitive source→sink verdict — the unit the
    differential suite compares and Table 1 counts. *)
type flow = { f_label : int; f_invo : Ir.Invo_id.t; f_pos : int }

val flows : t -> flow list
(** Distinct verdicts, sorted. *)

val n_flows : t -> int

val explain_flow : t -> flow -> string list
(** A witness chain from the flow's source to the sink argument, one
    human-readable step per line (first line is the source).  Chains
    come from the pass's first-arrival provenance and are deterministic,
    but are {e not} part of the cross-engine contract (the reference
    engine reports none). *)

(** {1 Engine-neutral summary}

    What the checkers consume — producible from either engine (see
    {!Taint_ref.summary}), so [pointsto check] verdicts stay
    engine-independent. *)

type summary = {
  s_spec : Spec.compiled;
  s_tainted : Intset.t Ir.Var_id.Tbl.t;
      (** per-variable label sets, contexts collapsed *)
  s_flows : flow list;  (** as {!flows} *)
  s_explain : flow -> string list;
      (** provenance chain; [[]] when the engine records none *)
}

val summary : t -> summary
