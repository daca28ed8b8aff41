(** The native points-to solver.

    A difference-propagation (semi-naive) worklist fixpoint of the
    paper's nine Datalog rules (Figure 2) over an exploded supergraph:

    - a {e var node} per (variable, context) pair holds the objects the
      variable may point to under that context
      ([VarPointsTo(var, ctx, heap, hctx)]);
    - a {e field node} per (abstract object, field) pair holds
      [FldPointsTo(baseH, baseHCtx, fld, heap, hctx)];
    - [Move]/[Cast]/parameter/return flows are edges between nodes
      ([InterProcAssign] and the move rule), casts filtering by type;
    - [Load]/[Store]/[Virtual_call] instructions attach triggers to their
      base variable's node and fire as its points-to set grows, adding
      edges and (for calls) call-graph edges, reachable-method contexts
      and receiver bindings ([Reachable], [CallGraph], this-binding);
    - context construction is delegated entirely to the
      {!Pta_context.Strategy.t} constructor functions [Record], [Merge]
      and [MergeStatic], as in the paper.

    Objects are interned (allocation site, heap context) pairs called
    {!hobj}s; points-to sets are {!Intset.t}s of hobjs. *)

type t

exception Timeout of Pta_obs.Budget.abort
(** Raised by {!solve} when the run's {!Pta_obs.Budget.t} is exhausted
    before the fixpoint — the analogue of the paper's 90-minute cutoff
    (the "-" entries of Table 1).  The payload records the elapsed
    wall-clock seconds, worklist iterations completed, and supergraph
    nodes created at abort.

    This is the same exception as {!Pta_obs.Budget.Exhausted} (an
    exception rebinding), so either name matches. *)

(** How to run the solver: the budget (deadline / cancellation token),
    the heap-field abstraction and the trace sink receiving timed spans.
    Replaces the former pile of optional arguments
    on [run]. *)
module Config : sig
  type t = {
    budget : Pta_obs.Budget.t;
        (** deadline/cancellation; {!Pta_obs.Budget.unlimited} by default *)
    field_based : bool;
        (** [false] (default): field-sensitive points-to, one cell per
            (abstract object, field) — the Doop/paper treatment.
            [true]: the classic field-based approximation, one global
            cell per field name — kept as an ablation baseline. *)
    trace : Pta_obs.Trace.t;
        (** span sink; {!Pta_obs.Trace.null} costs nothing.  A live sink
            receives ["phase"] spans for setup/fixpoint and, per
            propagation batch, a ["solver"]-category complete span named
            by edge kind ([move]/[load]/[store]/[vcall]/[scall]) whose
            [delta] is the number of objects pushed through that kind. *)
  }

  val default : t
  (** Unlimited budget, field-sensitive, no trace. *)

  val make :
    ?timeout_s:float -> ?field_based:bool -> ?trace:Pta_obs.Trace.t -> unit -> t
end

type outcome =
  | Complete of t  (** fixpoint reached; all results valid *)
  | Aborted of t * Pta_obs.Budget.abort
      (** budget exhausted mid-run.  The state is the {e partial}
          supergraph at abort: sound queries are not guaranteed and
          provenance refuses to walk it ({!is_complete} is [false]). *)

val solve_outcome :
  ?config:Config.t -> Pta_ir.Ir.Program.t -> Pta_context.Strategy.t -> outcome
(** Like {!solve}, but a budget abort returns the partial state instead
    of raising — for callers (bench harnesses, the driver) that want to
    report how far an aborted run got. *)

val solve :
  ?config:Config.t -> Pta_ir.Ir.Program.t -> Pta_context.Strategy.t -> t
(** Run the analysis to fixpoint.  Deterministic: same program and
    strategy yield identical interning and results, with or without a
    trace installed.  Starts a new {!Intset} cons table
    ({!Intset.new_table}) before its setup, so its allocation does not
    depend on earlier solves or on the GC; the points-to sets of an
    earlier solve stay valid.

    Times two phases, reported by {!phases} and as trace spans:
    ["setup"] (hierarchy and entry seeding) and ["fixpoint"] (the
    worklist).

    @raise Timeout if the configured budget is exhausted. *)

val is_complete : t -> bool
(** [true] iff the worklists drained — i.e. the state came from a
    {!Complete} outcome (or a {!solve} that returned).  [false] on the
    partial state of an {!Aborted} outcome. *)

val program : t -> Pta_ir.Ir.Program.t
val strategy : t -> Pta_context.Strategy.t
val hierarchy : t -> Pta_ir.Hierarchy.t

(** {1 Abstract objects} *)

type hobj = int
(** Interned (allocation site, heap context) pair; dense ids. *)

val hobj_heap : t -> hobj -> Pta_ir.Ir.Heap_id.t
val hobj_hctx : t -> hobj -> Pta_context.Ctx.id
val n_hobjs : t -> int

(** {1 Contexts} *)

val ctx_value : t -> Pta_context.Ctx.id -> Pta_context.Ctx.value
(** Decode a method-context id. *)

val hctx_value : t -> Pta_context.Ctx.id -> Pta_context.Ctx.value
(** Decode a heap-context id (separate interning space). *)

val n_ctxs : t -> int
val n_hctxs : t -> int

(** {1 Context-sensitive results} *)

val iter_var_points_to :
  t -> (Pta_ir.Ir.Var_id.t -> Pta_context.Ctx.id -> Intset.t -> unit) -> unit
(** Every (variable, context) node with its set of hobjs. *)

val var_points_to :
  t -> Pta_ir.Ir.Var_id.t -> Pta_context.Ctx.id -> Intset.t
(** The set {!iter_var_points_to} gives for the (variable, context)
    node, or {!Intset.empty} when the solve made no such node (a
    variable of an unreachable method, a context the method was never
    analyzed in).  One table lookup; allocates nothing. *)

val iter_throw_points_to :
  t -> (Pta_ir.Ir.Meth_id.t -> Pta_context.Ctx.id -> Intset.t -> unit) -> unit
(** [ThrowPointsTo(meth, ctx)]: the exception objects that may escape
    each analyzed method context (uncaught by any handler inside it). *)

val iter_call_edges :
  t ->
  (Pta_ir.Ir.Invo_id.t ->
  Pta_context.Ctx.id ->
  Pta_ir.Ir.Meth_id.t ->
  Pta_context.Ctx.id ->
  unit) ->
  unit
(** Context-sensitive call-graph edges, static and virtual. *)

val iter_reachable :
  t -> (Pta_ir.Ir.Meth_id.t -> Pta_context.Ctx.id -> unit) -> unit

val sensitive_vpt_size : t -> int
(** Total size of context-sensitive var-points-to — the paper's
    platform-independent complexity metric (Table 1, last column). *)

val n_var_nodes : t -> int
val n_reachable_cs : t -> int
val n_call_edges_cs : t -> int

(** {1 Run counters}

    Work measures kept by the fixpoint loop (deterministic) and the
    phase timings (wall clock), read into a {!Pta_obs.Run_stats.t}
    after the run.  The iteration count lives in the
    {!Pta_obs.Budget.t}. *)

val n_edges : t -> int
(** Flow edges attached to the supergraph. *)

val n_triggers : t -> int
(** Virtual-call, load and store trigger firings, one per object. *)

val delta_total : t -> int
(** Sum of the sizes of all processed propagation deltas. *)

val max_delta : t -> int

val sccs_collapsed : t -> int
(** Copy-edge strongly connected components collapsed by online cycle
    elimination. *)

val nodes_unified : t -> int
(** Supergraph nodes absorbed into an SCC representative: at least one
    per collapsed SCC. *)

val stale_skipped : t -> int
(** Worklist entries skipped because their node was already drained,
    or unified away, by an earlier visit. *)

val phases : t -> (string * float) list
(** Seconds spent in ["setup"] and ["fixpoint"]. *)

(** {1 Context-insensitive projections} *)

val ci_var_points_to : t -> Pta_ir.Ir.Var_id.t -> Intset.t
(** Allocation sites (as raw [Heap_id] ints) the variable may point to in
    any context.  Each distinct hobj set is projected to its heap set
    once per solver state: the first projection of a set costs time
    linear in its size plus a sort of its heaps, and is memoized in a
    table keyed by set identity.  A call then costs one lookup per
    context node of the variable plus the unions of their projections
    (free when the contexts hold the same set).  Equal answers are the
    same physical set, so two calls for one variable return [==] sets.
    The memo and a stamp array of one int per allocation site are
    counted under the census's ["memos"]. *)

type vpt_counts = {
  vars_with_objs : int;  (** variables pointing to at least one site *)
  ci_facts : int;
      (** context-insensitive var-points-to: the sum over variables of
          [Intset.cardinal (ci_var_points_to t var)] *)
  cs_facts : int;  (** context-sensitive var-points-to: {!sensitive_vpt_size} *)
}

val vpt_counts : t -> vpt_counts
(** The sizes of every variable's projection and of every var node's
    set, in one walk over the var nodes grouped by variable, without
    building a set: each of a variable's objects stamps its allocation
    site in an array of one int per site.  Equal to folding
    {!ci_var_points_to} over the program's variables, at the cost of
    one visit per context-sensitive fact (a node holding the same set
    as the variable's previous node costs nothing).  Builds the
    variable index of {!var_node_ids}. *)

val reachable_meths : t -> Pta_ir.Ir.Meth_id.Set.t
val invo_targets : t -> Pta_ir.Ir.Invo_id.t -> Pta_ir.Ir.Meth_id.Set.t
(** Resolved callee set of an invocation site (empty if unreachable). *)

val n_call_edges_ci : t -> int

(** {1 Supergraph introspection}

    Low-level access to the solver's node graph, for provenance/debug
    tooling ({!Pta_clients.Provenance}). *)

type node_id = int

type node_kind =
  | Var_node of Pta_ir.Ir.Var_id.t * Pta_context.Ctx.id
  | Fld_node of hobj * Pta_ir.Ir.Field_id.t
  | Static_fld_node of Pta_ir.Ir.Field_id.t
  | Throw_node of Pta_ir.Ir.Meth_id.t * Pta_context.Ctx.id
      (** exceptions escaping a (method, context) *)
  | Scope_node  (** anonymous try-block scope *)

val n_nodes : t -> int
val node_kind : t -> node_id -> node_kind

val node_points_to : t -> node_id -> Intset.t
(** The set of [nid]'s class: a unified node reads its representative's. *)

val canonical_node : t -> node_id -> node_id
(** The representative of [nid]'s copy-cycle equivalence class (itself
    when never unified).  Unified nodes share points-to state and
    successor lists; graph walkers should compare and index nodes by
    canonical id, while {!node_kind} stays meaningful on original ids. *)

type edge = int
(** An out-edge of the supergraph: its slot in the solver's edge arena,
    meaningful only to the solver it came from. *)

val iter_succ_edges : t -> node_id -> (edge -> node_id -> unit) -> unit
(** [iter_succ_edges t nid f] calls [f e dst] on every out-edge of
    [nid]'s class, newest first (the order {!node_succs_passing} lists
    them in).  [dst] may be a stale alias of a unified class. *)

val edge_passes : t -> edge -> hobj -> bool
(** Whether the edge's filter (a cast type, an exception handler or
    none) lets [hobj] through. *)

val node_succs_passing : t -> node_id -> hobj -> node_id list
(** Successor nodes whose connecting edge lets [hobj] through.  Returned
    ids may be stale aliases of a unified class — canonicalize with
    {!canonical_node} before using them as indices. *)

val var_node_ids : t -> Pta_ir.Ir.Var_id.t -> node_id list
(** All (var, context) nodes of a variable, in ascending node id.  The
    first call indexes every variable at once: a counting sort of the
    variable nodes into two [int] arrays (one offset per variable, one
    slot per node), counted under the census's ["memos"].  A later call
    costs O(result). *)

(** {1 Memory census} *)

val census : t -> Pta_obs.Census.t
(** A reachable-heap census of the solver state, attributing live words
    to named components — in ownership order: ["points-to-sets"] (the
    [Intset]s of every canonical node, [all] and [pending]),
    ["edge-lists"] (the four edge and trigger arenas, their per-node
    chain heads, the scope-filter table and the per-invocation call
    instructions), ["node-tables"] (the per-node set, priority and
    worklist-flag arrays, the (var, ctx), (hobj, field) and (meth, ctx)
    node tables, the static-field node array and the edge dedup set),
    ["context-tables"], ["hobj-tables"] (the (heap, hctx) table and the
    hobj attribute vectors), ["unification-forest"] (the canonical-id
    array),
    ["call-graph-facts"] (the reachable (meth, ctx) and call-edge sets),
    ["worklists"], ["memos"].  Every id-keyed table is a flat
    {!Pta_ir.Inttbl.t}, so its retained words are its slot array.  The
    census's set
    histogram is the points-to population distribution over canonical
    nodes (power-of-two buckets).

    The ["points-to-sets"] sharing factor (unshared / retained words)
    measures how much structural sharing the Patricia-tree sets achieve:
    a factor of 3 means materializing every set privately would cost 3x
    the memory actually retained.

    Runs [Gc.full_major] and walks the reachable heap — milliseconds to
    seconds on big workloads; call it once after {!solve}, never inside
    a timed region. *)
