(** Cut-shortcut plans: threading data flow {e around} calls to trivial
    methods instead of cloning contexts for them (Ma et al., "Context
    Sensitivity without Contexts").

    A method is {e summarizable} when its entire effect on caller-visible
    state is a finite list of direct flows between the call's receiver,
    arguments and return target: getters ([return this.f]), setters
    ([this.f = x]), identities/forwarders ([return x]), [return this]
    fluent chains, and straight-line combinations of these.  For a call
    site whose every possible callee has the same summary, the engines
    can {e cut} the parameter/return flow through the callee and
    {e shortcut} it with equivalent move/load/store flows in the caller's
    own context — the precision of inlining, without manufacturing any
    callee contexts.

    The plan is computed once per program, from the IR alone; both
    engines consume the same plan, which is what keeps the native solver
    and the Datalog reference fact-identical under shortcut strategies.

    Soundness caveat (as in the source paper): facts {e inside} a
    summarized method (its formals, locals and return variable) are
    deliberately under-approximated — every caller-visible effect is
    replicated at the call site, but the callee's own variables no
    longer receive the cut flows.  {!summarized} exposes the affected
    methods so clients (e.g. the interpreter-soundness test) can scope
    their claims to caller-visible facts. *)

(** Where a shortcut flow reads from, relative to the call site. *)
type arg =
  | This  (** the receiver ([base] of a virtual call) *)
  | Param of int  (** the [i]-th actual argument *)

(** One caller-side flow replacing the callee's effect. *)
type item =
  | Copy_ret of arg  (** [ret = this] / [ret = arg_i] *)
  | Load_ret of Pta_ir.Ir.Field_id.t  (** [ret = this.f] *)
  | Store_field of Pta_ir.Ir.Field_id.t * arg  (** [this.f = this|arg_i] *)

type t

val compute : Pta_ir.Ir.Program.t -> t
(** Summarize every summarizable method and resolve, per invocation
    site, whether the call can be cut: a static call iff its callee has
    a summary; a virtual call iff {e every} method its signature can
    dispatch to (over all classes) has the same summary. *)

val action : t -> Pta_ir.Ir.Invo_id.t -> item list option
(** [Some items] when the call site is cut: the engines suppress the
    parameter and return wiring for this invocation and apply [items] in
    the caller's context instead (items mentioning a missing return
    target are dropped at application).  [None]: wire the call
    normally. *)

val summarized : t -> Pta_ir.Ir.Meth_id.Set.t
(** The methods whose calls may be cut somewhere — the scope of the
    under-approximation described above. *)

