(** A small semi-naive Datalog engine over {!Relation}s.

    Rules are positive Horn clauses over integer tuples.  Head argument
    positions may also be {e computed} by an OCaml hook over the rule's
    variable bindings — the analogue of LogicBlox constructor functions,
    which is exactly how Doop creates contexts ([Record]/[Merge]/
    [MergeStatic]).  Hooks must be deterministic and total; because
    contexts are interned tuples of bounded depth, the generated domain
    stays finite and evaluation terminates.

    Evaluation is semi-naive: each round joins every rule once per body
    atom, restricting that atom to the facts derived in the previous
    round.  No negation or stratification is needed by the points-to
    rules (they are monotone, as the paper notes). *)

type term =
  | V of int  (** rule variable, numbered from 0 *)
  | C of int  (** constant *)

type atom = { rel : Relation.t; args : term array }

type head_term =
  | Hv of int  (** copy a bound rule variable *)
  | Hc of int  (** constant *)
  | Hf of (int array -> int)
      (** computed from the full variable-binding environment *)

type head = { hrel : Relation.t; hargs : head_term array }

type rule = {
  rname : string;
  n_vars : int;
  heads : head list;
  body : atom list;  (** evaluated left to right; order affects speed only *)
}

val rule : string -> n_vars:int -> head list -> atom list -> rule

(** {1 Linting}

    Static well-formedness checks over a rule program, run before
    evaluation.  The first three kinds are {e hard} errors — the rule
    would crash or silently misbehave at runtime (the engine's own
    guard is the [invalid_arg] raised on an unbound head variable
    mid-fixpoint; the linter surfaces it at construction time instead).
    The remaining kinds are informational: [Never_fires] depends on the
    current (EDB) contents of the relations, and [Unused_relation] /
    [Duplicate_rule] flag likely-but-not-certainly-unintended program
    shapes, so callers decide whether they matter. *)

type lint_kind =
  | Unbound_head_var
      (** a head copies a variable no positive body atom binds
          (range-restriction violation) *)
  | Bad_arity  (** an atom's argument count differs from its relation's *)
  | Var_out_of_range  (** a variable index is outside [\[0, n_vars)] *)
  | Never_fires
      (** a body atom reads a relation that is empty and derived by no
          rule, so the rule cannot ever fire *)
  | Unused_relation
      (** a relation derived by some rule is read by no rule body: its
          facts are write-only — expected for an output relation,
          suspicious otherwise (reported once, on the first deriving
          rule) *)
  | Duplicate_rule
      (** a rule is structurally identical to an earlier one (same
          variable count, heads and body); rules with computed [Hf]
          head terms are never compared *)

type lint_error = {
  lint_rule : string;  (** name of the offending rule *)
  lint_kind : lint_kind;
  lint_message : string;  (** precise, human-readable explanation *)
}

val lint_is_hard : lint_kind -> bool

val lint : rule list -> lint_error list
(** Errors in program order (per rule: body arity/range, head checks,
    never-fires), followed by the program-level informational checks
    (unused relations, duplicate rules).  An empty list means the
    program is well-formed. *)

val run :
  ?budget:Pta_obs.Budget.t ->
  ?trace:Pta_obs.Trace.t ->
  rule list ->
  unit
(** Evaluate to fixpoint, mutating the relations appearing in the rules.
    Facts already present count as the initial delta.

    The same instruments the native solver takes: [budget] is ticked
    once per semi-naive round (its work probe reads the total fact
    count, so an abort payload's [nodes] field is facts derived).  Both
    default to the free null/unlimited instruments.

    With a live [trace], the engine emits a ["phase"] span for the
    fixpoint and one per round, and — per rule, per round — a
    ["rule"]-category complete span named after the rule, carrying its
    wall time and the facts it derived ([delta]).  The per-rule
    aggregates behind {!Pta_obs.Trace.profile} are exact; the engine is
    deterministic, so firing and delta counts are identical across
    identical runs.

    @raise Pta_obs.Budget.Exhausted when the budget runs out. *)
