(** The checkers: each turns solved points-to state into diagnostics.

    All checkers run over {!Results.t}, so their verdicts are identical
    whichever engine produced the fixpoint.  Witness {e detail} (the
    provenance chains) is the one solver-only enrichment, kept in
    {!Diagnostic.witness.w_detail} so differential comparisons can
    ignore it. *)

type info = {
  code : string;  (** stable id; also the SARIF rule id *)
  summary : string;  (** one-line description (SARIF shortDescription) *)
  help : string;  (** what the finding means and what to do about it *)
  severity : Diagnostic.severity;
}

val all : info list
(** Every registered checker, in canonical order:
    may-fail-cast, null-dereference, dead-method, monomorphic-call-site,
    tainted-sink-argument, sanitizer-bypassed. *)

exception
  Unknown_checker of {
    code : string;  (** the unrecognized input *)
    suggestions : string list;  (** close matches, best first *)
    available : string list;  (** every registered code, canonical order *)
  }

val may_fail_cast : ?budget:Pta_obs.Budget.t -> Results.t -> Diagnostic.t list
(** A cast whose operand may point to an object of an incompatible type
    ({!Pta_clients.Casts.incompatible}, the same test behind
    {!Pta_clients.Metrics.t.may_fail_casts}), located at the cast's
    source span with each offending allocation site as a witness (plus
    its provenance chain when the native solver produced the result).
    [budget] (unlimited by default) is checked once per witness.
    @raise Pta_obs.Budget.Exhausted when it runs out. *)

val run :
  ?only:string list -> ?budget:Pta_obs.Budget.t -> Results.t -> Diagnostic.t list
(** Run the selected checkers (default: all) and return the merged
    diagnostics in {!Diagnostic.compare} order.  [budget] (unlimited by
    default) is checked before each checker and by {!may_fail_cast}, so
    a solve's deadline can bound its clients too.
    @raise Pta_obs.Budget.Exhausted when the budget runs out.
    @raise Unknown_checker on an unrecognized code in [only], carrying
    close-match suggestions and the full list of available codes. *)
