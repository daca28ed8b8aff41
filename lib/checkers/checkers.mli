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

val find : string -> info option

val suggest : string -> string list
(** Up to three checker codes close to the (unknown) input, best first
    — same edit-distance scoring as
    {!Pta_context.Strategies.suggest}. *)

exception
  Unknown_checker of {
    code : string;  (** the unrecognized input *)
    suggestions : string list;  (** close matches, best first *)
    available : string list;  (** every registered code, canonical order *)
  }

val may_fail_cast : ?budget:Pta_obs.Budget.t -> Results.t -> Diagnostic.t list
(** A cast whose operand may point to an object of an incompatible type
    — the points-to-powered upgrade of {!Pta_clients.Casts}: same
    verdicts, but located at the cast's source span with each offending
    allocation site as a witness (plus its provenance chain when the
    native solver produced the result).  [budget] (unlimited by default)
    is checked once per witness.
    @raise Pta_obs.Budget.Exhausted when it runs out. *)

val null_dereference : Results.t -> Diagnostic.t list
(** A field load, field store, or virtual call whose base variable has
    an empty points-to set: every execution reaching it dereferences
    null (or the instruction is dead). *)

val dead_method : Results.t -> Diagnostic.t list
(** Methods never reached from any entry point, context-insensitively. *)

val monomorphic_call_site : Results.t -> Diagnostic.t list
(** Virtual calls with exactly one resolved target — devirtualization
    opportunities, reported as notes. *)

val tainted_sink_argument : Results.t -> Diagnostic.t list
(** Source-to-sink taint flows, one diagnostic per (sink call,
    argument position), each source label a witness; native results
    enrich witnesses with the propagation chain ([w_detail], excluded
    from differential comparison like provenance).  Empty when
    {!Results.t.taint} is [None]. *)

val sanitizer_bypassed : Results.t -> Diagnostic.t list
(** Calls to a sanitizer that discard its result while passing a
    (context-insensitively) tainted argument — the cleansed value is
    dropped, so sanitization has no effect.  Empty when
    {!Results.t.taint} is [None]. *)

val run :
  ?only:string list -> ?budget:Pta_obs.Budget.t -> Results.t -> Diagnostic.t list
(** Run the selected checkers (default: all) and return the merged
    diagnostics in {!Diagnostic.compare} order.  [budget] (unlimited by
    default) is checked before each checker and by {!may_fail_cast}, so
    a solve's deadline can bound its clients too.
    @raise Pta_obs.Budget.Exhausted when the budget runs out.
    @raise Unknown_checker on an unrecognized code in [only], carrying
    close-match suggestions and the full list of available codes. *)
