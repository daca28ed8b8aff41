(** Provenance: explain {e why} the analysis thinks a variable may point
    to an allocation site, as a witness chain through the solver's
    supergraph — from a node where the abstract object first appears
    (its allocation, a receiver binding, or a caught exception) to the
    queried variable.

    This is debug tooling in the spirit of Doop's provenance queries: the
    chain is one shortest derivation, not all of them. *)

type step = {
  description : string;  (** human-readable node description *)
  is_origin : bool;  (** true on the first step *)
}

type t
(** A provenance session over one solved state.  Its indexes are built
    lazily, once, and shared by every later query:
    - on the first query, one pass over the abstract objects maps each
      allocation site to its objects;
    - on the first query whose pair is a points-to fact, one pass over
      every out-edge of the canonical nodes builds the reverse
      adjacency;
    - per allocation site, the predecessor list of each node a walk
      visits, read off the reverse adjacency on the first visit and
      kept for the session's later queries on the same site;
    - the description of each node a chain names, and of each context.

    A query then costs a breadth-first walk over the nodes it visits.
    Its state is one node-indexed array per session, reset entry by
    entry, so no query pays in proportion to the whole supergraph.
    A session holds the indexes it built until it is dropped; open one
    per batch of queries (a checker run, a [pointsto why]). *)

val create : ?budget:Pta_obs.Budget.t -> Pta_solver.Solver.t -> t
(** [create ?budget solver] opens a session; it builds nothing yet.
    The index builds poll [budget] (default: unlimited) every few
    thousand nodes, so a deadline or cancellation raises
    {!Pta_obs.Budget.Exhausted} from inside a query. *)

val explain :
  t -> var:Pta_ir.Ir.Var_id.t -> heap:Pta_ir.Ir.Heap_id.t -> step list option
(** [explain t ~var ~heap] returns a forward witness chain ending at
    one of [var]'s contexts, or [None] if the analysis does not compute
    [var] pointing to [heap].  The chain depends only on the solved
    state, not on the session's earlier queries.

    @raise Invalid_argument if the solver state is the partial result of
    an aborted (budget-exhausted) run — see
    {!Pta_solver.Solver.is_complete}; a partially-populated supergraph
    cannot support trustworthy witness chains.
    @raise Pta_obs.Budget.Exhausted if the session's budget runs out
    while an index is being built. *)

val pp_chain : Format.formatter -> step list -> unit
