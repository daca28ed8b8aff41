(** Bucketed integer priority queue for the solver's node worklist.

    Priorities are small non-negative ints — pseudo-topological positions
    of the copy subgraph, sources lowest — and [pop] returns an entry of
    the {e lowest} priority present, so deltas flow source→sink and each
    node tends to be visited once per change rather than once per
    wavefront.  Within a bucket entries pop LIFO (newest first), which
    keeps the hot set hot.

    Not a stable total order — it doesn't need to be: the solver's
    fixpoint is confluent, and determinism only requires that the pop
    sequence be a pure function of the push sequence, which it is. *)

type t

val create : unit -> t

val push : t -> prio:int -> int -> unit
(** Insert an entry.  Negative priorities are clamped to 0.  Duplicates
    are the caller's concern (the solver dedups with a per-node flag). *)

val pop : t -> int
(** Remove and return an entry of the lowest present priority.
    @raise Invalid_argument if the queue is empty. *)

val is_empty : t -> bool

val length : t -> int
(** O(1) — feeds the worklist-depth histogram. *)

val clear : t -> unit
(** Drop all entries (buckets are retained for reuse). *)
