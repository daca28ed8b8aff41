(** Immutable sets of non-negative integers as big-endian Patricia trees
    (Okasaki & Gill).  The solver's points-to sets: persistent, with
    cheap unions of mostly-shared sets and canonical structure.

    The sets are hash-consed through one strong cons table, which
    {!new_table} replaces at the start of every solve: two equal sets
    built since the same {!new_table} are the same physical value, so a
    set costs memory once however many contexts hold it, and {!equal}
    is one pointer test.  The table keeps every node until the next
    {!new_table}.  A set kept from an earlier solve stays valid and
    {!equal} to the same set built later, but not [(==)] to it.  Each
    node carries a hash computed from its elements, never a counter, so
    nothing about a set depends on allocation order or GC timing.  Key
    tables by {!hash} and {!equal} ([Hashtbl.Make (Intset)]);
    polymorphic [compare], [(=)] and [Hashtbl.hash] still work but walk
    the tree.  The cons table is not domain-safe: build sets from one
    domain at a time.

    All elements must be non-negative; operations raise
    [Invalid_argument] otherwise. *)

type t

val empty : t
val is_empty : t -> bool
val singleton : int -> t
val mem : int -> t -> bool
val add : int -> t -> t
val remove : int -> t -> t
val union : t -> t -> t

val union_stats : t -> t -> t * bool
(** [union_stats s t] is [(union s t, grew)] where [grew] reports
    whether the union is a strict superset of [s] (i.e. [t] is not a
    subset of [s]).  When [grew] is [false], the returned set is [s]
    itself (physical equality), also when [t] comes from another
    solve. *)

val inter : t -> t -> t
val diff : t -> t -> t

val diff2 : t -> t -> t -> t
(** [diff2 s a b] is [diff (diff s a) b] computed in one fused pass over
    [s], never materializing the intermediate set — the solver's
    difference-propagation path ([incoming \ all \ pending]). *)

val cardinal : t -> int

(** Physical-equality short-circuits apply at every recursion step, not
    just the root: shared subtrees are never descended. *)
val subset : t -> t -> bool

val equal : t -> t -> bool
(** Physical equality within one table; across tables, a structural
    walk once the hashes agree. *)

val hash : t -> int
(** A hash consistent with {!equal}, read off the root in O(1): the
    element for a singleton, a mix of the children's hashes otherwise.
    A function of the elements alone, so the same in every run. *)

val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val exists : (int -> bool) -> t -> bool
val for_all : (int -> bool) -> t -> bool
val filter : (int -> bool) -> t -> t
(** Visits elements in increasing order; returns its argument itself
    when the predicate keeps every element. *)

val elements : t -> int list
(** In increasing order. *)

val of_list : int list -> t

val of_sorted_array : int array -> t
(** The set of a strictly increasing array, built with one node per
    split and no intermediate sets.
    @raise Invalid_argument if the array is not strictly increasing. *)

val choose_opt : t -> int option

val new_table : unit -> unit
(** Start an empty cons table, dropping the old one; [Solver.solve]
    calls it before each solve's setup. *)
