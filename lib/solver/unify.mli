(** Union-find over dense supergraph node ids, for online cycle
    elimination.

    When the solver discovers a strongly connected component of
    unfiltered copy edges, the member nodes provably reach the same
    points-to set at fixpoint, so it collapses them into one equivalence
    class and propagates through the class once.  This structure tracks
    the classes.

    Deterministic: the canonical id of a class is always its {e
    smallest} member id, independent of union order — so a fixed
    program yields a fixed canonicalization regardless of when cycles
    were detected.  The structure is one [int array]: each id links to
    a smaller member of its class, the root being the smallest.  [find]
    halves the paths it walks, so calling it on every id in ascending
    order leaves every link pointing at its root; from then until the
    next {!union}, [find] is one array read. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh structure with no live ids; [capacity] pre-sizes the arrays. *)

val ensure : t -> int -> unit
(** [ensure t n] makes ids [0 .. n-1] valid, each initially in its own
    singleton class.  Growing never disturbs existing classes. *)

val length : t -> int
(** Number of live ids. *)

val find : t -> int -> int
(** Canonical id of [i]'s class: the smallest member.  [find t i = i]
    for ids never merged.  Compresses paths as it walks. *)

val same : t -> int -> int -> bool
(** Whether two ids are in the same class. *)

val union : t -> int -> int -> int
(** Merge the two classes and return the canonical (smallest) id of the
    merged class.  A no-op returning the canonical id when the ids are
    already together. *)

val n_merged : t -> int
(** Total ids absorbed into another class so far — i.e.
    [length t - number of classes]. *)

val depth : t -> int -> int
(** Parent-chain length from [i] to its root {e without} compressing —
    a test hook for the path-compression invariant ([find] must shorten
    chains it walks). *)
