(** Hash tables over one flat [int array]: open addressing, linear
    probing, a power-of-two capacity that starts small and doubles.

    Each slot is two ints.  A {e map} binds a key of one int to a value
    of one int; a {e set} holds keys of two ints and no value.  Two ids
    below [2^31] share one int through {!pack}, so a map keyed by a
    pair of ids, or a set keyed by four, stores no boxed tuple and a
    lookup allocates nothing.

    Keys must be non-negative (the first key int, for a set): [-1]
    marks an empty slot.  Iteration walks slot order, which is fixed by
    the sequence of insertions, so it is deterministic but unrelated to
    key or insertion order. *)

type t

val create_map : unit -> t
(** An empty map from one-int keys to int values. *)

val create_set : unit -> t
(** An empty set of two-int keys. *)

val pack : int -> int -> int
(** [pack a b] is one non-negative int holding both ids.
    @raise Invalid_argument unless [0 <= a, b < 2^31]. *)

val high : int -> int
(** [high (pack a b) = a]. *)

val low : int -> int
(** [low (pack a b) = b]. *)

val absent : int
(** What {!find} returns for an unbound key: [min_int], so a map may
    bind any other value, [-1] included. *)

val find : t -> int -> int
(** [find map key] is the value bound to [key], or {!absent}. *)

val add : t -> int -> int -> unit
(** [add map key value] binds [key] to [value], replacing any earlier
    binding; [add set k1 k2] inserts the key [(k1, k2)].
    @raise Invalid_argument if the (first) key int is negative. *)

val add_new : t -> int -> int -> bool
(** Like {!add}, but leaves an existing binding or key alone; [true]
    iff the key was not there before. *)

val length : t -> int

val iter : (int -> int -> unit) -> t -> unit
(** [iter f t] calls [f key value] on each binding of a map, [f k1 k2]
    on each key of a set, once each, in slot order. *)

val fold : (int -> int -> 'acc -> 'acc) -> t -> 'acc -> 'acc
