(** Extensional/intensional relations over integer tuples, with
    on-demand hash indexes.

    A relation has a fixed arity; facts are [int array]s of that length.
    Indexes are built lazily per bound-position pattern and maintained
    incrementally, so join evaluation never scans a whole relation when a
    selective binding is available. *)

type t

val create : name:string -> arity:int -> t
val name : t -> string
val arity : t -> int

val add : t -> int array -> bool
(** [add r fact] returns [true] iff the fact was new.  The array is not
    copied; callers must not mutate it afterwards. *)

val mem : t -> int array -> bool
val cardinal : t -> int
val iter : (int array -> unit) -> t -> unit
val fold : (int array -> 'a -> 'a) -> t -> 'a -> 'a

val select : t -> pattern:int array -> (int array -> unit) -> unit
(** [select r ~pattern f] calls [f] on every fact matching [pattern],
    where [-1] marks a wildcard position.  Uses (and builds, on first
    use) an index on the bound positions. *)

val nth : t -> int -> int array
(** Facts are numbered densely in insertion order; used by the engine's
    delta windows. *)
