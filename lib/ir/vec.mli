(** Growable vectors, used by the interning tables and the program
    builder.  A thin, allocation-conscious wrapper over [array]. *)

type 'a t

val create : unit -> 'a t

(** [push v x] appends [x] and returns its index. *)
val push : 'a t -> 'a -> int

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

(** [truncate v n] drops the elements from index [n] on.  The array
    keeps its capacity (and references to the dropped elements until they
    are overwritten). *)
val truncate : 'a t -> int -> unit

val length : 'a t -> int
val is_empty : 'a t -> bool
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val exists : ('a -> bool) -> 'a t -> bool
val to_array : 'a t -> 'a array

(** [Array.map f (to_array v)], applying [f] in index order, without
    the minor collection [Array.map] forces when its result outgrows the
    minor heap's largest block while [f]'s first result is still
    young. *)
val map_to_array : ('a -> 'b) -> 'a t -> 'b array
val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t
