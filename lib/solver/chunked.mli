(** Growable arrays kept in fixed-size chunks of 1024 entries.  Growing
    adds a chunk and copies no entry, so an array never holds more than
    one chunk of unused slots and never exists twice while it grows: the
    solver's per-node state and its edge and trigger arenas live in
    these.

    An entry is [stride] consecutive elements (one by default), read and
    written by entry index and field. *)

type 'a t

val create : ?stride:int -> 'a -> 'a t
(** An empty array whose new slots hold the given value. *)

val length : 'a t -> int
(** Entries appended so far. *)

val extend : 'a t -> int
(** Append one entry of fill values; returns its index. *)

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
(** Field 0 of an entry. *)

val field : 'a t -> int -> int -> 'a
(** [field t i f] is field [f] of entry [i]. *)

val set_field : 'a t -> int -> int -> 'a -> unit
