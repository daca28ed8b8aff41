(** Context values and their interning.

    A context (or heap context) is a bounded tuple of {!elem}s — the
    paper's [C] and [HC] sets are products/unions over allocation sites
    ([Heap]), invocation sites ([Invo]), class types ([Type]) and the
    distinguished [Star] element.  The paper's [pair]/[triple]
    constructors correspond to 2- and 3-element tuples here; hybrid
    analyses freely mix element kinds within one tuple.

    Tuples are interned per {!store}, so the analysis manipulates dense
    integer {!id}s. *)

type elem =
  | Star
  | Heap of Pta_ir.Ir.Heap_id.t
  | Invo of Pta_ir.Ir.Invo_id.t
  | Type of Pta_ir.Ir.Type_id.t

val elem_equal : elem -> elem -> bool

type value = elem array

val value_equal : value -> value -> bool
val value_hash : value -> int

(** Interned context identifier (dense, per-store). *)
type id = int

type store

val create_store : unit -> store
val intern : store -> value -> id
val value : store -> id -> value
val size : store -> int

val value_to_string : Pta_ir.Ir.Program.t -> value -> string
(** ["[e1, e2, ...]"], built without [Format]. *)

val pp_value : Pta_ir.Ir.Program.t -> Format.formatter -> value -> unit
(** Prints {!value_to_string}. *)

(** Accessors mirroring the paper's [first]/[second]/[third]; total
    functions returning [Star] past the end of the tuple, so strategies
    stay robust for the [Star]-padded initial contexts. *)

val first : value -> elem
val second : value -> elem
val third : value -> elem
