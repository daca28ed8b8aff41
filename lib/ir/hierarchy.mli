(** Class-hierarchy queries: subtyping and virtual-method lookup
    (the paper's [LOOKUP] and the cast client's compatibility check).
    All queries are memoized; a handle is cheap to create and valid for
    the lifetime of the program it wraps. *)

type t

val create : Ir.Program.t -> t

val subtype : t -> sub:Ir.Type_id.t -> sup:Ir.Type_id.t -> bool
(** Reflexive-transitive subtyping over the superclass chain and
    (transitively inherited) interfaces. *)

val lookup : t -> Ir.Type_id.t -> Ir.Sig_id.t -> Ir.Meth_id.t option
(** [lookup h ty sig] resolves a virtual call with receiver class [ty]:
    the matching declaration on [ty] or the nearest superclass. *)

val supertypes : t -> Ir.Type_id.t -> Ir.Type_id.Set.t
(** All supertypes of a type, including itself. *)

val direct_subclasses : t -> Ir.Type_id.t -> Ir.Type_id.t list
