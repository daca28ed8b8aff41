(** A combinator algebra over the paper's three context constructors.

    Instead of hand-writing a closed list of [Record]/[Merge]/
    [MergeStatic] triples, strategies are {e terms}: a base analysis
    picks an element source (call sites, receiver objects, receiver
    types) and a k-limited tuple shape with an h-deep context-sensitive
    heap; hybrid composers mirror the paper's Sections 3.1–3.2
    ([uniform], [selective_a], [selective_b]); [per_method] dispatches
    the shape per callee; [cut_shortcut] threads trivial calls around
    the context machinery entirely; and [raw] spells out an arbitrary
    constructor table element by element.

    Every term compiles to a {!Strategy.t} ({!to_strategy}); terms
    print to a small expression language ({!to_string}) whose parser
    ({!of_string}) round-trips the canonical form — the same language
    the CLI accepts as [--strategy 'selective_a(obj 1)'].  All named
    presets in {!Strategies} are terms of this algebra. *)

(** {1 Terms} *)

(** Element source of a base analysis: what [Merge] stamps onto the
    most significant context position at a virtual call. *)
type kind =
  | Kcall  (** the invocation site (call-site sensitivity) *)
  | Kobj  (** the receiver object (object sensitivity) *)
  | Ktype  (** the receiver's allocating class (type sensitivity) *)

(** One element position of a constructor-table row: how to fill one
    slot of the produced context tuple. *)
type elem =
  | Star  (** the distinguished [*] element *)
  | Site  (** the invocation site ([Merge]/[MergeStatic] only) *)
  | Recv  (** the receiver object ([Merge] only) *)
  | Recv_type  (** [CA(heap)], the receiver's class ([Merge] only) *)
  | Alloc  (** the allocation site itself ([Record] only) *)
  | Caller of int  (** the caller context's [i]-th element (0-based) *)
  | Hctx of int  (** the receiver's heap context's [i]-th element *)
  | If_site of int * elem * elem
      (** [a] when the incoming context's [i]-th element is an
          invocation site, else [b] — the paper's §6 "constructors that
          examine the context passed to them" *)

(** A compiled constructor table: tuple depth plus one element row per
    constructor.  [merge]/[merge_static] rows have exactly [depth]
    elements; [record] at most 2 (the heap-context bound). *)
type spec = {
  depth : int;
  record : elem array;
  merge : elem array;
  merge_static : elem array;
}

type t =
  | Insens
  | Base of { kind : kind; k : int; h : int }
      (** [k]-deep context (1–3) with an [h]-deep heap context (0–2) *)
  | Uniform of t  (** §3.1: every call also pushes the invocation site *)
  | Selective of t
      (** §3.2 hybrid B: allocation-site elements kept, the invocation
          site added at static calls only *)
  | Selective_a of t
      (** §3.2 hybrid A: same depth as the base; static calls replace
          the leading element with the invocation site *)
  | Per_method of { cases : (string * t) list; default : t }
      (** first glob pattern (["*"] wildcard) matching the callee's
          qualified name (["A.foo/2"]) picks the shape *)
  | Cut_shortcut of t
      (** cut-shortcut over the inner strategy: calls covered by the
          program's {!Shortcut} plan are cut (no callee context, flows
          threaded through the caller); all other calls behave as the
          inner strategy *)
  | Raw of spec  (** an explicit constructor table *)

(** {1 Constructors} *)

val insens : t
val call : ?h:int -> int -> t  (** [call ~h k]; [h] defaults to [0] *)

val obj : ?h:int -> int -> t
val typ : ?h:int -> int -> t
val uniform : t -> t
val selective_a : t -> t
val selective_b : t -> t  (** alias of {!Selective} *)

val per_method : (string * t) list -> default:t -> t
val cut_shortcut : t -> t

val raw :
  depth:int -> record:elem list -> merge:elem list -> merge_static:elem list -> t

(** Element sources, under their paper-facing names. *)

val callsite : elem  (** = {!Site} *)

val receiver_obj : elem  (** = {!Recv} *)

val receiver_type : elem  (** = {!Recv_type} *)

val alloc_site : elem  (** = {!Alloc} *)

(** {1 Validation and compilation} *)

val validate : t -> (unit, string) result
(** Structural well-formedness: depth limits (tuples of at most 3
    elements, heap contexts of at most 2 — the paper's boundedness
    argument), element/position compatibility in {!Raw} rows, composer
    restrictions (hybrid composers need an object- or type-sensitive
    base; {!Cut_shortcut} does not nest). *)

val spec_of : t -> (spec, string) result
(** The constructor table a term denotes.  Defined for every term whose
    rows do not depend on the callee (everything except {!Per_method}
    and {!Cut_shortcut}). *)

val to_strategy :
  ?name:string ->
  ?description:string ->
  Pta_ir.Ir.Program.t ->
  t ->
  (Strategy.t, string) result
(** Compile a term against a program.  [name] defaults to the canonical
    {!to_string} form, [description] to {!describe}. *)

val to_strategy_exn :
  ?name:string ->
  ?description:string ->
  Pta_ir.Ir.Program.t ->
  t ->
  Strategy.t
(** @raise Invalid_argument on a term {!validate} rejects. *)

(** {1 The expression language} *)

val to_string : t -> string
(** Canonical form, e.g. ["selective(obj 2 1)"] or
    ["raw(2, [caller 0], [site, recv], [site, caller 0])"].
    [parse (to_string t)] reconstructs [t] exactly. *)

val parse : string -> (t, string) result
(** Syntax only; accepts the canonical forms plus the
    [selective_b(...)] spelling of {!Selective}. *)

val of_string : string -> (t, string) result
(** [parse] followed by {!validate}. *)

val describe : t -> string
(** One-line human description, used as the default strategy
    description and by [pointsto strategies]. *)

val glob_match : string -> string -> bool
(** [glob_match pat s]: does [s] match [pat], where ['*'] in [pat]
    stands for any (possibly empty) substring?  The matching used by
    {!Per_method} dispatch over qualified method names (["A.foo/2"]);
    exposed for other pattern languages over method names (the taint
    spec reuses it). *)

val equal : t -> t -> bool
