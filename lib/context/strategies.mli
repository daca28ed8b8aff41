(** The named analyses: every preset is an {!Algebra} term.

    This module is a registry, not a zoo of hand-written closures — each
    analysis of the paper's Table 1 (plus the extensions, cut-shortcut
    analyses and ablations used by the experiments) is a [(name, term, description)] triple compiled
    through {!Algebra.to_strategy}.  Fact-identity of the terms against
    the paper's hand-written constructor definitions is pinned by the
    differential test suite.

    {!resolve} is the CLI entry point: it accepts either a preset name
    (["S-2obj+H"]) or an algebra expression (["selective(obj 2 1)"]). *)

type factory = Pta_ir.Ir.Program.t -> Strategy.t

type preset = { name : string; term : Algebra.t; description : string }

val presets : preset list
(** All presets, in listing order: standard analyses, uniform hybrids,
    selective hybrids, deeper-context extensions, cut-shortcut analyses,
    ablations. *)

val names : string list

val all : (string * factory) list
(** [presets] compiled to factories, same order. *)

val table1 : (string * factory) list
(** The paper's Table 1 analyses, in the paper's column order. *)

val by_name : string -> factory option
(** Exact preset-name lookup (no expression parsing; see {!resolve}). *)

val get : string -> factory
(** @raise Invalid_argument on an unknown preset name.  For tests and
    benchmarks where the name is a literal. *)

val suggest : string -> string list
(** Up to three preset names within edit distance 3 of the (case-folded)
    input, closest first — for "unknown analysis" error messages. *)

type resolve_error =
  | Unknown_name of { name : string; suggestions : string list }
      (** the input looks like a name, but no preset matches *)
  | Bad_expression of { expr : string; msg : string }
      (** the input looks like an algebra expression, but does not parse
          or validate *)

val resolve : string -> (factory, resolve_error) result
(** Preset name first, then {!Algebra.of_string}.  A resolved expression
    is named by its canonical form. *)

val class_of_alloc :
  Pta_ir.Ir.Program.t -> Pta_ir.Ir.Heap_id.t -> Pta_ir.Ir.Type_id.t
(** The paper's [CA : H -> T] — the class containing the allocation
    site, used by type-sensitive analyses (exposed for custom strategies
    written directly against {!Strategy.t}). *)
