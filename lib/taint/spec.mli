(** The taint specification language: which methods introduce, consume
    and neutralize tainted values.

    A spec is a small line-based text format — one directive per line,
    [#] comments, blank lines ignored:

    {v
    source    <glob> ret          # the method's return value is tainted
    source    <glob> param <i>    # its i-th formal (0-based) is tainted
    sink      <glob> arg <i|*>    # flowing into argument i (or any) is a hit
    sanitizer <glob>              # calls to it neutralize taint
    v}

    Globs use the same matching as {!Pta_context.Algebra.per_method}
    dispatch (['*'] = any substring) over qualified method names
    (["A.foo/2"]).

    Compiling a spec against a program resolves the globs to concrete
    methods and assigns each matched source position a dense integer
    {e label} in a deterministic order (method id, then position), so
    flow sets are comparable across engines and runs. *)

module Ir = Pta_ir.Ir

(** Where a source introduces taint. *)
type position =
  | Ret  (** the method's return value *)
  | Param of int  (** the method's [i]-th formal, 0-based *)

(** Which argument positions of a sink method are sensitive. *)
type sink_pos =
  | Arg of int  (** the [i]-th argument, 0-based *)
  | Any_arg  (** every argument *)

type entry =
  | Source of { glob : string; pos : position }
  | Sink of { glob : string; pos : sink_pos }
  | Sanitizer of { glob : string }

type t = entry list

val parse : string -> (t, string) result
(** Parse the text of a spec file.  The error carries a line number. *)

val load : string -> (t, string) result
(** [parse] over a file's contents; [Error] on IO failure too. *)

val to_string : t -> string
(** Render back to the file format (one directive per line). *)

val default : t
(** The built-in convention used by the workload generator and the
    examples: [source *.fetch/* ret], [sink *.leak/* arg *],
    [sanitizer *.scrub/*]. *)

(** {1 Compilation against a program} *)

(** One concrete source position with its assigned label. *)
type source = {
  src_label : int;  (** dense, deterministic *)
  src_meth : Ir.Meth_id.t;
  src_pos : position;
}

type compiled

val compile : Ir.Program.t -> t -> compiled

val sources : compiled -> source list
(** In label order (labels are [0 .. n_sources - 1]). *)

val n_sources : compiled -> int

val source_var : Ir.Program.t -> source -> Ir.Var_id.t option
(** The variable a source seeds: the method's return variable ([Ret],
    [None] for void methods) or its [i]-th formal ([None] when out of
    range). *)

val label_name : compiled -> int -> string
(** Human name of a label, e.g. ["Taint.fetch/0 ret"]. *)

val sink_positions : compiled -> Ir.Meth_id.t -> int list
(** Sensitive argument positions of a method (empty = not a sink);
    [Any_arg] expanded to [0 .. arity - 1], sorted, deduplicated. *)

val is_sanitizer : compiled -> Ir.Meth_id.t -> bool

val sink_meths : compiled -> Ir.Meth_id.t list
(** Methods with at least one sensitive position, in id order. *)
