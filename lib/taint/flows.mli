(** The taint-relevant data-flow skeleton of a program, extracted once
    and shared by both taint engines.

    This is the instruction walk of the Datalog reference's EDB builder,
    restricted to the relations taint cares about and respecting the
    same cut-shortcut plan: at a cut invocation site the parameter and
    return wiring disappears and the plan's items are injected as plain
    caller-side copy/load/store flows — exactly what
    {!Pta_refimpl.Refimpl.run} does, which is what keeps the two taint
    engines fact-identical under shortcut strategies.

    All ids are raw [int]s ({!Pta_ir.Ir.Id.S.to_int}) so the lists can
    feed Datalog relations directly. *)

type t = {
  copies : (int * int) list;  (** (dst, src): moves, casts, cut [Copy_ret] *)
  loads : (int * int * int) list;  (** (dst, base, field), incl. cut [Load_ret] *)
  stores : (int * int * int) list;
      (** (base, field, src), incl. cut [Store_field] *)
  sloads : (int * int * int) list;  (** (dst, field, owner meth) *)
  sstores : (int * int) list;  (** (field, src) *)
  args : (int * int * int) list;
      (** (invo, pos, actual) at non-cut call sites *)
  this_args : (int * int) list;
      (** (invo, receiver) at non-cut virtual call sites *)
  rets : (int * int) list;  (** (invo, ret target) at non-cut call sites *)
  sink_args : (int * int * int) list;
      (** (invo, pos, actual) at {e every} call site, cut or not — sink
          verdicts are judged against the syntactic arguments, so cutting
          a call cannot hide a flow into it *)
}

val extract : Pta_ir.Ir.Program.t -> plan:Pta_context.Shortcut.t option -> t
(** Lists are in program iteration order (deterministic): {!iter_meth}
    over every method, in method id order. *)

(** {1 One method at a time} *)

(** What {!iter_meth} calls on each flow, with the arguments of the
    matching {!t} tuple ([sload] without the owner method, which is the
    method walked). *)
type handler = {
  copy : int -> int -> unit;  (** dst, src *)
  load : int -> int -> int -> unit;  (** dst, base, field *)
  store : int -> int -> int -> unit;  (** base, field, src *)
  sload : int -> int -> unit;  (** dst, field *)
  sstore : int -> int -> unit;  (** field, src *)
  arg : int -> int -> int -> unit;  (** invo, pos, actual *)
  this_arg : int -> int -> unit;  (** invo, receiver *)
  ret : int -> int -> unit;  (** invo, ret target *)
  sink_arg : int -> int -> int -> unit;  (** invo, pos, actual *)
}

val nothing : handler
(** Ignores every flow; override the fields a walk needs. *)

val iter_meth :
  Pta_ir.Ir.Program.t ->
  plan:Pta_context.Shortcut.t option ->
  handler ->
  Pta_ir.Ir.Meth_id.t ->
  unit
(** The flows of one method's body, in instruction order.  Every
    variable and invocation a flow names belongs to that method (a cut
    site's items read the caller's base, arguments and return target),
    so the flows keyed by one variable or invocation all come from the
    walk of its owner. *)
