(** The context-strategy interface: the paper's three constructor
    functions, plus an optional cut-shortcut plan.

    The analysis core (both the native solver and the Datalog reference
    implementation) is written once against this interface; instantiating
    it with different [record]/[merge]/[merge_static] definitions yields
    every analysis in the paper — context-insensitive, call-site-,
    object- and type-sensitive, and all uniform/selective hybrids.
    Strategies are normally built from {!Algebra} terms; see
    {!module:Strategies} for the named presets.

    Beyond the paper's signature, [merge]/[merge_static] also receive
    the resolved callee method — presets ignore it, but it is what lets
    per-method strategies choose a context shape per callee without any
    engine changes. *)

type t = {
  name : string;  (** the paper's abbreviation, e.g. ["S-2obj+H"] *)
  description : string;
  initial_ctx : Ctx.value;
      (** context under which entry points are analyzed; [Star]-padded to
          the analysis's context shape *)
  record : heap:Pta_ir.Ir.Heap_id.t -> ctx:Ctx.value -> Ctx.value;
      (** new heap context at an allocation (paper: [Record(heap, ctx)]) *)
  merge :
    heap:Pta_ir.Ir.Heap_id.t ->
    hctx:Ctx.value ->
    invo:Pta_ir.Ir.Invo_id.t ->
    callee:Pta_ir.Ir.Meth_id.t ->
    ctx:Ctx.value ->
    Ctx.value;
      (** new callee context at a virtual call
          (paper: [Merge(heap, hctx, invo, ctx)]; [callee] is the
          dispatch-resolved method) *)
  merge_static :
    invo:Pta_ir.Ir.Invo_id.t ->
    callee:Pta_ir.Ir.Meth_id.t ->
    ctx:Ctx.value ->
    Ctx.value;
      (** new callee context at a static call
          (paper: [MergeStatic(invo, ctx)]) *)
  shortcut : Shortcut.t option;
      (** when set, both engines cut the parameter/return wiring at every
          invocation site the plan covers and thread the callee's effect
          through the caller's own context instead (see {!Shortcut}) *)
}
