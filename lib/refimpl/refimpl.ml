module Ir = Pta_ir.Ir
module Hierarchy = Pta_ir.Hierarchy
module Ctx = Pta_context.Ctx
module Strategy = Pta_context.Strategy
module Shortcut = Pta_context.Shortcut
module Relation = Pta_datalog.Relation
module Engine = Pta_datalog.Engine
open Ir
open Engine

type t = {
  vpt : Relation.t;
  cg : Relation.t;
  reach : Relation.t;
  throwpt : Relation.t;
  ctx_store : Ctx.store;
  hctx_store : Ctx.store;
}

(* Populate the extensional database from the program: the input
   relations of the paper's Figure 1 (plus CAST/SUBTYPE for the cast
   rule, and LOOKUP/SUBTYPE precomputed from the class hierarchy).

   Under a cut-shortcut [plan], calls at cut sites keep their VCall/SCall
   facts (call-graph edge, reachability, [this] binding) but lose their
   ActualArg/ActualRet facts; instead the plan's caller-side items are
   injected as ordinary Move/Load/Store facts on the call's own
   variables — literally the relations the equivalent instructions would
   populate, which keeps this engine fact-identical to the native
   solver's cut handling. *)
let build_edb ~plan program =
  let rel name arity = Relation.create ~name ~arity in
  let alloc = rel "Alloc" 3 in
  let move = rel "Move" 2 in
  let cast = rel "Cast" 3 in
  let load = rel "Load" 3 in
  let store = rel "Store" 3 in
  let vcall = rel "VCall" 4 in
  let scall = rel "SCall" 3 in
  let formal_arg = rel "FormalArg" 3 in
  let actual_arg = rel "ActualArg" 3 in
  let formal_ret = rel "FormalRet" 2 in
  let actual_ret = rel "ActualRet" 2 in
  let this_var = rel "ThisVar" 2 in
  let sload = rel "StaticLoad" 3 in
  let sstore = rel "StaticStore" 2 in
  let heap_type = rel "HeapType" 2 in
  let lookup = rel "Lookup" 3 in
  let subtype = rel "Subtype" 2 in
  (* Exception scopes: every method has a root scope; every [Try] block a
     scope whose parent is its enclosing scope.  Handler dispatch is
     precomputed per concrete type, so the rules stay positive. *)
  let throw_in = rel "ThrowIn" 2 in  (* (scope, var) *)
  let call_scope = rel "CallScope" 2 in  (* (invo, scope) *)
  let catches = rel "Catches" 3 in  (* (scope, heap type, catch var) *)
  let escapes_scope = rel "EscapesScope" 2 in  (* (scope, heap type) *)
  let scope_parent = rel "ScopeParent" 2 in
  let root_scope = rel "RootScope" 2 in  (* (scope, meth) *)
  let add r fact = ignore (Relation.add r fact) in
  let hierarchy = Hierarchy.create program in
  let next_scope = ref 0 in
  let fresh_scope () =
    let s = !next_scope in
    incr next_scope;
    s
  in
  let all_class_types =
    List.init (Program.n_types program) Type_id.of_int
  in
  let cut_action invo =
    match plan with
    | None -> None
    | Some plan -> Shortcut.action plan invo
  in
  (* Inject one cut item as the equivalent caller-side instruction
     facts.  [base] is the receiver variable ([None] at static call
     sites, whose summaries cannot mention [this]). *)
  let add_cut_item ~base ~args ~ret_target item =
    let arg_var = function
      | Shortcut.This -> base
      | Shortcut.Param i -> List.nth_opt args i
    in
    match item with
    | Shortcut.Copy_ret arg -> (
      match (ret_target, arg_var arg) with
      | Some ret, Some src ->
        add move [| Var_id.to_int ret; Var_id.to_int src |]
      | _ -> ())
    | Shortcut.Load_ret field -> (
      match (ret_target, base) with
      | Some ret, Some b ->
        add load
          [| Var_id.to_int ret; Var_id.to_int b; Field_id.to_int field |]
      | _ -> ())
    | Shortcut.Store_field (field, arg) -> (
      match (base, arg_var arg) with
      | Some b, Some src ->
        add store
          [| Var_id.to_int b; Field_id.to_int field; Var_id.to_int src |]
      | _ -> ())
  in
  Program.iter_meths program (fun meth mi ->
      let m = Meth_id.to_int meth in
      Array.iteri
        (fun i formal -> add formal_arg [| m; i; Var_id.to_int formal |])
        mi.formals;
      (match mi.ret_var with
      | Some v -> add formal_ret [| m; Var_id.to_int v |]
      | None -> ());
      (match mi.this_var with
      | Some v -> add this_var [| m; Var_id.to_int v |]
      | None -> ());
      let root = fresh_scope () in
      add root_scope [| root; m |];
      let rec walk scope code =
        match code with
        | Instr instr -> walk_instr scope instr
        | Seq cs -> List.iter (walk scope) cs
        | Branch (a, b) ->
          walk scope a;
          walk scope b
        | Loop c -> walk scope c
        | Try (body, handlers) ->
          let inner = fresh_scope () in
          add scope_parent [| inner; scope |];
          (* Precompute, per concrete type, the first matching handler
             (or that none matches). *)
          List.iter
            (fun ty ->
              let rec dispatch = function
                | [] -> add escapes_scope [| inner; Type_id.to_int ty |]
                | h :: rest ->
                  if Hierarchy.subtype hierarchy ~sub:ty ~sup:h.catch_type then
                    add catches
                      [| inner; Type_id.to_int ty; Var_id.to_int h.catch_var |]
                  else dispatch rest
              in
              dispatch handlers)
            all_class_types;
          walk inner body;
          List.iter (fun h -> walk scope h.handler_body) handlers
      and walk_instr scope instr =
        (match instr with
        | Throw { source } -> add throw_in [| scope; Var_id.to_int source |]
        | Virtual_call { invo; _ } | Static_call { invo; _ } ->
          add call_scope [| Invo_id.to_int invo; scope |]
        | Alloc _ | Move _ | Cast _ | Load _ | Store _ | Static_load _
        | Static_store _ -> ());
        match instr with
          | Alloc { target; heap } ->
            add alloc [| Var_id.to_int target; Heap_id.to_int heap; m |]
          | Move { target; source } ->
            add move [| Var_id.to_int target; Var_id.to_int source |]
          | Cast { target; source; cast_type } ->
            add cast
              [| Var_id.to_int target; Var_id.to_int source; Type_id.to_int cast_type |]
          | Load { target; base; field } ->
            add load
              [| Var_id.to_int target; Var_id.to_int base; Field_id.to_int field |]
          | Store { base; field; source } ->
            add store
              [| Var_id.to_int base; Field_id.to_int field; Var_id.to_int source |]
          | Virtual_call { base; signature; invo; args; ret_target } -> (
            add vcall
              [|
                Var_id.to_int base;
                Sig_id.to_int signature;
                Invo_id.to_int invo;
                m;
              |];
            match cut_action invo with
            | Some items ->
              List.iter
                (add_cut_item ~base:(Some base) ~args ~ret_target)
                items
            | None ->
              List.iteri
                (fun i arg ->
                  add actual_arg [| Invo_id.to_int invo; i; Var_id.to_int arg |])
                args;
              Option.iter
                (fun v ->
                  add actual_ret [| Invo_id.to_int invo; Var_id.to_int v |])
                ret_target)
          | Static_call { callee; invo; args; ret_target } -> (
            add scall [| Meth_id.to_int callee; Invo_id.to_int invo; m |];
            match cut_action invo with
            | Some items ->
              List.iter (add_cut_item ~base:None ~args ~ret_target) items
            | None ->
              List.iteri
                (fun i arg ->
                  add actual_arg [| Invo_id.to_int invo; i; Var_id.to_int arg |])
                args;
              Option.iter
                (fun v ->
                  add actual_ret [| Invo_id.to_int invo; Var_id.to_int v |])
                ret_target)
          | Static_load { target; field } ->
            add sload [| Var_id.to_int target; Field_id.to_int field; m |]
          | Static_store { field; source } ->
            add sstore [| Field_id.to_int field; Var_id.to_int source |]
          | Throw _ -> ()
      in
      walk root mi.body);
  Program.iter_heaps program (fun heap hi ->
      add heap_type [| Heap_id.to_int heap; Type_id.to_int hi.heap_type |]);
  Program.iter_types program (fun ty _ ->
      (* Subtype: reflexive-transitive. *)
      Type_id.Set.iter
        (fun sup -> add subtype [| Type_id.to_int ty; Type_id.to_int sup |])
        (Hierarchy.supertypes hierarchy ty);
      (* Lookup, for every signature; static targets are excluded, as a
         virtual call never dispatches to them. *)
      for s = 0 to Program.n_sigs program - 1 do
        match Hierarchy.lookup hierarchy ty (Sig_id.of_int s) with
        | Some m when not (Program.meth_info program m).meth_static ->
          add lookup [| Type_id.to_int ty; s; Meth_id.to_int m |]
        | Some _ | None -> ()
      done);
  ( alloc,
    move,
    cast,
    load,
    store,
    sload,
    sstore,
    vcall,
    scall,
    formal_arg,
    actual_arg,
    formal_ret,
    actual_ret,
    this_var,
    heap_type,
    lookup,
    subtype,
    (throw_in, call_scope, catches, escapes_scope, scope_parent, root_scope) )

let run ?budget ?trace program (strategy : Strategy.t) =
  let ( alloc,
        move,
        cast,
        load,
        store,
        sload,
        sstore,
        vcall,
        scall,
        formal_arg,
        actual_arg,
        formal_ret,
        actual_ret,
        this_var,
        heap_type,
        lookup,
        subtype,
        (throw_in, call_scope, catches, escapes_scope, scope_parent, root_scope) ) =
    build_edb ~plan:strategy.Strategy.shortcut program
  in
  let vpt = Relation.create ~name:"VarPointsTo" ~arity:4 in
  let sfpt = Relation.create ~name:"StaticFldPointsTo" ~arity:3 in
  let thrown = Relation.create ~name:"ThrownInScope" ~arity:4 in
  let throwpt = Relation.create ~name:"ThrowPointsTo" ~arity:4 in
  let fpt = Relation.create ~name:"FldPointsTo" ~arity:5 in
  let cg = Relation.create ~name:"CallGraph" ~arity:4 in
  let interproc = Relation.create ~name:"InterProcAssign" ~arity:4 in
  let reach = Relation.create ~name:"Reachable" ~arity:2 in
  let ctx_store = Ctx.create_store () in
  let hctx_store = Ctx.create_store () in
  let record_hook ~heap_v ~ctx_v env =
    Ctx.intern hctx_store
      (strategy.Strategy.record
         ~heap:(Heap_id.of_int env.(heap_v))
         ~ctx:(Ctx.value ctx_store env.(ctx_v)))
  in
  let merge_hook ~heap_v ~hctx_v ~invo_v ~callee_v ~ctx_v env =
    Ctx.intern ctx_store
      (strategy.Strategy.merge
         ~heap:(Heap_id.of_int env.(heap_v))
         ~hctx:(Ctx.value hctx_store env.(hctx_v))
         ~invo:(Invo_id.of_int env.(invo_v))
         ~callee:(Meth_id.of_int env.(callee_v))
         ~ctx:(Ctx.value ctx_store env.(ctx_v)))
  in
  let merge_static_hook ~invo_v ~callee_v ~ctx_v env =
    Ctx.intern ctx_store
      (strategy.Strategy.merge_static
         ~invo:(Invo_id.of_int env.(invo_v))
         ~callee:(Meth_id.of_int env.(callee_v))
         ~ctx:(Ctx.value ctx_store env.(ctx_v)))
  in
  let rules =
    [
      (* InterProcAssign from parameter passing. *)
      rule "interproc-arg" ~n_vars:7
        [ { hrel = interproc; hargs = [| Hv 5; Hv 3; Hv 6; Hv 1 |] } ]
        [
          { rel = cg; args = [| V 0; V 1; V 2; V 3 |] };
          { rel = formal_arg; args = [| V 2; V 4; V 5 |] };
          { rel = actual_arg; args = [| V 0; V 4; V 6 |] };
        ];
      (* InterProcAssign from return values. *)
      rule "interproc-ret" ~n_vars:6
        [ { hrel = interproc; hargs = [| Hv 5; Hv 1; Hv 4; Hv 3 |] } ]
        [
          { rel = cg; args = [| V 0; V 1; V 2; V 3 |] };
          { rel = formal_ret; args = [| V 2; V 4 |] };
          { rel = actual_ret; args = [| V 0; V 5 |] };
        ];
      (* Allocation: the Record rule. *)
      rule "alloc" ~n_vars:4
        [
          {
            hrel = vpt;
            hargs = [| Hv 2; Hv 1; Hv 3; Hf (record_hook ~heap_v:3 ~ctx_v:1) |];
          };
        ]
        [
          { rel = reach; args = [| V 0; V 1 |] };
          { rel = alloc; args = [| V 2; V 3; V 0 |] };
        ];
      (* Move. *)
      rule "move" ~n_vars:5
        [ { hrel = vpt; hargs = [| Hv 0; Hv 2; Hv 3; Hv 4 |] } ]
        [
          { rel = move; args = [| V 0; V 1 |] };
          { rel = vpt; args = [| V 1; V 2; V 3; V 4 |] };
        ];
      (* Cast: a move filtered by compatibility with the cast type. *)
      rule "cast" ~n_vars:7
        [ { hrel = vpt; hargs = [| Hv 0; Hv 3; Hv 4; Hv 5 |] } ]
        [
          { rel = cast; args = [| V 0; V 1; V 2 |] };
          { rel = vpt; args = [| V 1; V 3; V 4; V 5 |] };
          { rel = heap_type; args = [| V 4; V 6 |] };
          { rel = subtype; args = [| V 6; V 2 |] };
        ];
      (* Inter-procedural assignment. *)
      rule "interproc-assign" ~n_vars:6
        [ { hrel = vpt; hargs = [| Hv 0; Hv 1; Hv 4; Hv 5 |] } ]
        [
          { rel = interproc; args = [| V 0; V 1; V 2; V 3 |] };
          { rel = vpt; args = [| V 2; V 3; V 4; V 5 |] };
        ];
      (* Field load. *)
      rule "load" ~n_vars:8
        [ { hrel = vpt; hargs = [| Hv 0; Hv 3; Hv 6; Hv 7 |] } ]
        [
          { rel = load; args = [| V 0; V 1; V 2 |] };
          { rel = vpt; args = [| V 1; V 3; V 4; V 5 |] };
          { rel = fpt; args = [| V 4; V 5; V 2; V 6; V 7 |] };
        ];
      (* Field store. *)
      rule "store" ~n_vars:8
        [ { hrel = fpt; hargs = [| Hv 6; Hv 7; Hv 1; Hv 4; Hv 5 |] } ]
        [
          { rel = store; args = [| V 0; V 1; V 2 |] };
          { rel = vpt; args = [| V 2; V 3; V 4; V 5 |] };
          { rel = vpt; args = [| V 0; V 3; V 6; V 7 |] };
        ];
      (* Static field store: the global cell absorbs all stored objects,
         dropping the storing context. *)
      rule "static-store" ~n_vars:6
        [ { hrel = sfpt; hargs = [| Hv 0; Hv 4; Hv 5 |] } ]
        [
          { rel = sstore; args = [| V 0; V 1 |] };
          { rel = vpt; args = [| V 1; V 3; V 4; V 5 |] };
        ];
      (* Static field load: the cell's contents appear under every
         context in which the loading method is analyzed. *)
      rule "static-load" ~n_vars:6
        [ { hrel = vpt; hargs = [| Hv 0; Hv 3; Hv 4; Hv 5 |] } ]
        [
          { rel = sload; args = [| V 0; V 1; V 2 |] };
          { rel = reach; args = [| V 2; V 3 |] };
          { rel = sfpt; args = [| V 1; V 4; V 5 |] };
        ];
      (* Exceptions: a thrown object lands in its enclosing scope... *)
      rule "throw" ~n_vars:5
        [ { hrel = thrown; hargs = [| Hv 0; Hv 2; Hv 3; Hv 4 |] } ]
        [
          { rel = throw_in; args = [| V 0; V 1 |] };
          { rel = vpt; args = [| V 1; V 2; V 3; V 4 |] };
        ];
      (* ...as do the exceptions escaping any method called there... *)
      rule "throw-call" ~n_vars:7
        [ { hrel = thrown; hargs = [| Hv 1; Hv 2; Hv 5; Hv 6 |] } ]
        [
          { rel = call_scope; args = [| V 0; V 1 |] };
          { rel = cg; args = [| V 0; V 2; V 3; V 4 |] };
          { rel = throwpt; args = [| V 3; V 4; V 5; V 6 |] };
        ];
      (* ...a matching handler binds its catch variable... *)
      rule "catch" ~n_vars:6
        [ { hrel = vpt; hargs = [| Hv 5; Hv 1; Hv 2; Hv 3 |] } ]
        [
          { rel = thrown; args = [| V 0; V 1; V 2; V 3 |] };
          { rel = heap_type; args = [| V 2; V 4 |] };
          { rel = catches; args = [| V 0; V 4; V 5 |] };
        ];
      (* ...unmatched objects escape to the parent scope... *)
      rule "escape" ~n_vars:6
        [ { hrel = thrown; hargs = [| Hv 5; Hv 1; Hv 2; Hv 3 |] } ]
        [
          { rel = thrown; args = [| V 0; V 1; V 2; V 3 |] };
          { rel = heap_type; args = [| V 2; V 4 |] };
          { rel = escapes_scope; args = [| V 0; V 4 |] };
          { rel = scope_parent; args = [| V 0; V 5 |] };
        ];
      (* ...and objects reaching the method's root scope escape it. *)
      rule "throwpt" ~n_vars:6
        [ { hrel = throwpt; hargs = [| Hv 5; Hv 1; Hv 2; Hv 3 |] } ]
        [
          { rel = thrown; args = [| V 0; V 1; V 2; V 3 |] };
          { rel = root_scope; args = [| V 0; V 5 |] };
        ];
      (* Virtual call: the Merge rule, with its three heads. *)
      (let callee_ctx =
         Hf (merge_hook ~heap_v:4 ~hctx_v:5 ~invo_v:2 ~callee_v:7 ~ctx_v:8)
       in
       rule "vcall" ~n_vars:10
         [
           { hrel = reach; hargs = [| Hv 7; callee_ctx |] };
           { hrel = vpt; hargs = [| Hv 9; callee_ctx; Hv 4; Hv 5 |] };
           { hrel = cg; hargs = [| Hv 2; Hv 8; Hv 7; callee_ctx |] };
         ]
         [
           { rel = vcall; args = [| V 0; V 1; V 2; V 3 |] };
           { rel = reach; args = [| V 3; V 8 |] };
           { rel = vpt; args = [| V 0; V 8; V 4; V 5 |] };
           { rel = heap_type; args = [| V 4; V 6 |] };
           { rel = lookup; args = [| V 6; V 1; V 7 |] };
           { rel = this_var; args = [| V 7; V 9 |] };
         ]);
      (* Static call: the MergeStatic rule. *)
      (let callee_ctx = Hf (merge_static_hook ~invo_v:1 ~callee_v:0 ~ctx_v:3) in
       rule "scall" ~n_vars:4
         [
           { hrel = reach; hargs = [| Hv 0; callee_ctx |] };
           { hrel = cg; hargs = [| Hv 1; Hv 3; Hv 0; callee_ctx |] };
         ]
         [
           { rel = scall; args = [| V 0; V 1; V 2 |] };
           { rel = reach; args = [| V 2; V 3 |] };
         ]);
    ]
  in
  (* Seed: entry points are reachable under the initial context. *)
  let initial = Ctx.intern ctx_store strategy.Strategy.initial_ctx in
  List.iter
    (fun m -> ignore (Relation.add reach [| Meth_id.to_int m; initial |]))
    (Program.entries program);
  (* Lint before evaluating: a rule set with a hard error (range
     violation, arity mismatch) would fail mid-fixpoint with a much less
     helpful message.  [Never_fires] findings are legitimate here — a
     program without casts or throws leaves those EDB relations empty. *)
  (match
     List.filter
       (fun e -> Engine.lint_is_hard e.Engine.lint_kind)
       (Engine.lint rules)
   with
  | [] -> ()
  | hard ->
    invalid_arg
      ("Refimpl: rule program fails lint:\n"
      ^ String.concat "\n"
          (List.map (fun e -> "  " ^ e.Engine.lint_message) hard)));
  Engine.run ?budget ?trace rules;
  { vpt; cg; reach; throwpt; ctx_store; hctx_store }

let fold_var_points_to t f acc =
  Relation.fold
    (fun fact acc ->
      f (Var_id.of_int fact.(0))
        (Ctx.value t.ctx_store fact.(1))
        (Heap_id.of_int fact.(2))
        (Ctx.value t.hctx_store fact.(3))
        acc)
    t.vpt acc

let fold_call_edges t f acc =
  Relation.fold
    (fun fact acc ->
      f (Invo_id.of_int fact.(0))
        (Ctx.value t.ctx_store fact.(1))
        (Meth_id.of_int fact.(2))
        (Ctx.value t.ctx_store fact.(3))
        acc)
    t.cg acc

let fold_reachable t f acc =
  Relation.fold
    (fun fact acc ->
      f (Meth_id.of_int fact.(0)) (Ctx.value t.ctx_store fact.(1)) acc)
    t.reach acc

let fold_throw_points_to t f acc =
  Relation.fold
    (fun fact acc ->
      f (Meth_id.of_int fact.(0))
        (Ctx.value t.ctx_store fact.(1))
        (Heap_id.of_int fact.(2))
        (Ctx.value t.hctx_store fact.(3))
        acc)
    t.throwpt acc

let n_var_points_to t = Relation.cardinal t.vpt
let n_call_edges t = Relation.cardinal t.cg
let n_reachable t = Relation.cardinal t.reach

(* ------------------------------------------------------------------ *)
(* Reachable-heap census                                               *)
(* ------------------------------------------------------------------ *)

(* Relations own their fact arrays and indexes outright (no structural
   sharing between relations), so the interesting figure here is the
   absolute footprint per relation — the sharing factors stay near 1x,
   which is itself the comparison point against the native solver's
   shared Patricia-tree sets. *)
let census t =
  Pta_obs.Census.survey
    [
      ("var-points-to", [ Obj.repr t.vpt ]);
      ("call-graph", [ Obj.repr t.cg ]);
      ("reachable", [ Obj.repr t.reach ]);
      ("throw-points-to", [ Obj.repr t.throwpt ]);
      ("context-tables", [ Obj.repr t.ctx_store; Obj.repr t.hctx_store ]);
    ]
