module Ir = Pta_ir.Ir
module Ctx = Pta_context.Ctx
module Strategy = Pta_context.Strategy
module Refimpl = Pta_refimpl.Refimpl
module Relation = Pta_datalog.Relation
module Engine = Pta_datalog.Engine
module Intset = Pta_solver.Intset
open Ir

module Ctx_tbl = Hashtbl.Make (struct
  type t = Ctx.value

  let equal = Ctx.value_equal
  let hash = Ctx.value_hash
end)

(* A local interner for decoded context values (the reference engine
   hands out decoded tuples, not ids). *)
type interner = { tbl : int Ctx_tbl.t; mutable values : Ctx.value array; mutable n : int }

let interner_create () =
  { tbl = Ctx_tbl.create 64; values = Array.make 64 [||]; n = 0 }

let intern it v =
  match Ctx_tbl.find_opt it.tbl v with
  | Some id -> id
  | None ->
    let id = it.n in
    if id = Array.length it.values then begin
      let b = Array.make (2 * id) [||] in
      Array.blit it.values 0 b 0 id;
      it.values <- b
    end;
    it.values.(id) <- v;
    it.n <- id + 1;
    Ctx_tbl.replace it.tbl v id;
    id

type t = {
  spec : Spec.compiled;
  ctxs : interner;
  tainted : Relation.t;
  sinkhit : Relation.t;
  flow_list : Taint.flow list;
}

let analyze program strategy refimpl spec =
  let plan = strategy.Strategy.shortcut in
  let fl = Flows.extract program ~plan in
  let rel name arity = Relation.create ~name ~arity in
  let seed = rel "TaintSeed" 2
  and varmeth = rel "VarMeth" 2
  and reach = rel "TaintReach" 2
  and vpt = rel "TaintVpt" 3
  and cg = rel "TaintCg" 4
  and ok = rel "NotSanitizer" 1
  and copy = rel "TaintCopy" 2
  and load = rel "TaintLoad" 3
  and store = rel "TaintStore" 3
  and sload = rel "TaintSLoad" 3
  and sstore = rel "TaintSStore" 2
  and arg = rel "TaintArg" 3
  and thisarg = rel "TaintThisArg" 2
  and ret = rel "TaintRet" 2
  and formal = rel "TaintFormal" 3
  and formalret = rel "TaintFormalRet" 2
  and thisv = rel "TaintThisVar" 2
  and sinkarg = rel "SinkArg" 3
  and sinkpos = rel "SinkPos" 2
  and tainted = rel "Tainted" 3
  and fldtaint = rel "FldTaint" 3
  and statictaint = rel "StaticTaint" 2
  and sinkhit = rel "SinkHit" 4 in
  let add r fact = ignore (Relation.add r fact) in
  (* ----- EDB: the flow skeleton --------------------------------- *)
  List.iter (fun (d, s) -> add copy [| d; s |]) fl.Flows.copies;
  List.iter (fun (d, b, f) -> add load [| d; b; f |]) fl.Flows.loads;
  List.iter (fun (b, f, s) -> add store [| b; f; s |]) fl.Flows.stores;
  List.iter (fun (d, f, m) -> add sload [| d; f; m |]) fl.Flows.sloads;
  List.iter (fun (f, s) -> add sstore [| f; s |]) fl.Flows.sstores;
  List.iter (fun (i, p, v) -> add arg [| i; p; v |]) fl.Flows.args;
  List.iter (fun (i, v) -> add thisarg [| i; v |]) fl.Flows.this_args;
  List.iter (fun (i, v) -> add ret [| i; v |]) fl.Flows.rets;
  List.iter (fun (i, p, v) -> add sinkarg [| i; p; v |]) fl.Flows.sink_args;
  Program.iter_vars program (fun v vi ->
      add varmeth [| Var_id.to_int v; Meth_id.to_int vi.var_owner |]);
  Program.iter_meths program (fun m mi ->
      let mi' = Meth_id.to_int m in
      if not (Spec.is_sanitizer spec m) then add ok [| mi' |];
      Array.iteri
        (fun p v -> add formal [| mi'; p; Var_id.to_int v |])
        mi.formals;
      Option.iter (fun v -> add formalret [| mi'; Var_id.to_int v |]) mi.ret_var;
      Option.iter (fun v -> add thisv [| mi'; Var_id.to_int v |]) mi.this_var);
  List.iter
    (fun m ->
      List.iter
        (fun p -> add sinkpos [| Meth_id.to_int m; p |])
        (Spec.sink_positions spec m))
    (Spec.sink_meths spec);
  List.iter
    (fun s ->
      match Spec.source_var program s with
      | Some v -> add seed [| Var_id.to_int v; s.Spec.src_label |]
      | None -> ())
    (Spec.sources spec);
  (* ----- EDB: the solved points-to state ------------------------ *)
  let ctxs = interner_create () in
  let hctxs = interner_create () in
  let hobjs = Hashtbl.create 256 in
  let hobj heap hctx =
    let key = (Heap_id.to_int heap, intern hctxs hctx) in
    match Hashtbl.find_opt hobjs key with
    | Some id -> id
    | None ->
      let id = Hashtbl.length hobjs in
      Hashtbl.replace hobjs key id;
      id
  in
  Refimpl.fold_var_points_to refimpl
    (fun v ctx heap hctx () ->
      add vpt [| Var_id.to_int v; intern ctxs ctx; hobj heap hctx |])
    ();
  Refimpl.fold_call_edges refimpl
    (fun invo cctx m ectx () ->
      add cg
        [| Invo_id.to_int invo; intern ctxs cctx; Meth_id.to_int m;
           intern ctxs ectx |])
    ();
  Refimpl.fold_reachable refimpl
    (fun m ctx () -> add reach [| Meth_id.to_int m; intern ctxs ctx |])
    ();
  (* ----- the ten taint rules ------------------------------------ *)
  let v i = Engine.V i and hv i = Engine.Hv i in
  let atom rel args = { Engine.rel; args } in
  let head hrel hargs = { Engine.hrel; hargs } in
  let rules =
    [
      Engine.rule "taint-seed" ~n_vars:4
        [ head tainted [| hv 0; hv 3; hv 1 |] ]
        [
          atom seed [| v 0; v 1 |];
          atom varmeth [| v 0; v 2 |];
          atom reach [| v 2; v 3 |];
        ];
      Engine.rule "taint-copy" ~n_vars:4
        [ head tainted [| hv 0; hv 2; hv 3 |] ]
        [ atom copy [| v 0; v 1 |]; atom tainted [| v 1; v 2; v 3 |] ];
      Engine.rule "taint-store" ~n_vars:6
        [ head fldtaint [| hv 5; hv 1; hv 4 |] ]
        [
          atom store [| v 0; v 1; v 2 |];
          atom tainted [| v 2; v 3; v 4 |];
          atom vpt [| v 0; v 3; v 5 |];
        ];
      Engine.rule "taint-load" ~n_vars:6
        [ head tainted [| hv 0; hv 3; hv 5 |] ]
        [
          atom load [| v 0; v 1; v 2 |];
          atom vpt [| v 1; v 3; v 4 |];
          atom fldtaint [| v 4; v 2; v 5 |];
        ];
      Engine.rule "taint-static-store" ~n_vars:4
        [ head statictaint [| hv 0; hv 3 |] ]
        [ atom sstore [| v 0; v 1 |]; atom tainted [| v 1; v 2; v 3 |] ];
      Engine.rule "taint-static-load" ~n_vars:5
        [ head tainted [| hv 0; hv 4; hv 3 |] ]
        [
          atom sload [| v 0; v 1; v 2 |];
          atom statictaint [| v 1; v 3 |];
          atom reach [| v 2; v 4 |];
        ];
      Engine.rule "taint-call-arg" ~n_vars:8
        [ head tainted [| hv 7; hv 6; hv 4 |] ]
        [
          atom arg [| v 0; v 1; v 2 |];
          atom tainted [| v 2; v 3; v 4 |];
          atom cg [| v 0; v 3; v 5; v 6 |];
          atom ok [| v 5 |];
          atom formal [| v 5; v 1; v 7 |];
        ];
      Engine.rule "taint-call-this" ~n_vars:7
        [ head tainted [| hv 6; hv 5; hv 3 |] ]
        [
          atom thisarg [| v 0; v 1 |];
          atom tainted [| v 1; v 2; v 3 |];
          atom cg [| v 0; v 2; v 4; v 5 |];
          atom ok [| v 4 |];
          atom thisv [| v 4; v 6 |];
        ];
      Engine.rule "taint-return" ~n_vars:7
        [ head tainted [| hv 1; hv 2; hv 6 |] ]
        [
          atom ret [| v 0; v 1 |];
          atom cg [| v 0; v 2; v 3; v 4 |];
          atom ok [| v 3 |];
          atom formalret [| v 3; v 5 |];
          atom tainted [| v 5; v 4; v 6 |];
        ];
      Engine.rule "taint-sink" ~n_vars:7
        [ head sinkhit [| hv 0; hv 1; hv 3; hv 4 |] ]
        [
          atom sinkarg [| v 0; v 1; v 2 |];
          atom tainted [| v 2; v 3; v 4 |];
          atom cg [| v 0; v 3; v 5; v 6 |];
          atom sinkpos [| v 5; v 1 |];
        ];
    ]
  in
  let hard =
    List.filter
      (fun e -> Engine.lint_is_hard e.Engine.lint_kind)
      (Engine.lint rules)
  in
  (match hard with
  | [] -> ()
  | e :: _ ->
    invalid_arg
      (Printf.sprintf "Taint_ref.analyze: lint error in %s: %s" e.Engine.lint_rule
         e.Engine.lint_message));
  Engine.run rules;
  let flow_set = Hashtbl.create 64 in
  Relation.iter
    (fun fact -> Hashtbl.replace flow_set (fact.(3), fact.(0), fact.(1)) ())
    sinkhit;
  let flow_list =
    Hashtbl.fold (fun k () acc -> k :: acc) flow_set []
    |> List.sort compare
    |> List.map (fun (l, i, p) ->
           { Taint.f_label = l; f_invo = Invo_id.of_int i; f_pos = p })
  in
  { spec; ctxs; tainted; sinkhit; flow_list }

let fold_tainted t f acc =
  Relation.fold
    (fun fact acc ->
      f (Var_id.of_int fact.(0)) t.ctxs.values.(fact.(1)) fact.(2) acc)
    t.tainted acc

let fold_sink_hits t f acc =
  Relation.fold
    (fun fact acc ->
      f (Invo_id.of_int fact.(0)) fact.(1) t.ctxs.values.(fact.(2)) fact.(3) acc)
    t.sinkhit acc

let flows t = t.flow_list

let summary t =
  let tainted = Var_id.Tbl.create 64 in
  fold_tainted t
    (fun v _ctx label () ->
      let prev =
        Option.value ~default:Intset.empty (Var_id.Tbl.find_opt tainted v)
      in
      Var_id.Tbl.replace tainted v (Intset.add label prev))
    ();
  {
    Taint.s_spec = t.spec;
    s_tainted = tainted;
    s_flows = t.flow_list;
    s_explain = (fun _ -> []);
  }
