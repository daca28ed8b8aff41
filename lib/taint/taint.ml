module Ir = Pta_ir.Ir
module Ctx = Pta_context.Ctx
module Strategy = Pta_context.Strategy
module Solver = Pta_solver.Solver
module Intset = Pta_solver.Intset
module Pqueue = Pta_solver.Pqueue
module Budget = Pta_obs.Budget
open Ir

(* ------------------------------------------------------------------ *)
(* Nodes of the taint supergraph                                      *)
(*                                                                    *)
(* Three families, interned on first taint arrival (nodes that never  *)
(* become tainted are never materialized):                            *)
(*   Kvar    (variable, method-context id)                            *)
(*   Kfld    (hobj, field)      — heap cells, points-to-keyed          *)
(*   Kstatic (field)            — global cells, context-insensitive    *)
(* ------------------------------------------------------------------ *)

type node_key = int * int * int (* kind, a, b *)

let kvar v c = (0, v, c)
let kfld o f = (1, o, f)
let kstatic f = (2, f, 0)

(* First-arrival provenance: how a label first reached a node. *)
type origin =
  | Seed
  | From of int * string (* predecessor node, edge description *)

type hit = {
  h_invo : Invo_id.t;
  h_pos : int;
  h_ctx : Ctx.id;
  h_labels : Intset.t;
}

type flow = { f_label : int; f_invo : Invo_id.t; f_pos : int }

type t = {
  solver : Solver.t;
  spec : Spec.compiled;
  node_tbl : (node_key, int) Hashtbl.t;
  keys : node_key array;  (** node id -> key *)
  all : Intset.t array;  (** node id -> settled labels *)
  origins : (int * int, origin) Hashtbl.t;  (** (node, label) -> origin *)
  sink_arg_vars : (int * int, int list) Hashtbl.t;
      (** (invo, pos) -> argument variables *)
  hits : hit list;
  flows : flow list;
}

type summary = {
  s_spec : Spec.compiled;
  s_tainted : Intset.t Var_id.Tbl.t;
  s_flows : flow list;
  s_explain : flow -> string list;
}

(* Growable parallel arrays for per-node state. *)
type nodes = {
  tbl : (node_key, int) Hashtbl.t;
  mutable keys : node_key array;
  mutable all : Intset.t array;
  mutable pending : Intset.t array;
  mutable queued : bool array;
  mutable n : int;
}

let nodes_create () =
  {
    tbl = Hashtbl.create 1024;
    keys = Array.make 1024 (0, 0, 0);
    all = Array.make 1024 Intset.empty;
    pending = Array.make 1024 Intset.empty;
    queued = Array.make 1024 false;
    n = 0;
  }

let node_id ns key =
  match Hashtbl.find_opt ns.tbl key with
  | Some id -> id
  | None ->
    let id = ns.n in
    if id = Array.length ns.keys then begin
      let grow a fill =
        let b = Array.make (2 * Array.length a) fill in
        Array.blit a 0 b 0 (Array.length a);
        b
      in
      ns.keys <- grow ns.keys (0, 0, 0);
      ns.all <- grow ns.all Intset.empty;
      ns.pending <- grow ns.pending Intset.empty;
      ns.queued <- grow ns.queued false
    end;
    ns.keys.(id) <- key;
    ns.n <- id + 1;
    Hashtbl.replace ns.tbl key id;
    id

(* Hashtbl-of-lists index helpers (values kept in insertion order). *)
let index_add tbl k v =
  Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k))

let index_find tbl k = Option.value ~default:[] (Hashtbl.find_opt tbl k)

(* Stable counting sort of the indices of [keys] (each in [0, n)) by
   key: the indices holding key [k] are [order.(start.(k))] up to
   [order.(start.(k + 1) - 1)], ascending. *)
type buckets = { start : int array; order : int array }

let bucket n keys =
  let start = Array.make (n + 1) 0 in
  Array.iter (fun k -> start.(k + 1) <- start.(k + 1) + 1) keys;
  for k = 1 to n do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let next = Array.sub start 0 n in
  let order = Array.make (Array.length keys) 0 in
  Array.iteri
    (fun i k ->
      order.(next.(k)) <- i;
      next.(k) <- next.(k) + 1)
    keys;
  { start; order }

(* The indices of key [k], last first. *)
let iter_bucket_rev b k f =
  for j = b.start.(k + 1) - 1 downto b.start.(k) do
    f b.order.(j)
  done

let analyze ?(budget = Budget.unlimited ()) solver spec =
  if not (Solver.is_complete solver) then
    invalid_arg "Taint.analyze: aborted solver state (incomplete points-to)";
  let program = Solver.program solver in
  let plan = (Solver.strategy solver).Strategy.shortcut in
  let fl = Flows.extract program ~plan in
  (* ---------------- static flow indexes ------------------------- *)
  let copy_out = Hashtbl.create 256 (* src var -> dst var list *)
  and store_out = Hashtbl.create 64 (* src var -> (base, field) list *)
  and load_by_base = Hashtbl.create 64 (* base var -> (dst, field) list *)
  and sstore_out = Hashtbl.create 16 (* src var -> field list *)
  and sload_by_field = Hashtbl.create 16 (* field -> (dst, meth) list *)
  and arg_out = Hashtbl.create 64 (* actual var -> (invo, pos) list *)
  and this_out = Hashtbl.create 64 (* receiver var -> invo list *)
  and ret_of_invo = Hashtbl.create 64 (* invo -> ret target var *)
  and ret_meth = Hashtbl.create 64 (* ret var -> meth int *) in
  List.iter (fun (d, s) -> index_add copy_out s d) fl.Flows.copies;
  List.iter (fun (b, f, s) -> index_add store_out s (b, f)) fl.Flows.stores;
  List.iter (fun (d, b, f) -> index_add load_by_base b (d, f)) fl.Flows.loads;
  List.iter (fun (f, s) -> index_add sstore_out s f) fl.Flows.sstores;
  List.iter (fun (d, f, m) -> index_add sload_by_field f (d, m)) fl.Flows.sloads;
  List.iter (fun (i, p, a) -> index_add arg_out a (i, p)) fl.Flows.args;
  List.iter (fun (i, b) -> index_add this_out b i) fl.Flows.this_args;
  List.iter (fun (i, r) -> Hashtbl.replace ret_of_invo i r) fl.Flows.rets;
  Program.iter_meths program (fun m mi ->
      Option.iter
        (fun rv -> Hashtbl.replace ret_meth (Var_id.to_int rv) (Meth_id.to_int m))
        mi.ret_var);
  (* ---------------- solved-state lookups ------------------------ *)
  (* No index over every var node: a store reads its base's set with
     [Solver.var_points_to], and the inverse lookup of loads is built
     per field, on demand (below).  The call edges are copied once into
     four int arrays and bucketed by invocation and by callee.  Buckets
     are read backwards, latest [iter_call_edges] edge first: node ids
     and first-arrival origins depend on that order, and the pinned
     digests in the taint tests hold it. *)
  let n_ce = Solver.n_call_edges_cs solver in
  let ce_invo = Array.make n_ce 0
  and ce_cctx = Array.make n_ce 0
  and ce_meth = Array.make n_ce 0
  and ce_ectx = Array.make n_ce 0 in
  let n = ref 0 in
  Solver.iter_call_edges solver (fun invo cc m ec ->
      let e = !n in
      ce_invo.(e) <- Invo_id.to_int invo;
      ce_cctx.(e) <- cc;
      ce_meth.(e) <- Meth_id.to_int m;
      ce_ectx.(e) <- ec;
      n := e + 1);
  let by_invo = bucket (Program.n_invos program) ce_invo
  and by_callee = bucket (Program.n_meths program) ce_meth in
  (* Callees [(meth, ectx)] of [invo] under caller context [c]. *)
  let iter_callees invo c f =
    iter_bucket_rev by_invo invo (fun e ->
        if ce_cctx.(e) = c then f ce_meth.(e) ce_ectx.(e))
  (* Call sites [(invo, cctx)] of [m] entered under context [c]. *)
  and iter_callers m c f =
    iter_bucket_rev by_callee m (fun e ->
        if ce_ectx.(e) = c then f ce_invo.(e) ce_cctx.(e))
  in
  (* Inverse var-points-to of one field: hobj -> the (base, ctx) nodes
     pointing to it, over the bases of loads of that field only.  Made
     the first time a cell of the field is tainted, by one scan of the
     var nodes that reads just those bases' sets. *)
  let inv_by_field = Hashtbl.create 16 (* field -> (hobj -> node list) *) in
  let vpt_inv f =
    match Hashtbl.find_opt inv_by_field f with
    | Some inv -> inv
    | None ->
      let bases = Hashtbl.create 8 and inv = Hashtbl.create 64 in
      List.iter
        (fun (_, b, f') -> if f' = f then Hashtbl.replace bases b ())
        fl.Flows.loads;
      if Hashtbl.length bases > 0 then
        Solver.iter_var_points_to solver (fun v c objs ->
            let vi = Var_id.to_int v in
            if Hashtbl.mem bases vi then
              Intset.iter (fun o -> index_add inv o (vi, c)) objs);
      Hashtbl.replace inv_by_field f inv;
      inv
  in
  let reach_ctxs = Hashtbl.create 256 (* meth -> ctx list *) in
  Solver.iter_reachable solver (fun m c ->
      index_add reach_ctxs (Meth_id.to_int m) c);
  let meth_info m = Program.meth_info program (Meth_id.of_int m) in
  let sanitizer m = Spec.is_sanitizer spec (Meth_id.of_int m) in
  (* ---------------- difference propagation ---------------------- *)
  let ns = nodes_create () in
  let wl = Pqueue.create () in
  let origins = Hashtbl.create 256 in
  let push key labels origin_of =
    let id = node_id ns key in
    let fresh = Intset.diff2 labels ns.all.(id) ns.pending.(id) in
    if not (Intset.is_empty fresh) then begin
      Intset.iter
        (fun l ->
          if not (Hashtbl.mem origins (id, l)) then
            Hashtbl.replace origins (id, l) (origin_of l))
        fresh;
      ns.pending.(id) <- Intset.union ns.pending.(id) fresh;
      if not ns.queued.(id) then begin
        ns.queued.(id) <- true;
        Pqueue.push wl ~prio:id id
      end
    end
  in
  let push_from pred key labels desc =
    push key labels (fun _ -> From (pred, desc))
  in
  (* Seeds: each source position taints its variable under every
     context its method is analyzed in. *)
  List.iter
    (fun s ->
      match Spec.source_var program s with
      | None -> ()
      | Some v ->
        let labels = Intset.singleton s.Spec.src_label in
        List.iter
          (fun c -> push (kvar (Var_id.to_int v) c) labels (fun _ -> Seed))
          (index_find reach_ctxs (Meth_id.to_int s.Spec.src_meth)))
    (Spec.sources spec);
  let propagate_var id v c d =
    List.iter
      (fun dst -> push_from id (kvar dst c) d "move")
      (index_find copy_out v);
    List.iter
      (fun (b, f) ->
        let fname = (Program.field_info program (Field_id.of_int f)).field_name in
        Intset.iter
          (fun o -> push_from id (kfld o f) d ("store ." ^ fname))
          (Solver.var_points_to solver (Var_id.of_int b) c))
      (index_find store_out v);
    List.iter
      (fun f ->
        let fname = (Program.field_info program (Field_id.of_int f)).field_name in
        push_from id (kstatic f) d ("static store " ^ fname))
      (index_find sstore_out v);
    List.iter
      (fun (invo, pos) ->
        iter_callees invo c (fun m ec ->
            if not (sanitizer m) then begin
              let formals = (meth_info m).formals in
              if pos < Array.length formals then
                push_from id
                  (kvar (Var_id.to_int formals.(pos)) ec)
                  d
                  (Printf.sprintf "arg %d at %s" pos
                     (Program.invo_name program (Invo_id.of_int invo)))
            end))
      (index_find arg_out v);
    List.iter
      (fun invo ->
        iter_callees invo c (fun m ec ->
            if not (sanitizer m) then
              match (meth_info m).this_var with
              | Some tv ->
                push_from id
                  (kvar (Var_id.to_int tv) ec)
                  d
                  ("receiver at " ^ Program.invo_name program (Invo_id.of_int invo))
              | None -> ()))
      (index_find this_out v);
    match Hashtbl.find_opt ret_meth v with
    | Some m when not (sanitizer m) ->
      iter_callers m c (fun invo cc ->
          match Hashtbl.find_opt ret_of_invo invo with
          | Some rt ->
            push_from id (kvar rt cc) d
              ("return from " ^ Program.meth_qualified_name program (Meth_id.of_int m))
          | None -> ())
    | _ -> ()
  in
  let propagate_fld id o f d =
    List.iter
      (fun (bv, c) ->
        List.iter
          (fun (dst, f') ->
            if f' = f then
              let fname =
                (Program.field_info program (Field_id.of_int f)).field_name
              in
              push_from id (kvar dst c) d ("load ." ^ fname))
          (index_find load_by_base bv))
      (index_find (vpt_inv f) o)
  in
  let propagate_static id f d =
    let fname = (Program.field_info program (Field_id.of_int f)).field_name in
    List.iter
      (fun (dst, m) ->
        List.iter
          (fun c -> push_from id (kvar dst c) d ("static load " ^ fname))
          (index_find reach_ctxs m))
      (index_find sload_by_field f)
  in
  while not (Pqueue.is_empty wl) do
    Budget.tick budget;
    let id = Pqueue.pop wl in
    ns.queued.(id) <- false;
    let d = ns.pending.(id) in
    ns.pending.(id) <- Intset.empty;
    ns.all.(id) <- Intset.union ns.all.(id) d;
    if not (Intset.is_empty d) then
      match ns.keys.(id) with
      | 0, v, c -> propagate_var id v c d
      | 1, o, f -> propagate_fld id o f d
      | _, f, _ -> propagate_static id f d
  done;
  (* ---------------- sink verdicts ------------------------------- *)
  let sink_pos = Hashtbl.create 16 in
  List.iter
    (fun m ->
      Hashtbl.replace sink_pos (Meth_id.to_int m)
        (Spec.sink_positions spec m))
    (Spec.sink_meths spec);
  let hit_tbl = Hashtbl.create 64 in
  List.iter
    (fun (invo, pos, av) ->
      iter_bucket_rev by_invo invo (fun e ->
          let cc = ce_cctx.(e) in
          match Hashtbl.find_opt sink_pos ce_meth.(e) with
          | Some positions when List.mem pos positions -> (
            match Hashtbl.find_opt ns.tbl (kvar av cc) with
            | Some id when not (Intset.is_empty ns.all.(id)) ->
              let key = (invo, pos, cc) in
              let prev =
                Option.value ~default:Intset.empty
                  (Hashtbl.find_opt hit_tbl key)
              in
              Hashtbl.replace hit_tbl key (Intset.union prev ns.all.(id))
            | _ -> ())
          | _ -> ()))
    fl.Flows.sink_args;
  let hits =
    Hashtbl.fold (fun (i, p, c) labels acc -> (i, p, c, labels) :: acc) hit_tbl []
    |> List.sort compare
    |> List.map (fun (i, p, c, labels) ->
           {
             h_invo = Invo_id.of_int i;
             h_pos = p;
             h_ctx = c;
             h_labels = labels;
           })
  in
  let flow_set = Hashtbl.create 64 in
  List.iter
    (fun h ->
      Intset.iter
        (fun l ->
          Hashtbl.replace flow_set (l, Invo_id.to_int h.h_invo, h.h_pos) ())
        h.h_labels)
    hits;
  let flows =
    Hashtbl.fold (fun k () acc -> k :: acc) flow_set []
    |> List.sort compare
    |> List.map (fun (l, i, p) ->
           { f_label = l; f_invo = Invo_id.of_int i; f_pos = p })
  in
  let sink_arg_vars = Hashtbl.create 64 in
  List.iter
    (fun (invo, pos, av) -> index_add sink_arg_vars (invo, pos) av)
    fl.Flows.sink_args;
  {
    solver;
    spec;
    node_tbl = ns.tbl;
    keys = Array.sub ns.keys 0 ns.n;
    all = Array.sub ns.all 0 ns.n;
    origins;
    sink_arg_vars;
    hits;
    flows;
  }

(* ------------------------------------------------------------------ *)
(* Accessors                                                          *)
(* ------------------------------------------------------------------ *)

let iter_tainted (t : t) f =
  Array.iteri
    (fun id key ->
      match key with
      | 0, v, c ->
        if not (Intset.is_empty t.all.(id)) then
          f (Var_id.of_int v) c t.all.(id)
      | _ -> ())
    t.keys

let ctx_value (t : t) c = Solver.ctx_value t.solver c
let sink_hits (t : t) = t.hits
let flows (t : t) = t.flows
let n_flows (t : t) = List.length t.flows

let node_str (t : t) id =
  let program = Solver.program t.solver in
  match t.keys.(id) with
  | 0, v, c ->
    Format.asprintf "%s in %a"
      (Program.var_qualified_name program (Var_id.of_int v))
      (Ctx.pp_value program)
      (Solver.ctx_value t.solver c)
  | 1, o, f ->
    Printf.sprintf "%s.%s"
      (Program.heap_name program (Solver.hobj_heap t.solver o))
      (Program.field_info program (Field_id.of_int f)).field_name
  | _, f, _ ->
    "static " ^ (Program.field_info program (Field_id.of_int f)).field_name

let explain_chain (t : t) id label =
  (* Walk first-arrival origins back to the seed; the origin graph is
     acyclic by construction, but cap the walk defensively. *)
  let rec walk id acc budget =
    if budget = 0 then acc
    else
      match Hashtbl.find_opt t.origins (id, label) with
      | None | Some Seed ->
        Printf.sprintf "source %s seeds %s"
          (Spec.label_name t.spec label)
          (node_str t id)
        :: acc
      | Some (From (pred, desc)) ->
        walk pred (Printf.sprintf "%s -> %s" desc (node_str t id) :: acc) (budget - 1)
  in
  walk id [] 1000

let explain_flow (t : t) { f_label; f_invo; f_pos } =
  (* Find the tainted (arg var, ctx) node witnessing the flow; hits are
     sorted, so the first match is deterministic. *)
  let program = Solver.program t.solver in
  let node_of_hit h =
    if not (Invo_id.equal h.h_invo f_invo) || h.h_pos <> f_pos then None
    else if not (Intset.mem f_label h.h_labels) then None
    else
      List.find_map
        (fun av ->
          match Hashtbl.find_opt t.node_tbl (kvar av h.h_ctx) with
          | Some id when Intset.mem f_label t.all.(id) -> Some id
          | _ -> None)
        (index_find t.sink_arg_vars (Invo_id.to_int f_invo, f_pos))
  in
  match List.find_map node_of_hit t.hits with
  | None -> []
  | Some id ->
    explain_chain t id f_label
    @ [
        Printf.sprintf "reaches sink argument %d at %s" f_pos
          (Program.invo_name program f_invo);
      ]

let summary (t : t) =
  let tainted = Var_id.Tbl.create 64 in
  iter_tainted t (fun v _c labels ->
      let prev =
        Option.value ~default:Intset.empty (Var_id.Tbl.find_opt tainted v)
      in
      Var_id.Tbl.replace tainted v (Intset.union prev labels));
  {
    s_spec = t.spec;
    s_tainted = tainted;
    s_flows = t.flows;
    s_explain = explain_flow t;
  }
