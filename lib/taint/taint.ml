module Ir = Pta_ir.Ir
module Ctx = Pta_context.Ctx
module Strategy = Pta_context.Strategy
module Solver = Pta_solver.Solver
module Intset = Pta_solver.Intset
module Pqueue = Pta_solver.Pqueue
module Budget = Pta_obs.Budget
module Inttbl = Pta_ir.Inttbl
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

(* The edge a label first crossed into a node.  Its words are built
   only when a chain is explained ([step_desc]). *)
type step =
  | Move
  | Store of int  (* field *)
  | Static_store of int
  | Arg of int * int  (* position, invo *)
  | Receiver of int  (* invo *)
  | Return of int  (* callee *)
  | Load of int
  | Static_load of int

(* First-arrival provenance: how a label first reached a node. *)
type origin =
  | Seed
  | From of int * step (* predecessor node, edge *)

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
  sink_args : Inttbl.t;
      (** [Inttbl.pack invo pos] -> argument variable, for the
          invocations of extracted methods *)
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

(* Keyed by the dense ids of the IR and the solver. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (i : int) = i land max_int
end)

(* The flows out of one variable, each list latest instruction first. *)
type var_flows = {
  mutable copies : int list;  (* dst *)
  mutable stores : (int * int) list;  (* base, field *)
  mutable sstores : int list;  (* field *)
  mutable args : (int * int) list;  (* invo, pos *)
  mutable receivers : int list;  (* invo *)
  mutable loads : (int * int) list;  (* dst, field: loads off this base *)
}

(* Prepend [v] to [tbl]'s list at [k]. *)
let index_add tbl k v =
  Itbl.replace tbl k (v :: Option.value ~default:[] (Itbl.find_opt tbl k))

let index_find tbl k = Option.value ~default:[] (Itbl.find_opt tbl k)

let analyze ?(budget = Budget.unlimited ()) solver spec =
  if not (Solver.is_complete solver) then
    invalid_arg "Taint.analyze: aborted solver state (incomplete points-to)";
  let program = Solver.program solver in
  let plan = (Solver.strategy solver).Strategy.shortcut in
  let meth_info m = Program.meth_info program (Meth_id.of_int m) in
  let sanitizer m = Spec.is_sanitizer spec (Meth_id.of_int m) in
  (* ---------------- flows, one method at a time ----------------- *)
  (* A method's flows are extracted the first time propagation reaches
     one of its variables or invocations.  Every flow keyed by a
     variable or invocation comes from its owner's body, so each list
     below holds, latest first, exactly what a whole-program extraction
     would give it. *)
  let var_flows = Itbl.create 256 in
  let ret_of_invo = Inttbl.create_map () (* invo -> ret target *)
  and sink_args = Inttbl.create_map () (* (invo, pos) -> actual *)
  and extracted = Itbl.create 64 in
  let flows_of v =
    match Itbl.find_opt var_flows v with
    | Some vf -> vf
    | None ->
      let vf =
        { copies = []; stores = []; sstores = []; args = []; receivers = []; loads = [] }
      in
      Itbl.replace var_flows v vf;
      vf
  in
  let extract_handler =
    {
      Flows.copy = (fun d s -> let vf = flows_of s in vf.copies <- d :: vf.copies);
      load = (fun d b f -> let vf = flows_of b in vf.loads <- (d, f) :: vf.loads);
      store = (fun b f s -> let vf = flows_of s in vf.stores <- (b, f) :: vf.stores);
      sload = (fun _ _ -> ());
      sstore = (fun f s -> let vf = flows_of s in vf.sstores <- f :: vf.sstores);
      arg = (fun i p a -> let vf = flows_of a in vf.args <- (i, p) :: vf.args);
      this_arg =
        (fun i b -> let vf = flows_of b in vf.receivers <- i :: vf.receivers);
      ret = (fun i r -> Inttbl.add ret_of_invo i r);
      sink_arg = (fun i p a -> Inttbl.add sink_args (Inttbl.pack i p) a);
    }
  in
  let extract m =
    if not (Itbl.mem extracted m) then begin
      Itbl.replace extracted m ();
      Flows.iter_meth program ~plan extract_handler (Meth_id.of_int m)
    end
  in
  let var_owner v =
    Meth_id.to_int (Program.var_info program (Var_id.of_int v)).var_owner
  and invo_owner i =
    Meth_id.to_int (Program.invo_info program (Invo_id.of_int i)).invo_owner
  in
  let var_flows_of v =
    extract (var_owner v);
    Itbl.find_opt var_flows v
  in
  (* Loads of heap fields and of static fields, over every reachable
     method (a variable of any other has no node): each built by one
     walk the first time a cell of its kind is tainted. *)
  let walk_reachable handler =
    Meth_id.Set.iter
      (fun m -> Flows.iter_meth program ~plan (handler (Meth_id.to_int m)) m)
      (Solver.reachable_meths solver)
  in
  let load_bases =
    lazy
      (let bases = Itbl.create 64 (* field -> base set *) in
       let add_base _ b f =
         match Itbl.find_opt bases f with
         | Some set -> Itbl.replace set b ()
         | None ->
           let set = Itbl.create 8 in
           Itbl.replace set b ();
           Itbl.replace bases f set
       in
       walk_reachable (fun _ -> { Flows.nothing with load = add_base });
       bases)
  and sload_by_field =
    lazy
      (let tbl = Itbl.create 16 (* field -> (dst, meth) list *) in
       walk_reachable (fun m ->
           { Flows.nothing with sload = (fun d f -> index_add tbl f (d, m)) });
       tbl)
  in
  (* ---------------- solved-state lookups ------------------------ *)
  (* No index over every var node: a store reads its base's set with
     [Solver.var_points_to].  Call edges and reachable contexts come
     from the solver's buckets, latest edge first: node ids and
     first-arrival origins depend on that order, and the pinned digests
     in the taint tests hold it. *)
  (* Callees [(meth, ectx)] of [invo] under caller context [c]. *)
  let iter_callees invo c f =
    Solver.iter_invo_edges solver (Invo_id.of_int invo)
      (fun cc m ec -> if cc = c then f (Meth_id.to_int m) ec)
  (* Call sites [(invo, cctx)] of [m] entered under context [c]. *)
  and iter_callers m c f =
    Solver.iter_callee_edges solver (Meth_id.of_int m)
      (fun invo cc ec -> if ec = c then f (Invo_id.to_int invo) cc)
  and iter_ctxs m f = Solver.iter_meth_ctxs solver (Meth_id.of_int m) f in
  (* Inverse var-points-to of one field: hobj -> the (base, ctx) nodes
     pointing to it, over the bases of loads of that field only.  Made
     the first time a cell of the field is tainted, by one scan of the
     var nodes that reads just those bases' sets. *)
  let inv_by_field = Itbl.create 16 (* field -> (hobj -> node list) *) in
  let vpt_inv f =
    match Itbl.find_opt inv_by_field f with
    | Some inv -> inv
    | None ->
      let inv = Itbl.create 64 in
      Option.iter
        (fun bases ->
          Solver.iter_var_points_to solver (fun v c objs ->
              let vi = Var_id.to_int v in
              if Itbl.mem bases vi then
                Intset.iter (fun o -> index_add inv o (vi, c)) objs))
        (Itbl.find_opt (Lazy.force load_bases) f);
      Itbl.replace inv_by_field f inv;
      inv
  in
  (* ---------------- difference propagation ---------------------- *)
  let ns = nodes_create () in
  let wl = Pqueue.create () in
  let origins = Hashtbl.create 256 in
  (* [pred] is the node the labels come from, [-1] for a seed. *)
  let push key labels pred step =
    let id = node_id ns key in
    let fresh = Intset.diff2 labels ns.all.(id) ns.pending.(id) in
    if not (Intset.is_empty fresh) then begin
      Intset.iter
        (fun l ->
          if not (Hashtbl.mem origins (id, l)) then
            Hashtbl.replace origins (id, l)
              (if pred < 0 then Seed else From (pred, step)))
        fresh;
      ns.pending.(id) <- Intset.union ns.pending.(id) fresh;
      if not ns.queued.(id) then begin
        ns.queued.(id) <- true;
        Pqueue.push wl ~prio:id id
      end
    end
  in
  (* Seeds: each source position taints its variable under every
     context its method is analyzed in. *)
  List.iter
    (fun s ->
      match Spec.source_var program s with
      | None -> ()
      | Some v ->
        let labels = Intset.singleton s.Spec.src_label in
        iter_ctxs (Meth_id.to_int s.Spec.src_meth) (fun c ->
            push (kvar (Var_id.to_int v) c) labels (-1) Move))
    (Spec.sources spec);
  let propagate_var id v c d =
    Option.iter
      (fun vf ->
        List.iter (fun dst -> push (kvar dst c) d id Move) vf.copies;
        List.iter
          (fun (b, f) ->
            let step = Store f in
            Intset.iter
              (fun o -> push (kfld o f) d id step)
              (Solver.var_points_to solver (Var_id.of_int b) c))
          vf.stores;
        List.iter (fun f -> push (kstatic f) d id (Static_store f)) vf.sstores;
        List.iter
          (fun (invo, pos) ->
            let step = Arg (pos, invo) in
            iter_callees invo c (fun m ec ->
                if not (sanitizer m) then begin
                  let formals = (meth_info m).formals in
                  if pos < Array.length formals then
                    push (kvar (Var_id.to_int formals.(pos)) ec) d id step
                end))
          vf.args;
        List.iter
          (fun invo ->
            let step = Receiver invo in
            iter_callees invo c (fun m ec ->
                if not (sanitizer m) then
                  match (meth_info m).this_var with
                  | Some tv -> push (kvar (Var_id.to_int tv) ec) d id step
                  | None -> ()))
          vf.receivers)
      (var_flows_of v);
    let m = var_owner v in
    match (meth_info m).ret_var with
    | Some rv when Var_id.to_int rv = v && not (sanitizer m) ->
      let step = Return m in
      iter_callers m c (fun invo cc ->
          extract (invo_owner invo);
          let rt = Inttbl.find ret_of_invo invo in
          if rt <> Inttbl.absent then push (kvar rt cc) d id step)
    | _ -> ()
  in
  let propagate_fld id o f d =
    let step = Load f in
    List.iter
      (fun (bv, c) ->
        Option.iter
          (fun vf ->
            List.iter
              (fun (dst, f') -> if f' = f then push (kvar dst c) d id step)
              vf.loads)
          (var_flows_of bv))
      (index_find (vpt_inv f) o)
  in
  let propagate_static id f d =
    let step = Static_load f in
    List.iter
      (fun (dst, m) -> iter_ctxs m (fun c -> push (kvar dst c) d id step))
      (index_find (Lazy.force sload_by_field) f)
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
  (* Only the call edges into sink methods can carry a hit. *)
  let hit_tbl = Hashtbl.create 64 in
  List.iter
    (fun m ->
      let positions = Spec.sink_positions spec m in
      Solver.iter_callee_edges solver m (fun invo cc _ ->
          let invo = Invo_id.to_int invo in
          extract (invo_owner invo);
          List.iter
            (fun pos ->
              let av = Inttbl.find sink_args (Inttbl.pack invo pos) in
              if av <> Inttbl.absent then
                match Hashtbl.find_opt ns.tbl (kvar av cc) with
                | Some id when not (Intset.is_empty ns.all.(id)) ->
                  let key = (invo, pos, cc) in
                  let prev =
                    Option.value ~default:Intset.empty
                      (Hashtbl.find_opt hit_tbl key)
                  in
                  Hashtbl.replace hit_tbl key (Intset.union prev ns.all.(id))
                | _ -> ())
            positions))
    (Spec.sink_meths spec);
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
  {
    solver;
    spec;
    node_tbl = ns.tbl;
    keys = Array.sub ns.keys 0 ns.n;
    all = Array.sub ns.all 0 ns.n;
    origins;
    sink_args;
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

let step_desc (t : t) step =
  let program = Solver.program t.solver in
  let fname f = (Program.field_info program (Field_id.of_int f)).field_name in
  let invo_name i = Program.invo_name program (Invo_id.of_int i) in
  match step with
  | Move -> "move"
  | Store f -> "store ." ^ fname f
  | Static_store f -> "static store " ^ fname f
  | Arg (pos, invo) -> Printf.sprintf "arg %d at %s" pos (invo_name invo)
  | Receiver invo -> "receiver at " ^ invo_name invo
  | Return m -> "return from " ^ Program.meth_qualified_name program (Meth_id.of_int m)
  | Load f -> "load ." ^ fname f
  | Static_load f -> "static load " ^ fname f

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
      | Some (From (pred, step)) ->
        walk pred
          (Printf.sprintf "%s -> %s" (step_desc t step) (node_str t id) :: acc)
          (budget - 1)
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
      let av = Inttbl.find t.sink_args (Inttbl.pack (Invo_id.to_int f_invo) f_pos) in
      match Hashtbl.find_opt t.node_tbl (kvar av h.h_ctx) with
      | Some id when Intset.mem f_label t.all.(id) -> Some id
      | _ -> None
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
