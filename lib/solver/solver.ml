module Ir = Pta_ir.Ir
module Vec = Pta_ir.Vec
module Inttbl = Pta_ir.Inttbl
module Hierarchy = Pta_ir.Hierarchy
module Ctx = Pta_context.Ctx
module Strategy = Pta_context.Strategy
module Shortcut = Pta_context.Shortcut
module Budget = Pta_obs.Budget
module Trace = Pta_obs.Trace
module Memstats = Pta_obs.Memstats
module Census = Pta_obs.Census
module Clock = Pta_obs.Clock
open Ir

type hobj = int

(* What an edge lets through.  [Compat] is the cast filter; [Catches] and
   [Escapes] implement exception dispatch on the scope nodes: a handler
   edge passes objects compatible with its catch type but not already
   caught by an earlier handler, and the escape edge passes objects no
   handler catches. *)
type edge_filter =
  | Compat of Type_id.t
  | Catches of { ty : Type_id.t; skip : Type_id.t list }
  | Escapes of Type_id.t list

type edge = {
  dst : int;
  filter : edge_filter option;
}

(* A virtual-call site attached to its base variable's node; fires for
   every abstract object reaching the base. *)
type vcall_site = {
  vc_invo : Invo_id.t;
  vc_sig : Sig_id.t;
  vc_args : Var_id.t list;
  vc_ret : Var_id.t option;
  vc_ctx : Ctx.id;  (* caller context *)
  vc_exc : int;  (* scope node receiving the callee's escaping exceptions *)
  vc_cut : bool;  (* cut-shortcut site: no parameter/return wiring *)
}

type load_trigger = { ld_field : Field_id.t; ld_target : int }
type store_trigger = { st_field : Field_id.t; st_source : int }

type node_id = int

type node_kind =
  | Var_node of Var_id.t * Ctx.id
  | Fld_node of hobj * Field_id.t
  | Static_fld_node of Field_id.t
  | Throw_node of Meth_id.t * Ctx.id
  | Scope_node

(* Keyed by set identity: consing makes it extensional. *)
module Set_tbl = Hashtbl.Make (Intset)

type node = {
  mutable all : Intset.t;
  mutable pending : Intset.t;  (* invariant: disjoint from [all] *)
  mutable queued : bool;
  mutable prio : int;
      (* pseudo-topological position in the copy subgraph (sources low);
         0 until the first reprioritization pass *)
  mutable succs : edge list;
  mutable vcalls : vcall_site list;
  mutable loads : load_trigger list;
  mutable stores : store_trigger list;
}

type t = {
  program : Program.t;
  strategy : Strategy.t;
  hierarchy : Hierarchy.t;
  field_based : bool;
  trace : Trace.t;
      (* every emission is guarded by a physical-equality check against
         [Trace.null]; an untraced run pays nothing *)
  mutable solved : bool;
      (* set once the worklists drain; false on a budget abort, so
         clients can refuse to walk a partially-populated supergraph *)
  ctx_store : Ctx.store;
  hctx_store : Ctx.store;
  (* hobj interning; every table keyed by ids is an [Inttbl], its
     pairs of ids packed into one int *)
  hobj_table : Inttbl.t;  (* (heap, hctx) -> hobj *)
  hobj_heaps : int Vec.t;
  hobj_hctxs : int Vec.t;
  hobj_types : Type_id.t Vec.t;
  (* supergraph nodes *)
  nodes : node Vec.t;
  var_nodes : Inttbl.t;  (* (var, ctx) -> node *)
  fld_nodes : Inttbl.t;
      (* (hobj + 1, field) -> node; hobj is -1 in field-based mode *)
  static_fld_nodes : int array;  (* static field -> node, or -1 *)
  throw_nodes : Inttbl.t;
      (* (meth, ctx) -> node holding the exceptions escaping the method:
         ThrowPointsTo(meth, ctx) *)
  edge_seen : Inttbl.t;
      (* set of ((src, dst), filter), keyed by ids canonical at insertion
         time *)
  (* cycle elimination: copy-edge SCCs collapse onto one shared [node]
     record; [unify] maps any node id to its class's canonical id *)
  unify : Unify.t;
  mutable copy_edges_since_scc : int;
  mutable copy_edges_total : int;
  mutable scc_threshold : int;
  (* worklists *)
  pq : Pqueue.t;
  meth_queue : (Meth_id.t * Ctx.id) Queue.t;
  (* facts *)
  reachable : Inttbl.t;  (* set of (meth, ctx) *)
  call_edges : Inttbl.t;
      (* set of ((invo, caller ctx), (meth, callee ctx)) *)
  (* memoized context-insensitive projections *)
  mutable var_node_index : int list array option;  (* var -> its nodes *)
  mutable ci_targets : Meth_id.Set.t Invo_id.Tbl.t option;
  mutable node_kinds : node_kind array option;  (* introspection memo *)
  heap_sets : Intset.t Set_tbl.t;
      (* hobj set -> its heap set, one entry per distinct set queried *)
  mutable heap_stamps : int array;  (* heap -> epoch that last added it *)
  mutable heap_epoch : int;  (* one per projected set *)
  (* run counters for the stats bundle; node, context and object counts
     are read off the tables above *)
  mutable n_edges : int;  (* flow edges attached *)
  mutable n_triggers : int;  (* vcall / load / store firings *)
  mutable delta_total : int;  (* objects in all processed deltas *)
  mutable max_delta : int;
  mutable sccs_collapsed : int;  (* copy-edge SCCs collapsed online *)
  mutable nodes_unified : int;  (* nodes absorbed into a representative *)
  mutable stale_skipped : int;
      (* worklist entries skipped because their node was already drained
         or unified away by an earlier visit *)
  mutable setup_s : float;
  mutable fixpoint_s : float;
}

(* ------------------------------------------------------------------ *)
(* Interning                                                           *)
(* ------------------------------------------------------------------ *)

let intern_hobj st heap hctx =
  let key = Inttbl.pack (Heap_id.to_int heap) hctx in
  let h = Inttbl.find st.hobj_table key in
  if h <> Inttbl.absent then h
  else begin
    let h = Vec.push st.hobj_heaps (Heap_id.to_int heap) in
    let (_ : int) = Vec.push st.hobj_hctxs hctx in
    let (_ : int) =
      Vec.push st.hobj_types (Program.heap_info st.program heap).heap_type
    in
    Inttbl.add st.hobj_table key h;
    h
  end

let fresh_node st =
  let nid =
    Vec.push st.nodes
      {
        all = Intset.empty;
        pending = Intset.empty;
        queued = false;
        prio = 0;
        succs = [];
        vcalls = [];
        loads = [];
        stores = [];
      }
  in
  Unify.ensure st.unify (nid + 1);
  nid

(* The node bound to [key] in [table], made on first use. *)
let keyed_node st table key =
  let n = Inttbl.find table key in
  if n <> Inttbl.absent then n
  else begin
    let n = fresh_node st in
    Inttbl.add table key n;
    n
  end

let var_node st var ctx =
  keyed_node st st.var_nodes (Inttbl.pack (Var_id.to_int var) ctx)

(* Static fields are global cells: one node each, no context and no base
   object — exactly the treatment the paper calls "a mere engineering
   complexity" orthogonal to context choice. *)
let static_fld_node st field =
  let i = Field_id.to_int field in
  let n = st.static_fld_nodes.(i) in
  if n >= 0 then n
  else begin
    let n = fresh_node st in
    st.static_fld_nodes.(i) <- n;
    n
  end

let fld_node st hobj field =
  (* Field-based mode conflates all base objects into one cell per
     field. *)
  let hobj = if st.field_based then -1 else hobj in
  keyed_node st st.fld_nodes (Inttbl.pack (hobj + 1) (Field_id.to_int field))

let throw_node st meth ctx =
  keyed_node st st.throw_nodes (Inttbl.pack (Meth_id.to_int meth) ctx)

(* ------------------------------------------------------------------ *)
(* Difference propagation                                              *)
(* ------------------------------------------------------------------ *)

(* Unified nodes share one [node] record (every member's slot in
   [st.nodes] aliases it), so a stale id reaching here still lands on
   the merged state; [Unify.find] is only needed where the {e id} itself
   is semantic (edge keys, SCC traversal, introspection). *)
let push st nid set =
  let n = Vec.get st.nodes nid in
  let fresh = Intset.diff2 set n.all n.pending in
  if not (Intset.is_empty fresh) then begin
    n.pending <- Intset.union n.pending fresh;
    if not n.queued then begin
      n.queued <- true;
      Pqueue.push st.pq ~prio:n.prio nid
    end
  end

let filter_set st set = function
  | None -> set
  | Some f ->
    let compat hobj sup =
      Hierarchy.subtype st.hierarchy ~sub:(Vec.get st.hobj_types hobj) ~sup
    in
    (match f with
    | Compat cast_type -> Intset.filter (fun hobj -> compat hobj cast_type) set
    | Catches { ty; skip } ->
      Intset.filter
        (fun hobj ->
          compat hobj ty && not (List.exists (compat hobj) skip))
        set
    | Escapes tys ->
      Intset.filter (fun hobj -> not (List.exists (compat hobj) tys)) set)

let attach_edge st ~src ~dst ~filter =
  st.n_edges <- st.n_edges + 1;
  let n = Vec.get st.nodes src in
  n.succs <- { dst; filter } :: n.succs;
  if filter == None then begin
    st.copy_edges_since_scc <- st.copy_edges_since_scc + 1;
    st.copy_edges_total <- st.copy_edges_total + 1
  end;
  let existing = Intset.union n.all n.pending in
  if not (Intset.is_empty existing) then
    push st dst (filter_set st existing filter)

let add_edge st ~src ~dst ~filter =
  (* Canonical ids make the self-loop check see through unification and
     keep the dedup table from growing one entry per alias.  Keys are
     canonical only as of insertion time — a later collapse can let a
     duplicate through — but propagation is idempotent, so a rare
     duplicate edge costs a little work, never correctness. *)
  let src = Unify.find st.unify src and dst = Unify.find st.unify dst in
  if src <> dst || filter <> None then begin
    let fkey =
      match filter with
      | None -> -1
      | Some (Compat t) -> Type_id.to_int t
      | Some (Catches _ | Escapes _) ->
        (* Scope edges are wired exactly once per (method, context)
           traversal, onto a node created by that same traversal, so
           they never need deduplication — and must not collide in the
           table. *)
        invalid_arg "add_edge: exception-scope edges use attach_edge"
    in
    if Inttbl.add_new st.edge_seen (Inttbl.pack src dst) fkey then
      attach_edge st ~src ~dst ~filter
  end

(* ------------------------------------------------------------------ *)
(* Online cycle elimination and reprioritization                       *)
(* ------------------------------------------------------------------ *)

(* Lazy SCC detection in the Nuutila/Pearce tradition, amortized: rather
   than probing on every edge insertion (LCD-style), we run one iterative
   Tarjan pass over the copy (filter=None) subgraph whenever enough new
   copy edges have accumulated — the threshold doubles with the graph, so
   total detection work is O(E log E).  Each multi-node SCC collapses
   onto one shared record: members provably converge to the same set at
   fixpoint, so the class thereafter propagates once instead of churning
   the worklist around the cycle.

   The same pass recomputes a pseudo-topological order of the condensed
   copy DAG (Tarjan completion order reversed: sources first) and rebuilds
   the priority queue, so deltas flow source→sink. *)
let collapse_and_reprioritize st =
  let n = Vec.length st.nodes in
  let unify = st.unify in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp_of = Array.make n (-1) in
  let stack = ref [] in
  let next = ref 0 in
  let n_comps = ref 0 in
  let sccs = ref [] in
  (* Copy successors of a canonical node, canonicalized; self-loops are
     irrelevant to both SCCs and order. *)
  let copy_succs v =
    List.filter_map
      (fun e ->
        match e.filter with
        | None ->
          let w = Unify.find unify e.dst in
          if w = v then None else Some w
        | Some _ -> None)
      (Vec.get st.nodes v).succs
  in
  let strongconnect v =
    index.(v) <- !next;
    lowlink.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on_stack.(v) <- true;
    (* Explicit work stack: (node, unexplored successors). *)
    let work = ref [ (v, copy_succs v) ] in
    while !work <> [] do
      match !work with
      | [] -> ()
      | (v, succs) :: rest -> (
        match succs with
        | w :: ws ->
          work := (v, ws) :: rest;
          if index.(w) = -1 then begin
            index.(w) <- !next;
            lowlink.(w) <- !next;
            incr next;
            stack := w :: !stack;
            on_stack.(w) <- true;
            work := (w, copy_succs w) :: !work
          end
          else if on_stack.(w) then
            lowlink.(v) <- min lowlink.(v) index.(w)
        | [] ->
          work := rest;
          if lowlink.(v) = index.(v) then begin
            (* v roots an SCC: pop members, stamp completion index. *)
            let members = ref [] in
            let continue_pop = ref true in
            while !continue_pop do
              match !stack with
              | w :: tl ->
                stack := tl;
                on_stack.(w) <- false;
                comp_of.(w) <- !n_comps;
                members := w :: !members;
                if w = v then continue_pop := false
              | [] -> assert false
            done;
            incr n_comps;
            (match !members with
            | _ :: _ :: _ -> sccs := !members :: !sccs
            | _ -> ())
          end;
          (match rest with
          | (u, _) :: _ -> lowlink.(u) <- min lowlink.(u) lowlink.(v)
          | [] -> ()))
    done
  in
  for v = 0 to n - 1 do
    if Unify.find unify v = v && index.(v) = -1 then strongconnect v
  done;
  (* Merge each multi-node SCC onto its smallest member. *)
  List.iter
    (fun members ->
      let rep = List.fold_left min max_int members in
      List.iter (fun o -> ignore (Unify.union unify rep o)) members;
      (* The merged set state: what every member already propagated stays
         in [all]; anything only some member had (or had pending) must
         flow through the merged successor list, so it lands in
         [pending].  Idempotent for downstream nodes (push diffs against
         their state). *)
      let inter_all =
        List.fold_left
          (fun acc o -> Intset.inter acc (Vec.get st.nodes o).all)
          (Vec.get st.nodes rep).all members
      in
      let union_reach =
        List.fold_left
          (fun acc o ->
            let r = Vec.get st.nodes o in
            Intset.union acc (Intset.union r.all r.pending))
          Intset.empty members
      in
      let pending = Intset.diff union_reach inter_all in
      let merge_lists f =
        List.fold_left (fun acc o -> List.rev_append (f (Vec.get st.nodes o)) acc)
          [] members
      in
      let succs =
        (* Drop intra-class copy edges — the collapse replaces them. *)
        List.filter
          (fun e -> not (e.filter == None && Unify.find unify e.dst = rep))
          (merge_lists (fun r -> r.succs))
      in
      let merged =
        {
          all = inter_all;
          pending;
          queued = not (Intset.is_empty pending);
          prio = 0;
          succs;
          vcalls = merge_lists (fun r -> r.vcalls);
          loads = merge_lists (fun r -> r.loads);
          stores = merge_lists (fun r -> r.stores);
        }
      in
      List.iter (fun o -> Vec.set st.nodes o merged) members;
      st.sccs_collapsed <- st.sccs_collapsed + 1;
      st.nodes_unified <- st.nodes_unified + List.length members - 1)
    !sccs;
  (* Canonicalize every alias slot (members of classes merged in earlier
     passes must alias the newest record too), assign pseudo-topological
     priorities, and rebuild the queue with exactly one entry per queued
     class. *)
  let entries_before = Pqueue.length st.pq in
  Pqueue.clear st.pq;
  let nc = !n_comps in
  for i = 0 to n - 1 do
    let r = Unify.find unify i in
    if r <> i then Vec.set st.nodes i (Vec.get st.nodes r)
    else begin
      let node = Vec.get st.nodes i in
      node.prio <- nc - 1 - comp_of.(i);
      if node.queued then Pqueue.push st.pq ~prio:node.prio i
    end
  done;
  (* Entries not re-created were duplicates of a now-unified class (or
     already drained): visits the collapse saved us. *)
  st.stale_skipped <- st.stale_skipped + entries_before - Pqueue.length st.pq;
  st.copy_edges_since_scc <- 0;
  st.scc_threshold <- max 512 st.copy_edges_total

(* ------------------------------------------------------------------ *)
(* Reachability and call wiring                                        *)
(* ------------------------------------------------------------------ *)

let mark_reachable st meth ctx =
  if Inttbl.add_new st.reachable (Meth_id.to_int meth) ctx then
    Queue.add (meth, ctx) st.meth_queue

(* Record a call-graph edge; on first discovery wire the parameter and
   return-value assignments (the two InterProcAssign rules) and make the
   callee reachable under the callee context.  A [cut] site keeps the
   call-graph edge, reachability and exception wiring, but the
   parameter/return flow is replaced by the shortcut items the caller
   applied in its own context (see [apply_shortcut]). *)
let wire_call st ~invo ~caller_ctx ~callee ~callee_ctx ~args ~ret_target
    ~exc_target ~cut =
  if
    Inttbl.add_new st.call_edges
      (Inttbl.pack (Invo_id.to_int invo) caller_ctx)
      (Inttbl.pack (Meth_id.to_int callee) callee_ctx)
  then begin
    mark_reachable st callee callee_ctx;
    let mi = Program.meth_info st.program callee in
    let n_formals = Array.length mi.formals in
    if not cut then
      List.iteri
        (fun i actual ->
          if i < n_formals then
            add_edge st
              ~src:(var_node st actual caller_ctx)
              ~dst:(var_node st mi.formals.(i) callee_ctx)
              ~filter:None)
        args;
    (* Exceptions escaping the callee unwind into the call site's
       enclosing scope. *)
    add_edge st ~src:(throw_node st callee callee_ctx) ~dst:exc_target
      ~filter:None;
    if not cut then
      match (mi.ret_var, ret_target) with
      | Some from_var, Some to_var ->
        add_edge st
          ~src:(var_node st from_var callee_ctx)
          ~dst:(var_node st to_var caller_ctx)
          ~filter:None
      | _ -> ()
  end

(* The virtual-call rule: one abstract object [hobj] reached the call's
   base variable.  Resolve the target, build the callee context with
   [Merge], bind [this], and wire the edge. *)
let dispatch st (vc : vcall_site) hobj =
  st.n_triggers <- st.n_triggers + 1;
  let heap = Heap_id.of_int (Vec.get st.hobj_heaps hobj) in
  let receiver_type = Vec.get st.hobj_types hobj in
  match Hierarchy.lookup st.hierarchy receiver_type vc.vc_sig with
  | None -> ()  (* no matching method: dispatch failure, as in Doop *)
  | Some callee ->
    let mi = Program.meth_info st.program callee in
    if not mi.meth_static then begin
      let hctx = Ctx.value st.hctx_store (Vec.get st.hobj_hctxs hobj) in
      let ctx = Ctx.value st.ctx_store vc.vc_ctx in
      let callee_ctx =
        Ctx.intern st.ctx_store
          (st.strategy.Strategy.merge ~heap ~hctx ~invo:vc.vc_invo ~callee ~ctx)
      in
      (match mi.this_var with
      | Some this -> push st (var_node st this callee_ctx) (Intset.singleton hobj)
      | None -> ());
      wire_call st ~invo:vc.vc_invo ~caller_ctx:vc.vc_ctx ~callee ~callee_ctx
        ~args:vc.vc_args ~ret_target:vc.vc_ret ~exc_target:vc.vc_exc
        ~cut:vc.vc_cut
    end

(* ------------------------------------------------------------------ *)
(* Instruction processing: runs once per reachable (method, context)    *)
(* ------------------------------------------------------------------ *)

let fire_load st trigger hobj =
  st.n_triggers <- st.n_triggers + 1;
  add_edge st
    ~src:(fld_node st hobj trigger.ld_field)
    ~dst:trigger.ld_target ~filter:None

let fire_store st trigger hobj =
  st.n_triggers <- st.n_triggers + 1;
  add_edge st ~src:trigger.st_source
    ~dst:(fld_node st hobj trigger.st_field)
    ~filter:None

(* Trigger attachment replays the node's existing objects; when traced,
   each replay is one per-edge-kind complete span (same names as the
   delta-propagation spans in [process_node]). *)
let attach_load st base_node trigger =
  let n = Vec.get st.nodes base_node in
  n.loads <- trigger :: n.loads;
  if Trace.is_null st.trace || Intset.is_empty n.all then
    Intset.iter (fun hobj -> fire_load st trigger hobj) n.all
  else begin
    let t0 = Trace.now_us st.trace in
    let a0 = Trace.alloc_mark st.trace in
    Intset.iter (fun hobj -> fire_load st trigger hobj) n.all;
    Trace.complete st.trace ~alloc:a0
      ~delta:(Intset.cardinal n.all)
      ~cat:"solver" ~name:"load" ~t0_us:t0
      ~dur_us:(Trace.now_us st.trace -. t0)
  end

let attach_store st base_node trigger =
  let n = Vec.get st.nodes base_node in
  n.stores <- trigger :: n.stores;
  if Trace.is_null st.trace || Intset.is_empty n.all then
    Intset.iter (fun hobj -> fire_store st trigger hobj) n.all
  else begin
    let t0 = Trace.now_us st.trace in
    let a0 = Trace.alloc_mark st.trace in
    Intset.iter (fun hobj -> fire_store st trigger hobj) n.all;
    Trace.complete st.trace ~alloc:a0
      ~delta:(Intset.cardinal n.all)
      ~cat:"solver" ~name:"store" ~t0_us:t0
      ~dur_us:(Trace.now_us st.trace -. t0)
  end

let attach_vcall st base_node vc =
  let n = Vec.get st.nodes base_node in
  n.vcalls <- vc :: n.vcalls;
  if Trace.is_null st.trace || Intset.is_empty n.all then
    Intset.iter (fun hobj -> dispatch st vc hobj) n.all
  else begin
    let t0 = Trace.now_us st.trace in
    let a0 = Trace.alloc_mark st.trace in
    Intset.iter (fun hobj -> dispatch st vc hobj) n.all;
    Trace.complete st.trace ~alloc:a0
      ~delta:(Intset.cardinal n.all)
      ~cat:"solver" ~name:"vcall" ~t0_us:t0
      ~dur_us:(Trace.now_us st.trace -. t0)
  end

(* Cut-shortcut: the caller-side flows replacing a cut call's
   parameter/return wiring, applied in the caller's own context.  The
   injected edges and triggers are exactly what the equivalent
   move/load/store instructions would produce, which is what keeps the
   two engines fact-identical under shortcut strategies. *)
let shortcut_action st invo =
  match st.strategy.Strategy.shortcut with
  | None -> None
  | Some plan -> Shortcut.action plan invo

let apply_shortcut st ~ctx ~base ~args ~ret_target items =
  let arg_var = function
    | Shortcut.This -> base
    | Shortcut.Param i -> List.nth_opt args i
  in
  List.iter
    (fun item ->
      match item with
      | Shortcut.Copy_ret arg -> (
        match (ret_target, arg_var arg) with
        | Some ret, Some src ->
          add_edge st ~src:(var_node st src ctx) ~dst:(var_node st ret ctx)
            ~filter:None
        | _ -> ())
      | Shortcut.Load_ret field -> (
        match (ret_target, base) with
        | Some ret, Some b ->
          attach_load st (var_node st b ctx)
            { ld_field = field; ld_target = var_node st ret ctx }
        | _ -> ())
      | Shortcut.Store_field (field, arg) -> (
        match (base, arg_var arg) with
        | Some b, Some src ->
          attach_store st (var_node st b ctx)
            { st_field = field; st_source = var_node st src ctx }
        | _ -> ()))
    items

let rec process_code st ~ctx ~ctx_value ~exc_target code =
  match code with
  | Instr instr -> process_instr st ~ctx ~ctx_value ~exc_target instr
  | Seq cs -> List.iter (process_code st ~ctx ~ctx_value ~exc_target) cs
  | Branch (a, b) ->
    process_code st ~ctx ~ctx_value ~exc_target a;
    process_code st ~ctx ~ctx_value ~exc_target b
  | Loop c -> process_code st ~ctx ~ctx_value ~exc_target c
  | Try (body, handlers) ->
    (* One scope node per (method, context) traversal of this block.
       Objects thrown inside flow to the first compatible handler's
       variable; objects no handler catches escape outward. *)
    let scope = fresh_node st in
    let rec wire skip = function
      | [] ->
        attach_edge st ~src:scope ~dst:exc_target
          ~filter:(Some (Escapes (List.rev skip)))
      | h :: rest ->
        attach_edge st ~src:scope
          ~dst:(var_node st h.catch_var ctx)
          ~filter:(Some (Catches { ty = h.catch_type; skip = List.rev skip }));
        wire (h.catch_type :: skip) rest
    in
    wire [] handlers;
    process_code st ~ctx ~ctx_value ~exc_target:scope body;
    (* Handler bodies run outside the protected region. *)
    List.iter
      (fun h -> process_code st ~ctx ~ctx_value ~exc_target h.handler_body)
      handlers

and process_instr st ~ctx ~ctx_value ~exc_target instr =
  match instr with
  | Alloc { target; heap } ->
    (* The Record rule: allocation in a reachable method. *)
    let hctx =
      Ctx.intern st.hctx_store (st.strategy.Strategy.record ~heap ~ctx:ctx_value)
    in
    push st (var_node st target ctx) (Intset.singleton (intern_hobj st heap hctx))
  | Move { target; source } ->
    add_edge st ~src:(var_node st source ctx) ~dst:(var_node st target ctx)
      ~filter:None
  | Cast { target; source; cast_type } ->
    add_edge st ~src:(var_node st source ctx) ~dst:(var_node st target ctx)
      ~filter:(Some (Compat cast_type))
  | Load { target; base; field } ->
    attach_load st (var_node st base ctx)
      { ld_field = field; ld_target = var_node st target ctx }
  | Store { base; field; source } ->
    attach_store st (var_node st base ctx)
      { st_field = field; st_source = var_node st source ctx }
  | Virtual_call { base; signature; invo; args; ret_target } ->
    let cut =
      match shortcut_action st invo with
      | Some items ->
        apply_shortcut st ~ctx ~base:(Some base) ~args ~ret_target items;
        true
      | None -> false
    in
    attach_vcall st (var_node st base ctx)
      {
        vc_invo = invo;
        vc_sig = signature;
        vc_args = args;
        vc_ret = ret_target;
        vc_ctx = ctx;
        vc_exc = exc_target;
        vc_cut = cut;
      }
  | Static_call { callee; invo; args; ret_target } ->
    (* The MergeStatic rule. *)
    let cut =
      match shortcut_action st invo with
      | Some items ->
        apply_shortcut st ~ctx ~base:None ~args ~ret_target items;
        true
      | None -> false
    in
    if Trace.is_null st.trace then begin
      let callee_ctx =
        Ctx.intern st.ctx_store
          (st.strategy.Strategy.merge_static ~invo ~callee ~ctx:ctx_value)
      in
      wire_call st ~invo ~caller_ctx:ctx ~callee ~callee_ctx ~args ~ret_target
        ~exc_target ~cut
    end
    else begin
      let t0 = Trace.now_us st.trace in
      let a0 = Trace.alloc_mark st.trace in
      let callee_ctx =
        Ctx.intern st.ctx_store
          (st.strategy.Strategy.merge_static ~invo ~callee ~ctx:ctx_value)
      in
      wire_call st ~invo ~caller_ctx:ctx ~callee ~callee_ctx ~args ~ret_target
        ~exc_target ~cut;
      Trace.complete st.trace ~alloc:a0 ~delta:1 ~cat:"solver" ~name:"scall"
        ~t0_us:t0
        ~dur_us:(Trace.now_us st.trace -. t0)
    end
  | Static_load { target; field } ->
    add_edge st ~src:(static_fld_node st field) ~dst:(var_node st target ctx)
      ~filter:None
  | Static_store { field; source } ->
    add_edge st ~src:(var_node st source ctx) ~dst:(static_fld_node st field)
      ~filter:None
  | Throw { source } ->
    add_edge st ~src:(var_node st source ctx) ~dst:exc_target ~filter:None

let process_method st meth ctx =
  let ctx_value = Ctx.value st.ctx_store ctx in
  let mi = Program.meth_info st.program meth in
  process_code st ~ctx ~ctx_value ~exc_target:(throw_node st meth ctx) mi.body

let process_node st nid =
  let n = Vec.get st.nodes nid in
  n.queued <- false;
  let delta = n.pending in
  n.pending <- Intset.empty;
  if not (Intset.is_empty delta) then begin
    let card = Intset.cardinal delta in
    st.delta_total <- st.delta_total + card;
    if card > st.max_delta then st.max_delta <- card;
    n.all <- Intset.union n.all delta;
    if Trace.is_null st.trace then begin
      List.iter
        (fun e -> push st e.dst (filter_set st delta e.filter))
        n.succs;
      List.iter
        (fun vc -> Intset.iter (fun hobj -> dispatch st vc hobj) delta)
        n.vcalls;
      List.iter
        (fun ld -> Intset.iter (fun hobj -> fire_load st ld hobj) delta)
        n.loads;
      List.iter
        (fun stg -> Intset.iter (fun hobj -> fire_store st stg hobj) delta)
        n.stores
    end
    else begin
      (* Traced: one complete span per edge kind with work to do, its
         delta being the objects propagated through that kind. *)
      let tr = st.trace in
      if n.succs <> [] then begin
        let t0 = Trace.now_us tr in
        let a0 = Trace.alloc_mark tr in
        List.iter
          (fun e -> push st e.dst (filter_set st delta e.filter))
          n.succs;
        Trace.complete tr ~alloc:a0 ~delta:card ~cat:"solver" ~name:"move"
          ~t0_us:t0 ~dur_us:(Trace.now_us tr -. t0)
      end;
      if n.vcalls <> [] then begin
        let t0 = Trace.now_us tr in
        let a0 = Trace.alloc_mark tr in
        List.iter
          (fun vc -> Intset.iter (fun hobj -> dispatch st vc hobj) delta)
          n.vcalls;
        Trace.complete tr ~alloc:a0 ~delta:card ~cat:"solver" ~name:"vcall"
          ~t0_us:t0 ~dur_us:(Trace.now_us tr -. t0)
      end;
      if n.loads <> [] then begin
        let t0 = Trace.now_us tr in
        let a0 = Trace.alloc_mark tr in
        List.iter
          (fun ld -> Intset.iter (fun hobj -> fire_load st ld hobj) delta)
          n.loads;
        Trace.complete tr ~alloc:a0 ~delta:card ~cat:"solver" ~name:"load"
          ~t0_us:t0 ~dur_us:(Trace.now_us tr -. t0)
      end;
      if n.stores <> [] then begin
        let t0 = Trace.now_us tr in
        let a0 = Trace.alloc_mark tr in
        List.iter
          (fun stg -> Intset.iter (fun hobj -> fire_store st stg hobj) delta)
          n.stores;
        Trace.complete tr ~alloc:a0 ~delta:card ~cat:"solver" ~name:"store"
          ~t0_us:t0 ~dur_us:(Trace.now_us tr -. t0)
      end
    end
  end

module Config = struct
  type t = {
    budget : Budget.t;
    field_based : bool;
    trace : Trace.t;
    mem_tracker : Memstats.tracker option;
    mem_sample_every : int;
  }

  let default_mem_sample_every = 1024

  let default =
    {
      budget = Budget.unlimited ();
      field_based = false;
      trace = Trace.null;
      mem_tracker = None;
      mem_sample_every = default_mem_sample_every;
    }

  let make ?timeout_s ?(field_based = false) ?(trace = Trace.null) ?mem_tracker
      ?(mem_sample_every = default_mem_sample_every) () =
    {
      budget = Budget.of_seconds_opt timeout_s;
      field_based;
      trace;
      mem_tracker;
      mem_sample_every = max 1 mem_sample_every;
    }
end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

exception Timeout = Budget.Exhausted

type outcome =
  | Complete of t
  | Aborted of t * Budget.abort

(* ------------------------------------------------------------------ *)
(* Reachable-heap census                                               *)
(* ------------------------------------------------------------------ *)

(* Census component order is an ownership order: a block reachable from
   several components is retained by the earliest one listed, so the
   points-to sets come first (they are the cost the paper's Table 1 is
   about), then the supergraph structure, then bookkeeping.  Every root
   below is closure-free data (records, lists, arrays, flat [Inttbl]s
   and the memo hashtables), so no component accidentally retains
   captured environments.

   SCC collapse makes unified node ids alias one shared record; roots
   are taken once per canonical id so the unshared view does not count
   a merged class once per member. *)
let census st =
  let n = Vec.length st.nodes in
  let canonical = Array.make (max n 1) false in
  for nid = 0 to n - 1 do
    canonical.(Unify.find st.unify nid) <- true
  done;
  let fold_canonical f acc =
    let acc = ref acc in
    for nid = 0 to n - 1 do
      if canonical.(nid) then acc := f !acc (Vec.get st.nodes nid)
    done;
    !acc
  in
  let sets =
    fold_canonical
      (fun acc nd -> Obj.repr nd.all :: Obj.repr nd.pending :: acc)
      []
  in
  let edges =
    fold_canonical
      (fun acc nd ->
        Obj.repr nd.succs :: Obj.repr nd.vcalls :: Obj.repr nd.loads
        :: Obj.repr nd.stores :: acc)
      []
  in
  let cardinals =
    fold_canonical (fun acc nd -> Intset.cardinal nd.all :: acc) []
  in
  let set_hist =
    Census.hist_of_values ~bounds:(Census.pow2_bounds 14) cardinals
  in
  Census.survey ~set_hist
    [
      ("points-to-sets", sets);
      ("edge-lists", edges);
      ( "node-tables",
        [
          Obj.repr st.nodes;
          Obj.repr st.var_nodes;
          Obj.repr st.fld_nodes;
          Obj.repr st.static_fld_nodes;
          Obj.repr st.throw_nodes;
          Obj.repr st.edge_seen;
        ] );
      ("context-tables", [ Obj.repr st.ctx_store; Obj.repr st.hctx_store ]);
      ( "hobj-tables",
        [
          Obj.repr st.hobj_table;
          Obj.repr st.hobj_heaps;
          Obj.repr st.hobj_hctxs;
          Obj.repr st.hobj_types;
        ] );
      ("unification-forest", [ Obj.repr st.unify ]);
      ("call-graph-facts", [ Obj.repr st.reachable; Obj.repr st.call_edges ]);
      ("worklists", [ Obj.repr st.pq; Obj.repr st.meth_queue ]);
      ( "memos",
        [
          Obj.repr st.var_node_index; Obj.repr st.ci_targets;
          Obj.repr st.node_kinds; Obj.repr st.heap_sets;
          Obj.repr st.heap_stamps;
        ] );
    ]

let solve_outcome ?(config = Config.default) program strategy =
  let trace = config.Config.trace in
  let setup_clock = Clock.create () in
  let st =
    Trace.span trace ~cat:"phase" "setup" @@ fun () ->
    let st =
      {
        program;
        strategy;
        hierarchy = Hierarchy.create program;
        field_based = config.Config.field_based;
        trace;
        solved = false;
        ctx_store = Ctx.create_store ();
        hctx_store = Ctx.create_store ();
        hobj_table = Inttbl.create_map ();
        hobj_heaps = Vec.create ();
        hobj_hctxs = Vec.create ();
        hobj_types = Vec.create ();
        nodes = Vec.create ();
        var_nodes = Inttbl.create_map ();
        fld_nodes = Inttbl.create_map ();
        static_fld_nodes = Array.make (Program.n_fields program) (-1);
        throw_nodes = Inttbl.create_map ();
        edge_seen = Inttbl.create_set ();
        unify = Unify.create ~capacity:4096 ();
        copy_edges_since_scc = 0;
        copy_edges_total = 0;
        scc_threshold = 512;
        pq = Pqueue.create ();
        meth_queue = Queue.create ();
        reachable = Inttbl.create_set ();
        call_edges = Inttbl.create_set ();
        var_node_index = None;
        ci_targets = None;
        node_kinds = None;
        heap_sets = Set_tbl.create 64;
        heap_stamps = [||];
        heap_epoch = 0;
        n_edges = 0;
        n_triggers = 0;
        delta_total = 0;
        max_delta = 0;
        sccs_collapsed = 0;
        nodes_unified = 0;
        stale_skipped = 0;
        setup_s = 0.;
        fixpoint_s = 0.;
      }
    in
    let initial_ctx = Ctx.intern st.ctx_store strategy.Strategy.initial_ctx in
    List.iter
      (fun m -> mark_reachable st m initial_ctx)
      (Program.entries program);
    st
  in
  st.setup_s <- Clock.elapsed_s setup_clock;
  let budget = config.Config.budget in
  Budget.start budget ~probe:(fun () -> Vec.length st.nodes);
  let fixpoint () =
    Trace.span trace ~cat:"phase" "fixpoint" @@ fun () ->
    (* Periodic peak-heap sampling: the tracker's [Gc.alarm] only fires
       at major-cycle ends, so a long alarm-free stretch (e.g. one huge
       allocation that never triggers a cycle) would under-report the
       peak.  Gated on iteration count; [None] costs one match per
       iteration. *)
    let mem_every = config.Config.mem_sample_every in
    let mem_countdown = ref mem_every in
    let mem_tick () =
      match config.Config.mem_tracker with
      | None -> ()
      | Some t ->
        decr mem_countdown;
        if !mem_countdown <= 0 then begin
          Memstats.sample t;
          mem_countdown := mem_every
        end
    in
    let rec loop () =
      if not (Queue.is_empty st.meth_queue) then begin
        Budget.tick budget;
        mem_tick ();
        let meth, ctx = Queue.pop st.meth_queue in
        process_method st meth ctx;
        loop ()
      end
      else if not (Pqueue.is_empty st.pq) then begin
        Budget.tick budget;
        mem_tick ();
        if st.copy_edges_since_scc >= st.scc_threshold then
          collapse_and_reprioritize st;
        if not (Pqueue.is_empty st.pq) then begin
          let nid = Pqueue.pop st.pq in
          if (Vec.get st.nodes nid).queued then process_node st nid
          else st.stale_skipped <- st.stale_skipped + 1
        end;
        loop ()
      end
    in
    loop ()
  in
  let fixpoint_clock = Clock.create () in
  match fixpoint () with
  | () ->
    st.fixpoint_s <- Clock.elapsed_s fixpoint_clock;
    Budget.stop budget;
    st.solved <- true;
    Complete st
  | exception Budget.Exhausted abort ->
    st.fixpoint_s <- Clock.elapsed_s fixpoint_clock;
    Budget.stop budget;
    Aborted (st, abort)

let solve ?config program strategy =
  match solve_outcome ?config program strategy with
  | Complete st -> st
  | Aborted (_, abort) -> raise (Timeout abort)

let is_complete st = st.solved

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

let program st = st.program
let strategy st = st.strategy
let hierarchy st = st.hierarchy
let hobj_heap st h = Heap_id.of_int (Vec.get st.hobj_heaps h)
let hobj_hctx st h = Vec.get st.hobj_hctxs h
let hobj_type st h = Vec.get st.hobj_types h
let n_hobjs st = Vec.length st.hobj_heaps
let ctx_value st id = Ctx.value st.ctx_store id
let hctx_value st id = Ctx.value st.hctx_store id
let n_ctxs st = Ctx.size st.ctx_store
let n_hctxs st = Ctx.size st.hctx_store

let iter_var_points_to st f =
  Inttbl.iter
    (fun key nid ->
      f (Var_id.of_int (Inttbl.high key)) (Inttbl.low key)
        (Vec.get st.nodes nid).all)
    st.var_nodes

let var_points_to st var ctx =
  let nid = Inttbl.find st.var_nodes (Inttbl.pack (Var_id.to_int var) ctx) in
  if nid = Inttbl.absent then Intset.empty else (Vec.get st.nodes nid).all

let iter_fld_points_to st f =
  Inttbl.iter
    (fun key nid ->
      f (Inttbl.high key - 1) (Field_id.of_int (Inttbl.low key))
        (Vec.get st.nodes nid).all)
    st.fld_nodes

let static_fld_points_to st field =
  let n = st.static_fld_nodes.(Field_id.to_int field) in
  if n >= 0 then (Vec.get st.nodes n).all else Intset.empty

let iter_throw_points_to st f =
  Inttbl.iter
    (fun key nid ->
      f (Meth_id.of_int (Inttbl.high key)) (Inttbl.low key)
        (Vec.get st.nodes nid).all)
    st.throw_nodes

let iter_call_edges st f =
  Inttbl.iter
    (fun site target ->
      f (Invo_id.of_int (Inttbl.high site)) (Inttbl.low site)
        (Meth_id.of_int (Inttbl.high target)) (Inttbl.low target))
    st.call_edges

let iter_reachable st f =
  Inttbl.iter (fun meth ctx -> f (Meth_id.of_int meth) ctx) st.reachable

let sensitive_vpt_size st =
  Inttbl.fold
    (fun _ nid acc -> acc + Intset.cardinal (Vec.get st.nodes nid).all)
    st.var_nodes 0

let n_var_nodes st = Inttbl.length st.var_nodes
let n_reachable_cs st = Inttbl.length st.reachable
let n_call_edges_cs st = Inttbl.length st.call_edges
let n_edges st = st.n_edges
let n_triggers st = st.n_triggers
let delta_total st = st.delta_total
let max_delta st = st.max_delta
let sccs_collapsed st = st.sccs_collapsed
let nodes_unified st = st.nodes_unified
let stale_skipped st = st.stale_skipped
let phases st = [ ("setup", st.setup_s); ("fixpoint", st.fixpoint_s) ]

(* ------------------------------------------------------------------ *)
(* Supergraph introspection                                             *)
(* ------------------------------------------------------------------ *)

let n_nodes st = Vec.length st.nodes
let canonical_node st nid = Unify.find st.unify nid

let node_kind_table st =
  let kinds = Array.make (Vec.length st.nodes) Scope_node in
  Inttbl.iter
    (fun key nid ->
      kinds.(nid) <- Var_node (Var_id.of_int (Inttbl.high key), Inttbl.low key))
    st.var_nodes;
  Inttbl.iter
    (fun key nid ->
      kinds.(nid) <-
        Fld_node (Inttbl.high key - 1, Field_id.of_int (Inttbl.low key)))
    st.fld_nodes;
  Array.iteri
    (fun field nid ->
      if nid >= 0 then kinds.(nid) <- Static_fld_node (Field_id.of_int field))
    st.static_fld_nodes;
  Inttbl.iter
    (fun key nid ->
      kinds.(nid) <-
        Throw_node (Meth_id.of_int (Inttbl.high key), Inttbl.low key))
    st.throw_nodes;
  kinds

let node_kind st nid =
  let kinds =
    match st.node_kinds with
    | Some k when Array.length k = Vec.length st.nodes -> k
    | Some _ | None ->
      let k = node_kind_table st in
      st.node_kinds <- Some k;
      k
  in
  kinds.(nid)

let node_points_to st nid = (Vec.get st.nodes nid).all

let node_succs_passing st nid hobj =
  List.filter_map
    (fun e ->
      if Intset.mem hobj (filter_set st (Intset.singleton hobj) e.filter) then
        Some e.dst
      else None)
    (Vec.get st.nodes nid).succs

(* One pass over the table marks each var node with its variable; a
   descending sweep over the node ids then conses every list in
   ascending order. *)
let var_node_ids st var =
  let index =
    match st.var_node_index with
    | Some t -> t
    | None ->
      let owner = Array.make (Vec.length st.nodes) (-1) in
      Inttbl.iter (fun key nid -> owner.(nid) <- Inttbl.high key) st.var_nodes;
      let t = Array.make (Program.n_vars st.program) [] in
      for nid = Array.length owner - 1 downto 0 do
        let v = owner.(nid) in
        if v >= 0 then t.(v) <- nid :: t.(v)
      done;
      st.var_node_index <- Some t;
      t
  in
  index.(Var_id.to_int var)

(* The heap set of one hobj set, built once per distinct set: the
   epoch stamps drop repeated heaps, then a sort feeds
   [Intset.of_sorted_array]. *)
let heap_set st hobjs =
  match Set_tbl.find_opt st.heap_sets hobjs with
  | Some heaps -> heaps
  | None ->
    if Array.length st.heap_stamps = 0 then
      st.heap_stamps <- Array.make (Program.n_heaps st.program) 0;
    st.heap_epoch <- st.heap_epoch + 1;
    let stamps = st.heap_stamps and epoch = st.heap_epoch in
    let distinct =
      Intset.fold
        (fun hobj acc ->
          let heap = Vec.get st.hobj_heaps hobj in
          if stamps.(heap) = epoch then acc
          else begin
            stamps.(heap) <- epoch;
            heap :: acc
          end)
        hobjs []
    in
    let sorted = Array.of_list distinct in
    Array.sort Int.compare sorted;
    let heaps = Intset.of_sorted_array sorted in
    Set_tbl.add st.heap_sets hobjs heaps;
    heaps

let ci_var_points_to st var =
  List.fold_left
    (fun acc nid -> Intset.union acc (heap_set st (Vec.get st.nodes nid).all))
    Intset.empty (var_node_ids st var)

let reachable_meths st =
  Inttbl.fold
    (fun meth _ acc -> Meth_id.Set.add (Meth_id.of_int meth) acc)
    st.reachable Meth_id.Set.empty

let invo_targets_table st =
  match st.ci_targets with
  | Some t -> t
  | None ->
    let t = Invo_id.Tbl.create 1024 in
    iter_call_edges st (fun invo _ meth _ ->
        let existing =
          Option.value ~default:Meth_id.Set.empty (Invo_id.Tbl.find_opt t invo)
        in
        Invo_id.Tbl.replace t invo (Meth_id.Set.add meth existing));
    st.ci_targets <- Some t;
    t

let invo_targets st invo =
  Option.value ~default:Meth_id.Set.empty
    (Invo_id.Tbl.find_opt (invo_targets_table st) invo)

let n_call_edges_ci st =
  Invo_id.Tbl.fold
    (fun _ targets acc -> acc + Meth_id.Set.cardinal targets)
    (invo_targets_table st) 0
