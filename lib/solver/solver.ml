module Ir = Pta_ir.Ir
module Vec = Pta_ir.Vec
module Inttbl = Pta_ir.Inttbl
module Hierarchy = Pta_ir.Hierarchy
module Ctx = Pta_context.Ctx
module Strategy = Pta_context.Strategy
module Shortcut = Pta_context.Shortcut
module Budget = Pta_obs.Budget
module Trace = Pta_obs.Trace
module Census = Pta_obs.Census
module Clock = Pta_obs.Clock
open Ir

type hobj = int

(* What a scope node's edge lets through, implementing exception
   dispatch: a handler edge passes objects compatible with its catch
   type but not already caught by an earlier handler, and the escape
   edge passes objects no handler catches.  (A cast edge's filter is
   its type's id; see [no_filter].) *)
type scope_filter =
  | Catches of { ty : Type_id.t; skip : Type_id.t list }
  | Escapes of Type_id.t list

(* An edge's filter as one int: [no_filter], the id (>= 0) of the type a
   cast edge lets through, or [-2 - i] for the scope filter at index [i]
   of the solver's [scope_filters]. *)
let no_filter = -1

(* Each node's edges and triggers of one kind form a chain through an
   arena, a [Chunked] array of fixed-stride [int] entries: the node's
   head slot holds its newest entry, and each entry's field 0 holds the
   next older one, [-1] ending the chain.  A chain is walked from its
   head, newest entry first: that order fixes the order of propagation,
   and so the numbering of nodes, contexts and objects.
   Entry layouts:
   - edge: [next; dst; filter];
   - load trigger: [next; field; target node];
   - store trigger: [next; field; source node];
   - virtual-call site on its base variable's node, firing for every
     abstract object reaching the base: [next; 2 * invo + cut; caller
     ctx; scope node receiving the callee's escaping exceptions], [cut]
     being 1 at a cut-shortcut site (no parameter/return wiring).  The
     call's signature, arguments and return target are those of the
     invocation's instruction, kept in [vcall_instrs]. *)
let edge_stride = 3
let trigger_stride = 3
let vcall_stride = 4

type node_id = int

type node_kind =
  | Var_node of Var_id.t * Ctx.id
  | Fld_node of hobj * Field_id.t
  | Static_fld_node of Field_id.t
  | Throw_node of Meth_id.t * Ctx.id
  | Scope_node

(* Keyed by set identity: consing makes it extensional. *)
module Set_tbl = Hashtbl.Make (Intset)

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
  (* supergraph nodes: one slot per node id in each array below; the
     state of a unified class lives at its canonical id only *)
  mutable n_nodes : int;
  all : Intset.t Chunked.t;
  mutable pending : Intset.t Chunked.t;  (* invariant: disjoint from [all] *)
  mutable queued : Bytes.t;  (* '\001' while on the worklist *)
  mutable prio : int Chunked.t;
      (* pseudo-topological position in the copy subgraph (sources low);
         0 until the first reprioritization pass *)
  succ_head : int Chunked.t;  (* chain heads, -1 for none *)
  vcall_head : int Chunked.t;
  load_head : int Chunked.t;
  store_head : int Chunked.t;
  succs : int Chunked.t;  (* the arenas *)
  vcalls : int Chunked.t;
  loads : int Chunked.t;
  stores : int Chunked.t;
  scope_filters : scope_filter Vec.t;
  vcall_instrs : instr array;  (* invo -> its [Virtual_call] *)
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
  (* cycle elimination: copy-edge SCCs collapse onto their smallest
     member; [unify] maps any node id to its class's canonical id *)
  unify : Unify.t;
  mutable copy_edges_since_scc : int;
  mutable copy_edges_total : int;
  mutable scc_threshold : int;
  mutable scc_index : int array;
  mutable scc_low : int array;
  mutable scc_comp : int array;
      (* Tarjan state of [collapse_and_reprioritize], kept between passes
         and grown with the node count; [||] once the solve completes *)
  (* worklists *)
  mutable pq : Pqueue.t;
  meth_queue : (Meth_id.t * Ctx.id) Queue.t;
  (* facts *)
  reachable : Inttbl.t;  (* set of (meth, ctx) *)
  call_edges : Inttbl.t;
      (* set of ((invo, caller ctx), (meth, callee ctx)) *)
  (* memoized context-insensitive projections *)
  mutable var_node_start : int array;
  mutable var_node_list : int array;
      (* var -> its nodes: [var_node_list.(var_node_start.(v) ..
         var_node_start.(v+1) - 1)], ascending; empty until built *)
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

(* New slots hold the state of a fresh node: empty sets, not queued,
   priority 0, no chains. *)
let fresh_node st =
  let nid = st.n_nodes in
  let extend a = ignore (Chunked.extend a : int) in
  extend st.all;
  extend st.pending;
  extend st.prio;
  extend st.succ_head;
  extend st.vcall_head;
  extend st.load_head;
  extend st.store_head;
  if nid = Bytes.length st.queued then begin
    let queued = Bytes.make (max 256 (2 * nid)) '\000' in
    Bytes.blit st.queued 0 queued 0 nid;
    st.queued <- queued
  end;
  st.n_nodes <- nid + 1;
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

(* A node's state lives at its canonical id: a stale id (an edge's or
   trigger's target stored before a collapse) is mapped there first. *)
let push st nid set =
  let c = Unify.find st.unify nid in
  let pending = Chunked.get st.pending c in
  let fresh = Intset.diff2 set (Chunked.get st.all c) pending in
  if not (Intset.is_empty fresh) then begin
    Chunked.set st.pending c (Intset.union pending fresh);
    if Bytes.get st.queued c = '\000' then begin
      Bytes.set st.queued c '\001';
      Pqueue.push st.pq ~prio:(Chunked.get st.prio c) c
    end
  end

(* What an edge with [filter] lets through, as a predicate on hobjs;
   the filter is decoded once, not per object. *)
let passes st filter =
  if filter = no_filter then fun _ -> true
  else
    let compat hobj sup =
      Hierarchy.subtype st.hierarchy ~sub:(Vec.get st.hobj_types hobj) ~sup
    in
    if filter >= 0 then
      let cast_type = Type_id.of_int filter in
      fun hobj -> compat hobj cast_type
    else
      match Vec.get st.scope_filters (-2 - filter) with
      | Catches { ty; skip } ->
        fun hobj -> compat hobj ty && not (List.exists (compat hobj) skip)
      | Escapes tys -> fun hobj -> not (List.exists (compat hobj) tys)

let filter_set st set filter =
  if filter = no_filter then set else Intset.filter (passes st filter) set

(* Put a new entry of [arena] at the head of [base]'s chain, its other
   fields still to be filled. *)
let link heads arena base =
  let e = Chunked.extend arena in
  Chunked.set arena e (Chunked.get heads base);
  Chunked.set heads base e;
  e

(* [src] is canonical. *)
let attach_edge st ~src ~dst ~filter =
  st.n_edges <- st.n_edges + 1;
  let e = link st.succ_head st.succs src in
  Chunked.set_field st.succs e 1 dst;
  Chunked.set_field st.succs e 2 filter;
  if filter = no_filter then begin
    st.copy_edges_since_scc <- st.copy_edges_since_scc + 1;
    st.copy_edges_total <- st.copy_edges_total + 1
  end;
  let existing =
    Intset.union (Chunked.get st.all src) (Chunked.get st.pending src)
  in
  if not (Intset.is_empty existing) then
    push st dst (filter_set st existing filter)

let attach_scope_edge st ~src ~dst f =
  attach_edge st ~src ~dst ~filter:(-2 - Vec.push st.scope_filters f)

(* [filter] is [no_filter] or a cast type.  Scope edges are wired
   exactly once per (method, context) traversal, onto a node created by
   that same traversal, so they never need deduplication and go through
   [attach_scope_edge]. *)
let add_edge st ~src ~dst ~filter =
  (* Canonical ids make the self-loop check see through unification and
     keep the dedup table from growing one entry per alias.  Keys are
     canonical only as of insertion time — a later collapse can let a
     duplicate through — but propagation is idempotent, so a rare
     duplicate edge costs a little work, never correctness. *)
  let src = Unify.find st.unify src and dst = Unify.find st.unify dst in
  if
    (src <> dst || filter <> no_filter)
    && Inttbl.add_new st.edge_seen (Inttbl.pack src dst) filter
  then attach_edge st ~src ~dst ~filter

(* ------------------------------------------------------------------ *)
(* Online cycle elimination and reprioritization                       *)
(* ------------------------------------------------------------------ *)

(* Lazy SCC detection in the Nuutila/Pearce tradition, amortized: rather
   than probing on every edge insertion (LCD-style), we run one iterative
   Tarjan pass over the copy (filter=None) subgraph whenever enough new
   copy edges have accumulated — the threshold doubles with the graph, so
   total detection work is O(E log E).  Each multi-node SCC collapses
   onto its smallest member: members provably converge to the same set at
   fixpoint, so the class thereafter propagates once instead of churning
   the worklist around the cycle.

   The same pass recomputes a pseudo-topological order of the condensed
   copy DAG (Tarjan completion order reversed: sources first) and rebuilds
   the priority queue, so deltas flow source→sink. *)
let collapse_and_reprioritize st =
  let n = st.n_nodes in
  let unify = st.unify in
  if Array.length st.scc_index < n then begin
    let cap = max n (2 * Array.length st.scc_index) in
    st.scc_index <- Array.make cap (-1);
    st.scc_low <- Array.make cap 0;
    st.scc_comp <- Array.make cap (-1)
  end;
  let index = st.scc_index and lowlink = st.scc_low and comp_of = st.scc_comp in
  Array.fill index 0 n (-1);
  Array.fill comp_of 0 n (-1);
  (* Visited and not yet assigned a component: Tarjan's stack holds
     exactly these nodes. *)
  let on_stack w = comp_of.(w) < 0 in
  let stack = ref [] in
  let next = ref 0 in
  let n_comps = ref 0 in
  let sccs = ref [] in
  (* Copy successors of a canonical node, canonicalized; self-loops are
     irrelevant to both SCCs and order. *)
  let copy_succs v =
    let rec go e acc =
      if e < 0 then List.rev acc
      else
        let acc =
          if Chunked.field st.succs e 2 <> no_filter then acc
          else
            let w = Unify.find unify (Chunked.field st.succs e 1) in
            if w = v then acc else w :: acc
        in
        go (Chunked.get st.succs e) acc
    in
    go (Chunked.get st.succ_head v) []
  in
  let strongconnect v =
    index.(v) <- !next;
    lowlink.(v) <- !next;
    incr next;
    stack := v :: !stack;
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
            work := (w, copy_succs w) :: !work
          end
          else if on_stack w then
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
         flow through the merged successor chain, so it lands in
         [pending].  Idempotent for downstream nodes (push diffs against
         their state). *)
      let all o = Chunked.get st.all o in
      let pending o = Chunked.get st.pending o in
      let inter_all =
        List.fold_left (fun acc o -> Intset.inter acc (all o)) (all rep) members
      in
      let union_reach =
        List.fold_left
          (fun acc o -> Intset.union acc (Intset.union (all o) (pending o)))
          Intset.empty members
      in
      let pending = Intset.diff union_reach inter_all in
      (* Relink every member's chain onto the representative, taking the
         members in order and each chain from its head, each entry
         pushed in front of the merged chain; [keep] drops entries. *)
      let merge_chains heads arena keep =
        let merged = ref (-1) in
        List.iter
          (fun o ->
            let e = ref (Chunked.get heads o) in
            Chunked.set heads o (-1);
            while !e >= 0 do
              let next = Chunked.get arena !e in
              if keep !e then begin
                Chunked.set arena !e !merged;
                merged := !e
              end;
              e := next
            done)
          members;
        Chunked.set heads rep !merged
      in
      let keep_all _ = true in
      (* Drop intra-class copy edges — the collapse replaces them. *)
      merge_chains st.succ_head st.succs (fun e ->
          not
            (Chunked.field st.succs e 2 = no_filter
            && Unify.find unify (Chunked.field st.succs e 1) = rep));
      merge_chains st.vcall_head st.vcalls keep_all;
      merge_chains st.load_head st.loads keep_all;
      merge_chains st.store_head st.stores keep_all;
      List.iter
        (fun o ->
          Chunked.set st.all o Intset.empty;
          Chunked.set st.pending o Intset.empty;
          Bytes.set st.queued o '\000')
        members;
      Chunked.set st.all rep inter_all;
      Chunked.set st.pending rep pending;
      if not (Intset.is_empty pending) then Bytes.set st.queued rep '\001';
      st.sccs_collapsed <- st.sccs_collapsed + 1;
      st.nodes_unified <- st.nodes_unified + List.length members - 1)
    !sccs;
  (* Point every id at its class's representative (one ascending [find]
     sweep), assign pseudo-topological priorities, and rebuild the queue
     with exactly one entry per queued class. *)
  let entries_before = Pqueue.length st.pq in
  Pqueue.clear st.pq;
  let nc = !n_comps in
  for i = 0 to n - 1 do
    if Unify.find unify i = i then begin
      let prio = nc - 1 - comp_of.(i) in
      Chunked.set st.prio i prio;
      if Bytes.get st.queued i <> '\000' then Pqueue.push st.pq ~prio i
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
              ~filter:no_filter)
        args;
    (* Exceptions escaping the callee unwind into the call site's
       enclosing scope. *)
    add_edge st ~src:(throw_node st callee callee_ctx) ~dst:exc_target
      ~filter:no_filter;
    if not cut then
      match (mi.ret_var, ret_target) with
      | Some from_var, Some to_var ->
        add_edge st
          ~src:(var_node st from_var callee_ctx)
          ~dst:(var_node st to_var caller_ctx)
          ~filter:no_filter
      | _ -> ()
  end

(* The virtual-call rule: one abstract object [hobj] reached the base
   of the call site at [vcall] in the vcall arena.  Resolve the target,
   build the callee context with [Merge], bind [this], and wire the
   edge. *)
let dispatch st vcall hobj =
  st.n_triggers <- st.n_triggers + 1;
  let site = Chunked.field st.vcalls vcall 1 in
  let caller_ctx = Chunked.field st.vcalls vcall 2 in
  let exc_target = Chunked.field st.vcalls vcall 3 in
  let cut = site land 1 = 1 in
  match st.vcall_instrs.(site lsr 1) with
  | Virtual_call { signature; invo; args; ret_target; _ } -> (
    let heap = Heap_id.of_int (Vec.get st.hobj_heaps hobj) in
    let receiver_type = Vec.get st.hobj_types hobj in
    match Hierarchy.lookup st.hierarchy receiver_type signature with
    | None -> ()  (* no matching method: dispatch failure, as in Doop *)
    | Some callee ->
      let mi = Program.meth_info st.program callee in
      if not mi.meth_static then begin
        let hctx = Ctx.value st.hctx_store (Vec.get st.hobj_hctxs hobj) in
        let ctx = Ctx.value st.ctx_store caller_ctx in
        let callee_ctx =
          Ctx.intern st.ctx_store
            (st.strategy.Strategy.merge ~heap ~hctx ~invo ~callee ~ctx)
        in
        (match mi.this_var with
        | Some this ->
          push st (var_node st this callee_ctx) (Intset.singleton hobj)
        | None -> ());
        wire_call st ~invo ~caller_ctx ~callee ~callee_ctx ~args ~ret_target
          ~exc_target ~cut
      end)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Instruction processing: runs once per reachable (method, context)    *)
(* ------------------------------------------------------------------ *)

(* [load] and [store] index their trigger arenas. *)
let fire_load st load hobj =
  st.n_triggers <- st.n_triggers + 1;
  let field = Field_id.of_int (Chunked.field st.loads load 1) in
  let target = Chunked.field st.loads load 2 in
  add_edge st ~src:(fld_node st hobj field) ~dst:target ~filter:no_filter

let fire_store st store hobj =
  st.n_triggers <- st.n_triggers + 1;
  let field = Field_id.of_int (Chunked.field st.stores store 1) in
  let source = Chunked.field st.stores store 2 in
  add_edge st ~src:source ~dst:(fld_node st hobj field) ~filter:no_filter

(* Trigger attachment replays the node's existing objects; when traced,
   each replay is one per-edge-kind complete span (same names as the
   delta-propagation spans in [process_node]). *)
let replay st name all fire =
  if Trace.is_null st.trace || Intset.is_empty all then Intset.iter fire all
  else begin
    let t0 = Trace.now_us st.trace in
    let a0 = Trace.alloc_mark st.trace in
    Intset.iter fire all;
    Trace.complete st.trace ~alloc:a0 ~delta:(Intset.cardinal all)
      ~cat:"solver" ~name ~t0_us:t0
      ~dur_us:(Trace.now_us st.trace -. t0)
  end

let attach_load st base_node field target =
  let b = Unify.find st.unify base_node in
  let e = link st.load_head st.loads b in
  Chunked.set_field st.loads e 1 (Field_id.to_int field);
  Chunked.set_field st.loads e 2 target;
  replay st "load" (Chunked.get st.all b) (fun hobj -> fire_load st e hobj)

let attach_store st base_node field source =
  let b = Unify.find st.unify base_node in
  let e = link st.store_head st.stores b in
  Chunked.set_field st.stores e 1 (Field_id.to_int field);
  Chunked.set_field st.stores e 2 source;
  replay st "store" (Chunked.get st.all b) (fun hobj -> fire_store st e hobj)

let attach_vcall st base_node instr ~invo ~ctx ~exc_target ~cut =
  st.vcall_instrs.(Invo_id.to_int invo) <- instr;
  let b = Unify.find st.unify base_node in
  let e = link st.vcall_head st.vcalls b in
  Chunked.set_field st.vcalls e 1
    ((Invo_id.to_int invo lsl 1) lor Bool.to_int cut);
  Chunked.set_field st.vcalls e 2 ctx;
  Chunked.set_field st.vcalls e 3 exc_target;
  replay st "vcall" (Chunked.get st.all b) (fun hobj -> dispatch st e hobj)

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
            ~filter:no_filter
        | _ -> ())
      | Shortcut.Load_ret field -> (
        match (ret_target, base) with
        | Some ret, Some b ->
          attach_load st (var_node st b ctx) field (var_node st ret ctx)
        | _ -> ())
      | Shortcut.Store_field (field, arg) -> (
        match (base, arg_var arg) with
        | Some b, Some src ->
          attach_store st (var_node st b ctx) field (var_node st src ctx)
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
        attach_scope_edge st ~src:scope ~dst:exc_target
          (Escapes (List.rev skip))
      | h :: rest ->
        attach_scope_edge st ~src:scope
          ~dst:(var_node st h.catch_var ctx)
          (Catches { ty = h.catch_type; skip = List.rev skip });
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
      ~filter:no_filter
  | Cast { target; source; cast_type } ->
    add_edge st ~src:(var_node st source ctx) ~dst:(var_node st target ctx)
      ~filter:(Type_id.to_int cast_type)
  | Load { target; base; field } ->
    attach_load st (var_node st base ctx) field (var_node st target ctx)
  | Store { base; field; source } ->
    attach_store st (var_node st base ctx) field (var_node st source ctx)
  | Virtual_call { base; invo; args; ret_target; _ } ->
    let cut =
      match shortcut_action st invo with
      | Some items ->
        apply_shortcut st ~ctx ~base:(Some base) ~args ~ret_target items;
        true
      | None -> false
    in
    attach_vcall st (var_node st base ctx) instr ~invo ~ctx ~exc_target ~cut
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
      ~filter:no_filter
  | Static_store { field; source } ->
    add_edge st ~src:(var_node st source ctx) ~dst:(static_fld_node st field)
      ~filter:no_filter
  | Throw { source } ->
    add_edge st ~src:(var_node st source ctx) ~dst:exc_target ~filter:no_filter

let process_method st meth ctx =
  let ctx_value = Ctx.value st.ctx_store ctx in
  let mi = Program.meth_info st.program meth in
  process_code st ~ctx ~ctx_value ~exc_target:(throw_node st meth ctx) mi.body

let rec push_succs st delta e =
  if e >= 0 then begin
    let dst = Chunked.field st.succs e 1 in
    push st dst (filter_set st delta (Chunked.field st.succs e 2));
    push_succs st delta (Chunked.get st.succs e)
  end

let rec fire_vcalls st delta e =
  if e >= 0 then begin
    Intset.iter (fun hobj -> dispatch st e hobj) delta;
    fire_vcalls st delta (Chunked.get st.vcalls e)
  end

let rec fire_loads st delta e =
  if e >= 0 then begin
    Intset.iter (fun hobj -> fire_load st e hobj) delta;
    fire_loads st delta (Chunked.get st.loads e)
  end

let rec fire_stores st delta e =
  if e >= 0 then begin
    Intset.iter (fun hobj -> fire_store st e hobj) delta;
    fire_stores st delta (Chunked.get st.stores e)
  end

(* [nid] is canonical: it came off the worklist. *)
let process_node st nid =
  Bytes.set st.queued nid '\000';
  let delta = (Chunked.get st.pending nid) in
  Chunked.set st.pending nid Intset.empty;
  if not (Intset.is_empty delta) then begin
    let card = Intset.cardinal delta in
    st.delta_total <- st.delta_total + card;
    if card > st.max_delta then st.max_delta <- card;
    Chunked.set st.all nid (Intset.union (Chunked.get st.all nid) delta);
    if Trace.is_null st.trace then begin
      push_succs st delta (Chunked.get st.succ_head nid);
      fire_vcalls st delta (Chunked.get st.vcall_head nid);
      fire_loads st delta (Chunked.get st.load_head nid);
      fire_stores st delta (Chunked.get st.store_head nid)
    end
    else begin
      (* Traced: one complete span per edge kind with work to do, its
         delta being the objects propagated through that kind. *)
      let tr = st.trace in
      let span name head walk =
        if head >= 0 then begin
          let t0 = Trace.now_us tr in
          let a0 = Trace.alloc_mark tr in
          walk st delta head;
          Trace.complete tr ~alloc:a0 ~delta:card ~cat:"solver" ~name
            ~t0_us:t0 ~dur_us:(Trace.now_us tr -. t0)
        end
      in
      span "move" (Chunked.get st.succ_head nid) push_succs;
      span "vcall" (Chunked.get st.vcall_head nid) fire_vcalls;
      span "load" (Chunked.get st.load_head nid) fire_loads;
      span "store" (Chunked.get st.store_head nid) fire_stores
    end
  end

module Config = struct
  type t = {
    budget : Budget.t;
    field_based : bool;
    trace : Trace.t;
  }

  let default =
    { budget = Budget.unlimited (); field_based = false; trace = Trace.null }

  let make ?timeout_s ?(field_based = false) ?(trace = Trace.null) () =
    { budget = Budget.of_seconds_opt timeout_s; field_based; trace }
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

   A unified class keeps its state at its canonical id only, so the
   sets and the histogram are read there. *)
let census st =
  let sets = ref [] and cardinals = ref [] in
  for nid = st.n_nodes - 1 downto 0 do
    if Unify.find st.unify nid = nid then begin
      sets := Obj.repr (Chunked.get st.all nid) :: !sets;
      if nid < Chunked.length st.pending then
        sets := Obj.repr (Chunked.get st.pending nid) :: !sets;
      cardinals := Intset.cardinal (Chunked.get st.all nid) :: !cardinals
    end
  done;
  let set_hist =
    Census.hist_of_values ~bounds:(Census.pow2_bounds 14) !cardinals
  in
  Census.survey ~set_hist
    [
      ("points-to-sets", !sets);
      ( "edge-lists",
        [
          Obj.repr st.succ_head; Obj.repr st.vcall_head; Obj.repr st.load_head;
          Obj.repr st.store_head; Obj.repr st.succs; Obj.repr st.vcalls;
          Obj.repr st.loads; Obj.repr st.stores; Obj.repr st.scope_filters;
          Obj.repr st.vcall_instrs;
        ] );
      ( "node-tables",
        [
          Obj.repr st.all;
          Obj.repr st.pending;
          Obj.repr st.queued;
          Obj.repr st.prio;
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
          Obj.repr st.var_node_start; Obj.repr st.var_node_list;
          Obj.repr st.ci_targets; Obj.repr st.node_kinds;
          Obj.repr st.heap_sets; Obj.repr st.heap_stamps;
        ] );
    ]

(* A drained worklist leaves every pending set empty and every flag
   clear, and no priority is read again: a complete solve drops those
   three arrays, the queue's storage and the collapse's Tarjan state. *)
let release_worklist st =
  st.pending <- Chunked.create Intset.empty;
  st.prio <- Chunked.create 0;
  st.queued <- Bytes.empty;
  st.pq <- Pqueue.create ();
  st.scc_index <- [||];
  st.scc_low <- [||];
  st.scc_comp <- [||]

let solve_outcome ?(config = Config.default) program strategy =
  let trace = config.Config.trace in
  Intset.new_table ();
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
        n_nodes = 0;
        all = Chunked.create Intset.empty;
        pending = Chunked.create Intset.empty;
        queued = Bytes.make 256 '\000';
        prio = Chunked.create 0;
        succ_head = Chunked.create (-1);
        vcall_head = Chunked.create (-1);
        load_head = Chunked.create (-1);
        store_head = Chunked.create (-1);
        succs = Chunked.create ~stride:edge_stride 0;
        vcalls = Chunked.create ~stride:vcall_stride 0;
        loads = Chunked.create ~stride:trigger_stride 0;
        stores = Chunked.create ~stride:trigger_stride 0;
        scope_filters = Vec.create ();
        vcall_instrs =
          Array.make (Program.n_invos program)
            (Throw { source = Var_id.of_int 0 });
        var_nodes = Inttbl.create_map ();
        fld_nodes = Inttbl.create_map ();
        static_fld_nodes = Array.make (Program.n_fields program) (-1);
        throw_nodes = Inttbl.create_map ();
        edge_seen = Inttbl.create_set ();
        unify = Unify.create ~capacity:256 ();
        copy_edges_since_scc = 0;
        copy_edges_total = 0;
        scc_threshold = 512;
        scc_index = [||];
        scc_low = [||];
        scc_comp = [||];
        pq = Pqueue.create ();
        meth_queue = Queue.create ();
        reachable = Inttbl.create_set ();
        call_edges = Inttbl.create_set ();
        var_node_start = [||];
        var_node_list = [||];
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
  Budget.start budget ~probe:(fun () -> st.n_nodes);
  let fixpoint () =
    Trace.span trace ~cat:"phase" "fixpoint" @@ fun () ->
    let rec loop () =
      if not (Queue.is_empty st.meth_queue) then begin
        Budget.tick budget;
        let meth, ctx = Queue.pop st.meth_queue in
        process_method st meth ctx;
        loop ()
      end
      else if not (Pqueue.is_empty st.pq) then begin
        Budget.tick budget;
        if st.copy_edges_since_scc >= st.scc_threshold then
          collapse_and_reprioritize st;
        if not (Pqueue.is_empty st.pq) then begin
          let nid = Pqueue.pop st.pq in
          if Bytes.get st.queued nid <> '\000' then process_node st nid
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
    release_worklist st;
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
let n_hobjs st = Vec.length st.hobj_heaps
let ctx_value st id = Ctx.value st.ctx_store id
let hctx_value st id = Ctx.value st.hctx_store id
let n_ctxs st = Ctx.size st.ctx_store
let n_hctxs st = Ctx.size st.hctx_store

(* The set of any node id, unified or not. *)
let node_points_to st nid = Chunked.get st.all (Unify.find st.unify nid)

let iter_var_points_to st f =
  Inttbl.iter
    (fun key nid ->
      f (Var_id.of_int (Inttbl.high key)) (Inttbl.low key)
        (node_points_to st nid))
    st.var_nodes

let var_points_to st var ctx =
  let nid = Inttbl.find st.var_nodes (Inttbl.pack (Var_id.to_int var) ctx) in
  if nid = Inttbl.absent then Intset.empty else node_points_to st nid

let iter_throw_points_to st f =
  Inttbl.iter
    (fun key nid ->
      f (Meth_id.of_int (Inttbl.high key)) (Inttbl.low key)
        (node_points_to st nid))
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
    (fun _ nid acc -> acc + Intset.cardinal (node_points_to st nid))
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

let n_nodes st = st.n_nodes
let canonical_node st nid = Unify.find st.unify nid

let node_kind_table st =
  let kinds = Array.make st.n_nodes Scope_node in
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
    | Some k when Array.length k = st.n_nodes -> k
    | Some _ | None ->
      let k = node_kind_table st in
      st.node_kinds <- Some k;
      k
  in
  kinds.(nid)

type edge = int

let iter_succ_edges st nid f =
  let rec go e =
    if e >= 0 then begin
      f e (Chunked.field st.succs e 1);
      go (Chunked.get st.succs e)
    end
  in
  go (Chunked.get st.succ_head (Unify.find st.unify nid))

let edge_passes st e hobj = passes st (Chunked.field st.succs e 2) hobj

let node_succs_passing st nid hobj =
  let acc = ref [] in
  iter_succ_edges st nid (fun e dst ->
      if edge_passes st e hobj then acc := dst :: !acc);
  List.rev !acc

(* A counting sort by variable over the node ids, ascending, so each
   variable's nodes come out in ascending id order. *)
let var_node_index st =
  if Array.length st.var_node_start = 0 then begin
    let n_vars = Program.n_vars st.program in
    let owner = Array.make st.n_nodes (-1) in
    Inttbl.iter (fun key nid -> owner.(nid) <- Inttbl.high key) st.var_nodes;
    let start = Array.make (n_vars + 1) 0 in
    Array.iter
      (fun v -> if v >= 0 then start.(v + 1) <- start.(v + 1) + 1)
      owner;
    for v = 1 to n_vars do
      start.(v) <- start.(v) + start.(v - 1)
    done;
    let list = Array.make start.(n_vars) 0 in
    let fill = Array.sub start 0 (max n_vars 1) in
    Array.iteri
      (fun nid v ->
        if v >= 0 then begin
          list.(fill.(v)) <- nid;
          fill.(v) <- fill.(v) + 1
        end)
      owner;
    st.var_node_start <- start;
    st.var_node_list <- list
  end

let var_node_ids st var =
  var_node_index st;
  let v = Var_id.to_int var in
  let rec from k acc =
    if k < st.var_node_start.(v) then acc
    else from (k - 1) (st.var_node_list.(k) :: acc)
  in
  from (st.var_node_start.(v + 1) - 1) []

let heap_stamps st =
  if Array.length st.heap_stamps = 0 then
    st.heap_stamps <- Array.make (Program.n_heaps st.program) 0;
  st.heap_stamps

type vpt_counts = { vars_with_objs : int; ci_facts : int; cs_facts : int }

(* One walk over every variable's nodes.  A heap is counted for the
   variable the first time it is stamped with the variable's epoch; a
   node holding the same set as the node before it adds only its
   size.  On the benchmark's context-sensitive cells 12-47% of the var
   nodes do, and skipping them takes a third off the walk
   (EXPERIMENTS.md § "Flat node state and cons table: A/B"). *)
let vpt_counts st =
  var_node_index st;
  let stamps = heap_stamps st in
  let start = st.var_node_start and list = st.var_node_list in
  let epoch = ref st.heap_epoch in
  let distinct = ref 0 and cs = ref 0 in
  let stamp hobj =
    incr cs;
    let heap = Vec.get st.hobj_heaps hobj in
    if stamps.(heap) <> !epoch then begin
      stamps.(heap) <- !epoch;
      incr distinct
    end
  in
  let vars = ref 0 and ci = ref 0 in
  let prev = ref Intset.empty and prev_size = ref 0 in
  for v = 0 to Array.length start - 2 do
    if start.(v) < start.(v + 1) then begin
      incr epoch;
      distinct := 0;
      prev := Intset.empty;
      prev_size := 0;
      for k = start.(v) to start.(v + 1) - 1 do
        let s = node_points_to st list.(k) in
        if s == !prev then cs := !cs + !prev_size
        else begin
          let before = !cs in
          Intset.iter stamp s;
          prev := s;
          prev_size := !cs - before
        end
      done;
      if !distinct > 0 then begin
        incr vars;
        ci := !ci + !distinct
      end
    end
  done;
  st.heap_epoch <- !epoch;
  { vars_with_objs = !vars; ci_facts = !ci; cs_facts = !cs }

(* The heap set of one hobj set, built once per distinct set: the
   epoch stamps drop repeated heaps, then a sort feeds
   [Intset.of_sorted_array]. *)
let heap_set st hobjs =
  match Set_tbl.find_opt st.heap_sets hobjs with
  | Some heaps -> heaps
  | None ->
    let stamps = heap_stamps st in
    st.heap_epoch <- st.heap_epoch + 1;
    let epoch = st.heap_epoch in
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
  var_node_index st;
  let v = Var_id.to_int var in
  let acc = ref Intset.empty in
  for k = st.var_node_start.(v) to st.var_node_start.(v + 1) - 1 do
    let set = node_points_to st st.var_node_list.(k) in
    acc := Intset.union !acc (heap_set st set)
  done;
  !acc

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
