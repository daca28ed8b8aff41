module Ir = Pta_ir.Ir
module Ctx = Pta_context.Ctx
module Solver = Pta_solver.Solver
module Intset = Pta_solver.Intset
module Budget = Pta_obs.Budget
open Ir

type step = {
  description : string;
  is_origin : bool;
}

(* A session answers queries against one solved state, building its
   indexes lazily and once:
   - [site_hobjs]: allocation site -> its hobjs in descending id order,
     one pass over the hobj table;
   - [rev_*]: the reverse adjacency of the canonical nodes, one pass
     over every out-edge: [rev_src]/[rev_edge] hold, for each canonical
     destination [d] in the slice [rev_start.(d) .. rev_start.(d+1)-1],
     the canonical sources of [d]'s in-edges in descending id order and
     the edge each came by.  Sources or destinations holding nothing are
     left out, since a walk visits holders only;
   - [preds]: per allocation site, the predecessor list of each node a
     walk visited, computed from [rev_*] on first visit.
   A predecessor list is exactly the one a forward pass would build by
   visiting the site's holders in ascending order, hobjs in descending
   order and edges in chain order, prepending each source: its sources
   descending, each repeated once per (hobj, edge) pair that carries one
   of the site's hobjs from it, self-edges excluded.  The duplicates are
   kept, since they fix the BFS order and hence the chosen chain.
   The walk runs over canonical node ids — unified copy-cycle members
   share state, so one class is one BFS vertex.  [parent] is the BFS
   state, allocated once per session and reset entry by entry after each
   walk, so a query pays for the nodes it visits, never for the whole
   supergraph.  [names] and [ctx_names] memoize the descriptions a
   chain prints, per node and per context. *)
type t = {
  solver : Solver.t;
  budget : Budget.t;
  mutable site_hobjs : int list array;  (* [||] until built *)
  mutable rev_start : int array;  (* [||] until built *)
  mutable rev_src : int array;
  mutable rev_edge : Solver.edge array;
  preds : (int, (int, int list) Hashtbl.t) Hashtbl.t;  (* site -> dst -> srcs *)
  mutable parent : int array;  (* [||] until the first walk *)
  names : (int, string) Hashtbl.t;  (* node -> description *)
  ctx_names : (int, string) Hashtbl.t;  (* ctx -> printed value *)
}

let create ?(budget = Budget.unlimited ()) solver =
  {
    solver;
    budget;
    site_hobjs = [||];
    rev_start = [||];
    rev_src = [||];
    rev_edge = [||];
    preds = Hashtbl.create 64;
    parent = [||];
    names = Hashtbl.create 64;
    ctx_names = Hashtbl.create 64;
  }

let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = f key in
    Hashtbl.add tbl key v;
    v

let ctx_name t ctx =
  memo t.ctx_names ctx (fun ctx ->
      Ctx.value_to_string (Solver.program t.solver)
        (Solver.ctx_value t.solver ctx))

let describe_node t nid =
  memo t.names nid (fun nid ->
      let solver = t.solver in
      let program = Solver.program solver in
      match Solver.node_kind solver nid with
      | Solver.Var_node (var, ctx) ->
        Program.var_qualified_name program var ^ " under " ^ ctx_name t ctx
      | Solver.Fld_node (hobj, field) ->
        "field " ^ (Program.field_info program field).field_name ^ " of "
        ^ Program.heap_name program (Solver.hobj_heap solver hobj)
      | Solver.Static_fld_node field ->
        let fi = Program.field_info program field in
        "static field " ^ Program.type_name program fi.field_owner ^ "::"
        ^ fi.field_name
      | Solver.Throw_node (meth, ctx) ->
        "exceptions escaping " ^ Program.meth_qualified_name program meth
        ^ " under " ^ ctx_name t ctx
      | Solver.Scope_node -> "a try-block scope")

let unvisited = -2

(* The budget is polled once per [poll_every] nodes of an index build. *)
let poll_every = 0xFFF

let hobjs_of_site t site =
  if Array.length t.site_hobjs = 0 then begin
    let solver = t.solver in
    let site_hobjs = Array.make (Program.n_heaps (Solver.program solver)) [] in
    for h = 0 to Solver.n_hobjs solver - 1 do
      let site = Heap_id.to_int (Solver.hobj_heap solver h) in
      site_hobjs.(site) <- h :: site_hobjs.(site)
    done;
    t.site_hobjs <- site_hobjs
  end;
  t.site_hobjs.(site)

(* Counts in-edges per destination, then fills each destination's slice
   front to back while the sources descend, so a slice ends up in
   descending source order. *)
let build_rev t =
  let solver = t.solver in
  let n = Solver.n_nodes solver in
  let live nid =
    Solver.canonical_node solver nid = nid
    && not (Intset.is_empty (Solver.node_points_to solver nid))
  in
  let each_edge f =
    for src = n - 1 downto 0 do
      if src land poll_every = 0 then Budget.check t.budget;
      if live src then
        Solver.iter_succ_edges solver src (fun e dst ->
            let dst = Solver.canonical_node solver dst in
            if dst <> src && live dst then f src e dst)
    done
  in
  let start = Array.make (n + 1) 0 in
  each_edge (fun _ _ dst -> start.(dst + 1) <- start.(dst + 1) + 1);
  for d = 1 to n do
    start.(d) <- start.(d) + start.(d - 1)
  done;
  let m = start.(n) in
  let src_of = Array.make m 0 and edge_of = Array.make m 0 in
  let fill = Array.sub start 0 n in
  each_edge (fun src e dst ->
      let i = fill.(dst) in
      fill.(dst) <- i + 1;
      src_of.(i) <- src;
      edge_of.(i) <- e);
  t.rev_start <- start;
  t.rev_src <- src_of;
  t.rev_edge <- edge_of

let preds_of t site hobjs nid =
  let per_site =
    match Hashtbl.find_opt t.preds site with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 64 in
      Hashtbl.add t.preds site tbl;
      tbl
  in
  memo per_site nid (fun nid ->
      if Array.length t.rev_start = 0 then build_rev t;
      let solver = t.solver in
      let acc = ref [] in
      for i = t.rev_start.(nid + 1) - 1 downto t.rev_start.(nid) do
        let src = t.rev_src.(i) and e = t.rev_edge.(i) in
        let pts = Solver.node_points_to solver src in
        List.iter
          (fun h ->
            if Intset.mem h pts && Solver.edge_passes solver e h then
              acc := src :: !acc)
          hobjs
      done;
      !acc)

let holds solver hobjs nid =
  let pts = Solver.node_points_to solver nid in
  List.exists (fun h -> Intset.mem h pts) hobjs

(* The node a chain ends at: among [var]'s nodes holding one of
   [hobjs], the first in the order the solver listed a variable's nodes
   while its (var, ctx) -> node table was a [Hashtbl] created with 4096
   buckets and filled in node-id order.  That order is bucket
   descending, then node id ascending, where a node's bucket is
   [Hashtbl.hash (var, ctx)] masked to the table's final size: the
   smallest power of two [l >= 4096] with [2l >= n_var_nodes].  Keeping
   it keeps every witness byte-identical to the reports of that solver;
   it costs O(candidates) per query and no global sort. *)
let target solver hobjs var =
  let n = Solver.n_var_nodes solver in
  let rec buckets l = if 2 * l >= n then l else buckets (2 * l) in
  let mask = buckets 4096 - 1 in
  let bucket nid =
    match Solver.node_kind solver nid with
    | Solver.Var_node (v, ctx) -> Hashtbl.hash (Var_id.to_int v, ctx) land mask
    | _ -> assert false  (* [var_node_ids] lists variable nodes only *)
  in
  (* [var_node_ids] ascends, so a later node wins only from a strictly
     higher bucket. *)
  List.fold_left
    (fun best nid ->
      if not (holds solver hobjs nid) then best
      else
        let b = bucket nid in
        match best with
        | Some (_, best_b) when best_b >= b -> best
        | _ -> Some (nid, b))
    None
    (Solver.var_node_ids solver var)
  |> Option.map fst

(* Breadth-first search backwards from the target among nodes containing
   the abstract object; the chain root is a node with no predecessor
   passing the object (the allocation target, a receiver binding, ...). *)
let explain t ~var ~heap =
  let solver = t.solver in
  (* An aborted run leaves a partially-populated supergraph: nodes may
     exist whose in-edges were never wired, so a "witness chain" found
     in it can be truncated or outright wrong.  Refuse rather than
     mislead. *)
  if not (Solver.is_complete solver) then
    invalid_arg "Provenance.explain: analysis aborted before fixpoint";
  let site = Heap_id.to_int heap in
  let hobjs = hobjs_of_site t site in
  (* The target keeps its original id so the reported step names the
     variable the caller asked about, not an arbitrary cycle member. *)
  match target solver hobjs var with
  | None -> None
  | Some target0 ->
    let preds_of = preds_of t site hobjs in
    let target = Solver.canonical_node solver target0 in
    if Array.length t.parent = 0 then
      t.parent <- Array.make (Solver.n_nodes solver) unvisited;
    let parent = t.parent in
    (* BFS backwards to the furthest reachable origin (a node with no
       unvisited predecessor); [parent] doubles as the visited set. *)
    let visited = ref [ target ] in
    let queue = Queue.create () in
    Queue.add target queue;
    parent.(target) <- -1;
    let origin = ref target in
    while not (Queue.is_empty queue) do
      let nid = Queue.pop queue in
      let ps = preds_of nid in
      let fresh = List.filter (fun p -> parent.(p) = unvisited) ps in
      if fresh = [] && ps = [] then origin := nid;
      List.iter
        (fun p ->
          parent.(p) <- nid;
          visited := p :: !visited;
          Queue.add p queue)
        fresh
    done;
    (* Forward chain from origin following parent pointers. *)
    let rec chain nid acc =
      if nid = target then List.rev (target :: acc)
      else chain parent.(nid) (nid :: acc)
    in
    let nodes = chain !origin [] in
    List.iter (fun nid -> parent.(nid) <- unvisited) !visited;
    Some
      (List.mapi
         (fun i nid ->
           let nid = if nid = target then target0 else nid in
           { description = describe_node t nid; is_origin = i = 0 })
         nodes)

let pp_chain ppf steps =
  List.iteri
    (fun i s ->
      if s.is_origin then Format.fprintf ppf "  origin: %s@," s.description
      else Format.fprintf ppf "  %2d: flows to %s@," i s.description)
    steps
