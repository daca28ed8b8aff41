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

let describe_node solver nid =
  let program = Solver.program solver in
  let ctx_str ctx =
    Format.asprintf "%a" (Ctx.pp_value program) (Solver.ctx_value solver ctx)
  in
  match Solver.node_kind solver nid with
  | Solver.Var_node (var, ctx) ->
    Printf.sprintf "%s under %s" (Program.var_qualified_name program var)
      (ctx_str ctx)
  | Solver.Fld_node (hobj, field) ->
    Printf.sprintf "field %s of %s"
      (Program.field_info program field).field_name
      (Program.heap_name program (Solver.hobj_heap solver hobj))
  | Solver.Static_fld_node field ->
    let fi = Program.field_info program field in
    Printf.sprintf "static field %s::%s"
      (Program.type_name program fi.field_owner)
      fi.field_name
  | Solver.Throw_node (meth, ctx) ->
    Printf.sprintf "exceptions escaping %s under %s"
      (Program.meth_qualified_name program meth)
      (ctx_str ctx)
  | Solver.Scope_node -> "a try-block scope"

(* A session answers queries against one solved state, building its
   indexes lazily and once:
   - [holders]: allocation site -> ascending canonical nodes holding
     one of its hobjs, and [site_hobjs]: allocation site -> its hobjs in
     descending id order — both from one pass over the state;
   - [preds]: per allocation site, the reverse adjacency among its
     holders, tracking which hobj travels each edge (any one works).
   The walk runs over canonical node ids — unified copy-cycle members
   share state, so one class is one BFS vertex.  The predecessor map is
   built visiting sources in ascending order, hobjs in descending order
   and edges in list order, so its lists (duplicates included) and
   hence the BFS order and the chosen chain are fixed by the state.
   [parent] is the BFS state, allocated once per session and reset
   entry by entry after each walk, so a query pays for the nodes it
   visits, never for the whole supergraph. *)
type t = {
  solver : Solver.t;
  budget : Budget.t;
  mutable holders : int list array;  (* [||] until built *)
  mutable site_hobjs : int list array;
  preds : (int, (int, int list) Hashtbl.t) Hashtbl.t;  (* site -> dst -> srcs *)
  mutable parent : int array;  (* [||] until the first walk *)
}

let create ?(budget = Budget.unlimited ()) solver =
  {
    solver;
    budget;
    holders = [||];
    site_hobjs = [||];
    preds = Hashtbl.create 64;
    parent = [||];
  }

let unvisited = -2

(* The budget is polled once per [poll_every] nodes of an index build. *)
let poll_every = 0xFFF

let build_holders t =
  let solver = t.solver in
  let n_sites = Program.n_heaps (Solver.program solver) in
  let site_hobjs = Array.make n_sites [] in
  for h = 0 to Solver.n_hobjs solver - 1 do
    let site = Heap_id.to_int (Solver.hobj_heap solver h) in
    site_hobjs.(site) <- h :: site_hobjs.(site)
  done;
  let holders = Array.make n_sites [] in
  let last = Array.make n_sites (-1) in
  for nid = Solver.n_nodes solver - 1 downto 0 do
    if nid land poll_every = 0 then Budget.check t.budget;
    if Solver.canonical_node solver nid = nid then
      Intset.iter
        (fun h ->
          let site = Heap_id.to_int (Solver.hobj_heap solver h) in
          if last.(site) <> nid then begin
            last.(site) <- nid;
            holders.(site) <- nid :: holders.(site)
          end)
        (Solver.node_points_to solver nid)
  done;
  t.site_hobjs <- site_hobjs;
  t.holders <- holders

let hobjs_of_site t site =
  if Array.length t.holders = 0 then build_holders t;
  t.site_hobjs.(site)

let holds solver hobjs nid =
  let pts = Solver.node_points_to solver nid in
  List.exists (fun h -> Intset.mem h pts) hobjs

let preds_of_site t site =
  match Hashtbl.find_opt t.preds site with
  | Some preds -> preds
  | None ->
    let solver = t.solver in
    let hobjs = hobjs_of_site t site in
    let preds = Hashtbl.create 64 in
    List.iteri
      (fun i src ->
        if i land poll_every = 0 then Budget.check t.budget;
        let pts = Solver.node_points_to solver src in
        List.iter
          (fun h ->
            if Intset.mem h pts then
              List.iter
                (fun dst ->
                  let dst = Solver.canonical_node solver dst in
                  if dst <> src && holds solver hobjs dst then
                    Hashtbl.replace preds dst
                      (src :: Option.value ~default:[] (Hashtbl.find_opt preds dst)))
                (Solver.node_succs_passing solver src h))
          hobjs)
      t.holders.(site);
    Hashtbl.add t.preds site preds;
    preds

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
    let preds = preds_of_site t site in
    let preds_of nid = Option.value ~default:[] (Hashtbl.find_opt preds nid) in
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
           { description = describe_node solver nid; is_origin = i = 0 })
         nodes)

let pp_chain ppf steps =
  List.iteri
    (fun i s ->
      if s.is_origin then Format.fprintf ppf "  origin: %s@," s.description
      else Format.fprintf ppf "  %2d: flows to %s@," i s.description)
    steps
