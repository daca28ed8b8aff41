(** Tests for provenance witness chains. *)

module Ir = Pta_ir.Ir
module Solver = Pta_solver.Solver
module Provenance = Pta_clients.Provenance

let setup src =
  let program = Pta_frontend.Frontend.program_of_string ~file:"<t>" src in
  Solver.solve program (Pta_context.Strategies.get "1obj" program)

let find_var solver meth_name var_name =
  let program = Solver.program solver in
  let found = ref None in
  Ir.Program.iter_vars program (fun v info ->
      let owner = Ir.Program.meth_info program info.Ir.var_owner in
      if owner.Ir.meth_name = meth_name && info.Ir.var_name = var_name then
        found := Some v);
  Option.get !found

let find_heap solver ty_name =
  let program = Solver.program solver in
  let found = ref None in
  Ir.Program.iter_heaps program (fun h info ->
      if Ir.Program.type_name program info.Ir.heap_type = ty_name then
        found := Some h);
  Option.get !found

let chain_test () =
  let solver =
    setup
      {|
      class Box { field content;
        method put(x) { this.content = x; return this; }
        method get() { return this.content; }
      }
      class Gift {}
      class Main {
        static method main() {
          var b = new Box;
          b.put(new Gift);
          var out = b.get();
        }
      }
      |}
  in
  let var = find_var solver "main" "out" in
  let heap = find_heap solver "Gift" in
  match Provenance.explain (Provenance.create solver) ~var ~heap with
  | None -> Alcotest.fail "expected a witness chain"
  | Some chain ->
    Alcotest.(check bool) "chain nonempty" true (List.length chain >= 2);
    Alcotest.(check bool) "first is origin" true (List.hd chain).Provenance.is_origin;
    let last = List.nth chain (List.length chain - 1) in
    let contains hay needle =
      let n = String.length needle and h = String.length hay in
      let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
      at 0
    in
    Alcotest.(check bool) "ends at the queried var" true
      (contains last.Provenance.description "out");
    (* The chain must pass through the box's content field. *)
    Alcotest.(check bool) "passes through the field" true
      (List.exists (fun s -> contains s.Provenance.description "content") chain)

let negative_test () =
  let solver =
    setup
      {|
      class A {} class B {}
      class Main {
        static method main() {
          var a = new A;
          var b = new B;
        }
      }
      |}
  in
  let var = find_var solver "main" "a" in
  let wrong_heap = find_heap solver "B" in
  Alcotest.(check bool) "no chain for a non-fact" true
    (Provenance.explain (Provenance.create solver) ~var ~heap:wrong_heap = None)

let direct_alloc_test () =
  let solver =
    setup
      {|
      class A {}
      class Main { static method main() { var a = new A; } }
      |}
  in
  let var = find_var solver "main" "a" in
  let heap = find_heap solver "A" in
  match Provenance.explain (Provenance.create solver) ~var ~heap with
  | Some [ only ] -> Alcotest.(check bool) "origin" true only.Provenance.is_origin
  | Some chain -> Alcotest.failf "expected length-1 chain, got %d" (List.length chain)
  | None -> Alcotest.fail "expected a chain"

(* Regression: explain on the partial state of a budget-aborted run must
   refuse cleanly (Invalid_argument), not walk the half-built supergraph
   and return a bogus chain or crash. *)
let aborted_run_test () =
  let module Budget = Pta_obs.Budget in
  let program =
    Pta_workloads.Workloads.program
      (Option.get (Pta_workloads.Profile.by_name "tiny"))
  in
  let factory = Option.get (Pta_context.Strategies.by_name "S-2obj+H") in
  let budget = Budget.unlimited () in
  Budget.on_tick budget (fun n -> if n = 5 then Budget.cancel budget);
  let config = { Solver.Config.default with budget } in
  match Solver.solve_outcome ~config program (factory program) with
  | Solver.Complete _ -> Alcotest.fail "expected an aborted run"
  | Solver.Aborted (partial, _abort) ->
    Alcotest.(check bool) "partial state" false (Solver.is_complete partial);
    let var = ref None in
    Ir.Program.iter_vars (Solver.program partial) (fun v _ ->
        if !var = None then var := Some v);
    let heap = ref None in
    Ir.Program.iter_heaps (Solver.program partial) (fun h _ ->
        if !heap = None then heap := Some h);
    Alcotest.check_raises "refuses partial supergraph"
      (Invalid_argument "Provenance.explain: analysis aborted before fixpoint")
      (fun () ->
        ignore
          (Provenance.explain (Provenance.create partial) ~var:(Option.get !var)
             ~heap:(Option.get !heap)))

(* ------------------------------------------------------------------ *)
(* Differential: session vs the whole-graph reference                 *)
(* ------------------------------------------------------------------ *)

(* A variable's nodes in the order the solver listed them while its
   (var, ctx) -> node table was a polymorphic [Hashtbl]: the table is
   rebuilt here as it was, created with 4096 buckets and filled in
   node-id order, and each variable's list is consed in [Hashtbl.iter]
   order.  Provenance still ends every chain at the first holder in
   this order. *)
let legacy_var_node_ids solver =
  let tbl : (int * int, int) Hashtbl.t = Hashtbl.create 4096 in
  for nid = 0 to Solver.n_nodes solver - 1 do
    match Solver.node_kind solver nid with
    | Solver.Var_node (var, ctx) -> Hashtbl.add tbl (Ir.Var_id.to_int var, ctx) nid
    | _ -> ()
  done;
  let index = Array.make (Ir.Program.n_vars (Solver.program solver)) [] in
  Hashtbl.iter (fun (var, _) nid -> index.(var) <- nid :: index.(var)) tbl;
  fun var -> index.(Ir.Var_id.to_int var)

(* The per-query algorithm the session replaced, kept here as the
   reference.  It is split in two so the sweep below can reuse the
   whole-graph scan across the queries of one allocation site (the scan
   depends on nothing else), and its BFS arrays are cleared between
   queries instead of reallocated; both are cost-only changes. *)
module Reference = struct
  module Intset = Pta_solver.Intset

  let hobjs_of solver heap =
    let hobjs = ref [] in
    for h = 0 to Solver.n_hobjs solver - 1 do
      if Ir.Heap_id.equal (Solver.hobj_heap solver h) heap then
        hobjs := h :: !hobjs
    done;
    !hobjs

  let describe_node solver nid =
    let program = Solver.program solver in
    let ctx_str ctx =
      Format.asprintf "%a"
        (Pta_context.Ctx.pp_value program)
        (Solver.ctx_value solver ctx)
    in
    match Solver.node_kind solver nid with
    | Solver.Var_node (var, ctx) ->
      Printf.sprintf "%s under %s"
        (Ir.Program.var_qualified_name program var)
        (ctx_str ctx)
    | Solver.Fld_node (hobj, field) ->
      Printf.sprintf "field %s of %s"
        (Ir.Program.field_info program field).Ir.field_name
        (Ir.Program.heap_name program (Solver.hobj_heap solver hobj))
    | Solver.Static_fld_node field ->
      let fi = Ir.Program.field_info program field in
      Printf.sprintf "static field %s::%s"
        (Ir.Program.type_name program fi.Ir.field_owner)
        fi.Ir.field_name
    | Solver.Throw_node (meth, ctx) ->
      Printf.sprintf "exceptions escaping %s under %s"
        (Ir.Program.meth_qualified_name program meth)
        (ctx_str ctx)
    | Solver.Scope_node -> "a try-block scope"

  let holds solver hobjs nid =
    List.exists (fun h -> Intset.mem h (Solver.node_points_to solver nid)) hobjs

  (* Reverse adjacency restricted to nodes holding one of the site's
     hobjs, over canonical ids. *)
  let preds solver heap =
    let hobjs = hobjs_of solver heap in
    let n = Solver.n_nodes solver in
    let canon nid = Solver.canonical_node solver nid in
    let holds = holds solver hobjs in
    let preds = Array.make n [] in
    for src = 0 to n - 1 do
      if canon src = src && holds src then
        List.iter
          (fun h ->
            if Intset.mem h (Solver.node_points_to solver src) then
              List.iter
                (fun dst ->
                  let dst = canon dst in
                  if dst <> src && holds dst then
                    preds.(dst) <- src :: preds.(dst))
                (Solver.node_succs_passing solver src h))
          hobjs
    done;
    (hobjs, preds)

  type scratch = { visited : bool array; parent : int array }

  let scratch solver =
    let n = Solver.n_nodes solver in
    { visited = Array.make n false; parent = Array.make n (-1) }

  let explain solver var_node_ids scratch (hobjs, preds) ~var ~heap =
    if not (Intset.mem (Ir.Heap_id.to_int heap) (Solver.ci_var_points_to solver var))
    then None
    else
      match List.filter (holds solver hobjs) (var_node_ids var) with
      | [] -> None
      | target0 :: _ ->
        let { visited; parent } = scratch in
        let target = Solver.canonical_node solver target0 in
        let touched = ref [ target ] in
        let queue = Queue.create () in
        Queue.add target queue;
        visited.(target) <- true;
        let origin = ref target in
        while not (Queue.is_empty queue) do
          let nid = Queue.pop queue in
          let fresh = List.filter (fun p -> not visited.(p)) preds.(nid) in
          if fresh = [] && preds.(nid) = [] then origin := nid;
          List.iter
            (fun p ->
              visited.(p) <- true;
              parent.(p) <- nid;
              touched := p :: !touched;
              Queue.add p queue)
            fresh
        done;
        let rec chain nid acc =
          if nid = target then List.rev (target :: acc)
          else chain parent.(nid) (nid :: acc)
        in
        let nodes = chain !origin [] in
        List.iter (fun nid -> visited.(nid) <- false) !touched;
        Some
          (List.mapi
             (fun i nid ->
               let nid = if nid = target then target0 else nid in
               {
                 Provenance.description = describe_node solver nid;
                 is_origin = i = 0;
               })
             nodes)
end

(* The queries [pointsto check] makes: every (cast source, heap of an
   incompatible type) pair, in program order. *)
let cast_queries solver =
  let program = Solver.program solver in
  let hierarchy = Solver.hierarchy solver in
  let queries = ref [] in
  Ir.Meth_id.Set.iter
    (fun meth ->
      Ir.iter_instrs
        (function
          | Ir.Cast { source; cast_type; _ } ->
            Pta_solver.Intset.iter
              (fun h ->
                let heap = Ir.Heap_id.of_int h in
                let ty = (Ir.Program.heap_info program heap).Ir.heap_type in
                if not (Pta_ir.Hierarchy.subtype hierarchy ~sub:ty ~sup:cast_type)
                then queries := (source, heap) :: !queries)
              (Solver.ci_var_points_to solver source)
          | _ -> ())
        (Ir.Program.meth_info program meth).Ir.body)
    (Solver.reachable_meths solver);
  List.rev !queries

let vpt_queries solver =
  let queries = ref [] in
  Ir.Program.iter_vars (Solver.program solver) (fun var _ ->
      Pta_solver.Intset.iter
        (fun h -> queries := (var, Ir.Heap_id.of_int h) :: !queries)
        (Solver.ci_var_points_to solver var));
  List.rev !queries

(* Every [stride]-th query, [stride] chosen so at most [limit] remain. *)
let sample ?limit queries =
  match limit with
  | None -> queries
  | Some limit ->
    let stride = max 1 (List.length queries / limit) in
    List.filteri (fun i _ -> i mod stride = 0) queries

(* One session answers every query, casts first, then the var-points-to
   facts; the reference answers them grouped by site.  The step lists
   must match exactly.  [limit] samples both query lists evenly: under
   insens, antlr has half a million var-points-to facts, each a chain
   of about a millisecond per engine. *)
let differential ?limit ~workload ~analysis () =
  let program = Option.get (Pta_workloads.Workloads.program_by_name workload) in
  let factory = Option.get (Pta_context.Strategies.by_name analysis) in
  let solver = Solver.solve program (factory program) in
  let casts = sample ?limit (cast_queries solver) in
  let vpt = sample ?limit (vpt_queries solver) in
  let session = Provenance.create solver in
  let got = Hashtbl.create 4096 in
  List.iter
    (fun (var, heap) ->
      let chain = Provenance.explain session ~var ~heap in
      (* a repeated query must not see state an earlier walk left *)
      (match Hashtbl.find_opt got (var, heap) with
      | Some earlier when earlier <> chain ->
        Alcotest.failf "%s/%s: a repeated query changed its answer" workload
          analysis
      | _ -> ());
      Hashtbl.replace got (var, heap) chain)
    (casts @ vpt);
  let scratch = Reference.scratch solver in
  let var_node_ids = legacy_var_node_ids solver in
  let by_site = Hashtbl.create 256 in
  Hashtbl.iter
    (fun (var, heap) _ ->
      let h = Ir.Heap_id.to_int heap in
      Hashtbl.replace by_site h
        (var :: Option.value ~default:[] (Hashtbl.find_opt by_site h)))
    got;
  Hashtbl.iter
    (fun h vars ->
      let heap = Ir.Heap_id.of_int h in
      let index = Reference.preds solver heap in
      List.iter
        (fun var ->
          let expected =
            Reference.explain solver var_node_ids scratch index ~var ~heap
          in
          (* every query is a var-points-to fact, so it has a chain *)
          if expected = None || Hashtbl.find got (var, heap) <> expected then
            Alcotest.failf "%s/%s: chains differ for %s -> %s" workload analysis
              (Ir.Program.var_qualified_name program var)
              (Ir.Program.heap_name program heap))
        vars)
    by_site;
  Alcotest.(check bool) "some cast queries" true (casts <> [])

(* Every may-fail-cast query's chain ends at the first holder in the
   legacy order, whatever order the solver's tables iterate in. *)
let witness_order ~workload ~analysis () =
  let program = Option.get (Pta_workloads.Workloads.program_by_name workload) in
  let factory = Option.get (Pta_context.Strategies.by_name analysis) in
  let solver = Solver.solve program (factory program) in
  let var_node_ids = legacy_var_node_ids solver in
  let session = Provenance.create solver in
  let queries = cast_queries solver in
  List.iter
    (fun (var, heap) ->
      let hobjs = Reference.hobjs_of solver heap in
      let expected =
        match List.filter (Reference.holds solver hobjs) (var_node_ids var) with
        | first :: _ -> Reference.describe_node solver first
        | [] -> Alcotest.fail "a cast query without a holding node"
      in
      match Provenance.explain session ~var ~heap with
      | None -> Alcotest.fail "a cast query without a chain"
      | Some chain ->
        let last = List.nth chain (List.length chain - 1) in
        if last.Provenance.description <> expected then
          Alcotest.failf "%s/%s: chain for %s ends at %s, not %s" workload
            analysis
            (Ir.Program.var_qualified_name program var)
            last.Provenance.description expected)
    queries;
  Alcotest.(check bool) "some cast queries" true (queries <> [])

(* The may-fail-cast report on the tiny workload, witness chains
   included, digested: pins everything the reference above takes from
   the solver as given — which context a chain ends at — to the reports
   the whole-graph algorithm produced. *)
let pinned_report ~analysis ~digest () =
  let program = Option.get (Pta_workloads.Workloads.program_by_name "tiny") in
  let factory = Option.get (Pta_context.Strategies.by_name analysis) in
  let solver = Solver.solve program (factory program) in
  let diags =
    Pta_checkers.Checkers.run ~only:[ "may-fail-cast" ]
      (Pta_checkers.Results.of_solver solver)
  in
  let report = Format.asprintf "%a" Pta_checkers.Diagnostic.pp_report diags in
  Alcotest.(check string) analysis digest (Digest.to_hex (Digest.string report))

let tests =
  [
    Alcotest.test_case "chain through call and field" `Quick chain_test;
    Alcotest.test_case "no chain for non-facts" `Quick negative_test;
    Alcotest.test_case "direct allocation" `Quick direct_alloc_test;
    Alcotest.test_case "refuses aborted runs" `Quick aborted_run_test;
      Alcotest.test_case "session = reference on tiny/insens" `Quick
      (differential ~workload:"tiny" ~analysis:"insens");
    Alcotest.test_case "session = reference on tiny/S-2obj+H" `Quick
      (differential ~workload:"tiny" ~analysis:"S-2obj+H");
    Alcotest.test_case "session = reference on antlr/insens" `Slow
      (differential ~limit:300 ~workload:"antlr" ~analysis:"insens");
    Alcotest.test_case "session = reference on antlr/S-2obj+H" `Slow
      (differential ~workload:"antlr" ~analysis:"S-2obj+H");
    Alcotest.test_case "witness order on tiny/1obj" `Quick
      (witness_order ~workload:"tiny" ~analysis:"1obj");
    Alcotest.test_case "witness order on tiny/S-2obj+H" `Quick
      (witness_order ~workload:"tiny" ~analysis:"S-2obj+H");
    Alcotest.test_case "witness order on tiny/2type+H" `Quick
      (witness_order ~workload:"tiny" ~analysis:"2type+H");
    Alcotest.test_case "witness order on antlr/1obj" `Slow
      (witness_order ~workload:"antlr" ~analysis:"1obj");
    Alcotest.test_case "witness order on antlr/S-2obj+H" `Slow
      (witness_order ~workload:"antlr" ~analysis:"S-2obj+H");
    Alcotest.test_case "witness order on antlr/2type+H" `Slow
      (witness_order ~workload:"antlr" ~analysis:"2type+H");
      Alcotest.test_case "tiny/1obj cast report is pinned" `Quick
      (pinned_report ~analysis:"1obj" ~digest:"a33de8e71c5b23a8d7835b0933be672d");
    Alcotest.test_case "tiny/S-2obj+H cast report is pinned" `Quick
      (pinned_report ~analysis:"S-2obj+H"
         ~digest:"9f12a20407342f12d645517a56c13562");
  ]
