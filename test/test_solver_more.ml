(** Additional solver behaviour tests: determinism, timeouts, dispatch
    corner cases, field/context structure. *)

module Ir = Pta_ir.Ir
module Solver = Pta_solver.Solver
module Intset = Pta_solver.Intset
module Metrics = Pta_clients.Metrics

let run ?timeout_s src name =
  let program = Pta_frontend.Frontend.program_of_string ~file:"<t>" src in
  let factory = Option.get (Pta_context.Strategies.by_name name) in
  Solver.solve ~config:(Solver.Config.make ?timeout_s ()) program (factory program)

let determinism_test () =
  let program =
    Pta_workloads.Workloads.program
      (Option.get (Pta_workloads.Profile.by_name "tiny"))
  in
  let factory = Option.get (Pta_context.Strategies.by_name "S-2obj+H") in
  let m1 = Metrics.compute (Solver.solve program (factory program)) in
  let m2 = Metrics.compute (Solver.solve program (factory program)) in
  Alcotest.(check bool) "identical metric bundles" true (m1 = m2)

let timeout_test () =
  let program =
    Pta_workloads.Workloads.program
      (Option.get (Pta_workloads.Profile.by_name "luindex"))
  in
  let factory = Option.get (Pta_context.Strategies.by_name "U-2obj+H") in
  match Solver.solve ~config:(Solver.Config.make ~timeout_s:0.0001 ()) program (factory program) with
  | _ -> Alcotest.fail "expected Solver.Timeout"
  | exception Solver.Timeout abort ->
    Alcotest.(check bool)
      "abort payload populated" true
      (abort.Pta_obs.Budget.elapsed_s >= 0.0001
      && abort.Pta_obs.Budget.iterations > 0
      && abort.Pta_obs.Budget.nodes > 0)

let no_timeout_when_fast_test () =
  match run ~timeout_s:30. "class Main { static method main() { var x = new Main; } }" "1obj" with
  | solver -> Alcotest.(check int) "one hobj" 1 (Solver.n_hobjs solver)
  | exception Solver.Timeout _ -> Alcotest.fail "spurious timeout"

let unresolved_dispatch_test () =
  (* Calling a method that exists nowhere in the receiver's hierarchy:
     no edge, no crash — like Doop's failed dispatch. *)
  let solver =
    run
      {|
      class A { }
      class Main { static method main() { var a = new A; var r = a.ghost(a); } }
      |}
      "1obj"
  in
  let m = Metrics.compute solver in
  Alcotest.(check int) "no call edges" 0 m.Metrics.call_graph_edges;
  Alcotest.(check int) "one reachable" 1 m.Metrics.reachable_methods

let static_target_not_virtual_test () =
  (* A virtual call whose lookup would land on a static method must not
     dispatch to it. *)
  let solver =
    run
      {|
      class A { static method util() { return new A; } }
      class Main { static method main() { var a = new A; var r = a.util(); } }
      |}
      "insens"
  in
  let m = Metrics.compute solver in
  Alcotest.(check int) "no call edges" 0 m.Metrics.call_graph_edges

let null_only_flow_test () =
  let solver =
    run
      {|
      class Main {
        static method main() {
          var x = null;
          var y = x;
          var z = (Main) y;
        }
      }
      |}
      "insens"
  in
  let m = Metrics.compute solver in
  Alcotest.(check int) "no objects anywhere" 0 m.Metrics.vars_with_objs;
  (* the cast over a null-only value is trivially safe *)
  Alcotest.(check int) "no may-fail casts" 0 m.Metrics.may_fail_casts

let recursion_terminates_test () =
  (* Unbounded allocation in recursion must still reach a finite
     fixpoint thanks to bounded contexts — for a deep-context analysis. *)
  let solver =
    run
      {|
      class Node {
        field next;
        method extend() {
          var n = new Node;
          n.next = this;
          if (*) { return n.extend(); }
          return n;
        }
      }
      class Main {
        static method main() {
          var root = new Node;
          var chain = root.extend();
          var hop = chain.next;
        }
      }
      |}
      "3obj+2H"
  in
  Alcotest.(check bool) "finite contexts" true (Solver.n_ctxs solver < 100)

let ctx_shapes_test () =
  (* Every context a strategy creates during a run has the arity its
     definition promises. *)
  let program =
    Pta_workloads.Workloads.program
      (Option.get (Pta_workloads.Profile.by_name "tiny"))
  in
  List.iter
    (fun (name, arity, harity) ->
      let factory = Option.get (Pta_context.Strategies.by_name name) in
      let solver = Solver.solve program (factory program) in
      for id = 0 to Solver.n_ctxs solver - 1 do
        let v = Solver.ctx_value solver id in
        if Array.length v <> arity then
          Alcotest.failf "%s: context of arity %d (expected %d)" name
            (Array.length v) arity
      done;
      for id = 0 to Solver.n_hctxs solver - 1 do
        let v = Solver.hctx_value solver id in
        if Array.length v <> harity then
          Alcotest.failf "%s: heap context of arity %d (expected %d)" name
            (Array.length v) harity
      done)
    [
      ("insens", 0, 0);
      ("1call", 1, 0);
      ("1call+H", 1, 1);
      ("1obj", 1, 0);
      ("SB-1obj", 2, 0);
      ("2obj+H", 2, 1);
      ("U-2obj+H", 3, 1);
      ("S-2obj+H", 3, 1);
      ("3obj+2H", 3, 2);
    ]

let field_sensitivity_test () =
  (* Distinct fields of the same object never conflate. *)
  let solver =
    run
      {|
      class P { field fst; field snd; }
      class A {} class B {}
      class Main {
        static method main() {
          var p = new P;
          p.fst = new A;
          p.snd = new B;
          var x = p.fst;
          var y = p.snd;
        }
      }
      |}
      "insens"
  in
  let program = Solver.program solver in
  let heap_types var_name =
    let found = ref None in
    Ir.Program.iter_vars program (fun v info ->
        if String.equal info.Ir.var_name var_name then found := Some v);
    Intset.fold
      (fun h acc ->
        Ir.Program.type_name program
          (Ir.Program.heap_info program (Ir.Heap_id.of_int h)).Ir.heap_type
        :: acc)
      (Solver.ci_var_points_to solver (Option.get !found))
      []
  in
  Alcotest.(check (list string)) "x is A" [ "A" ] (heap_types "x");
  Alcotest.(check (list string)) "y is B" [ "B" ] (heap_types "y")

(* The projection as one whole-table fold: every (var, ctx) node's
   hobjs mapped to their heaps, unioned per variable.  The oracle for
   [Solver.ci_var_points_to]. *)
let reference_ci_table solver =
  let table =
    Array.make (Ir.Program.n_vars (Solver.program solver)) Intset.empty
  in
  Solver.iter_var_points_to solver (fun var _ hobjs ->
      let v = Ir.Var_id.to_int var in
      let heaps =
        Intset.fold
          (fun hobj acc ->
            Intset.add (Ir.Heap_id.to_int (Solver.hobj_heap solver hobj)) acc)
          hobjs Intset.empty
      in
      table.(v) <- Intset.union table.(v) heaps);
  table

(* Each group's analyses stay live together.  Per variable, the
   states are queried round-robin, then in reverse order twice each.
   Their epochs advance in step, so a stamp leaking from one state
   into another would hide heaps; the repeated query reuses a state's
   stamps on the same variable. *)
let ci_projection_test wname () =
  let program =
    Pta_workloads.Workloads.program
      (Option.get (Pta_workloads.Profile.by_name wname))
  in
  let solve name =
    let factory = Option.get (Pta_context.Strategies.by_name name) in
    let solver = Solver.solve program (factory program) in
    (name, solver, reference_ci_table solver)
  in
  let check var query (name, solver, table) =
    let expected = table.(Ir.Var_id.to_int var) in
    let got = Solver.ci_var_points_to solver var in
    if not (Intset.equal got expected) then
      Alcotest.failf "%s/%s: %s query of %s has %d heaps, not %d" wname name
        query
        (Ir.Program.var_qualified_name program var)
        (Intset.cardinal got) (Intset.cardinal expected)
  in
  List.iter
    (fun group ->
      let live = List.map solve group in
      Ir.Program.iter_vars program (fun var _ ->
          List.iter (check var "round-robin") live;
          List.iter
            (fun state ->
              check var "reverse" state;
              check var "repeated" state)
            (List.rev live)))
    [ [ "insens"; "1obj" ]; [ "1call"; "2type+H"; "S-2obj+H" ] ]

let luindex_1obj () =
  let program =
    Pta_workloads.Workloads.program
      (Option.get (Pta_workloads.Profile.by_name "luindex"))
  in
  let factory = Option.get (Pta_context.Strategies.by_name "1obj") in
  Solver.solve program (factory program)

(* Hash-consing stores each distinct points-to set once, however many
   contexts hold it: the sets' retained words are a small fraction of
   what private copies would cost. *)
let consed_sets_census_test () =
  let c = Solver.census (luindex_1obj ()) in
  match Pta_obs.Census.find c "points-to-sets" with
  | None -> Alcotest.fail "no points-to-sets component"
  | Some comp ->
    let open Pta_obs.Census in
    if comp.retained_words * 10 > comp.unshared_words then
      Alcotest.failf "points-to-sets retain %d words of %d unshared"
        comp.retained_words comp.unshared_words

let ci_query_identity_test () =
  let solver = luindex_1obj () in
  Ir.Program.iter_vars (Solver.program solver) (fun var _ ->
      let a = Solver.ci_var_points_to solver var in
      let b = Solver.ci_var_points_to solver var in
      if a != b then
        Alcotest.failf "two queries of %s are not the same set"
          (Ir.Program.var_qualified_name (Solver.program solver) var))

(* A solve under [Config.default] shares that configuration's budget
   with every other such solve; once the solve ends, the budget must
   not keep the solver state reachable. *)
let default_budget_releases_state_test () =
  let program =
    Pta_workloads.Workloads.program
      (Option.get (Pta_workloads.Profile.by_name "tiny"))
  in
  let factory = Option.get (Pta_context.Strategies.by_name "1obj") in
  let weak = Weak.create 1 in
  let[@inline never] solve_and_drop () =
    Weak.set weak 0
      (Some (Solver.solve ~config:Solver.Config.default program (factory program)))
  in
  solve_and_drop ();
  Gc.full_major ();
  Alcotest.(check bool) "dropped state collected" false (Weak.check weak 0)

(* [var_points_to] answers for exactly the nodes [iter_var_points_to]
   walks, with the same set, and is empty for any pair the solve never
   made: a variable of an unreachable method, or an unused context id. *)
let var_points_to_test w () =
  let program =
    Pta_workloads.Workloads.program (Option.get (Pta_workloads.Profile.by_name w))
  in
  let factory = Option.get (Pta_context.Strategies.by_name "1obj") in
  let solver = Solver.solve program (factory program) in
  Solver.iter_var_points_to solver (fun v c objs ->
      if not (Intset.equal objs (Solver.var_points_to solver v c)) then
        Alcotest.failf "%s: var %d ctx %d differs" w (Ir.Var_id.to_int v) c);
  let reachable = Solver.reachable_meths solver in
  let unused_ctx = Solver.n_ctxs solver in
  let unreachable_vars = ref 0 in
  Ir.Program.iter_vars program (fun v info ->
      Alcotest.(check bool) "unused context id" true
        (Intset.is_empty (Solver.var_points_to solver v unused_ctx));
      if not (Ir.Meth_id.Set.mem info.Ir.var_owner reachable) then begin
        incr unreachable_vars;
        for c = 0 to unused_ctx - 1 do
          if not (Intset.is_empty (Solver.var_points_to solver v c)) then
            Alcotest.failf "%s: unreachable var %d has a set in ctx %d" w
              (Ir.Var_id.to_int v) c
        done
      end);
  Alcotest.(check bool) "some method is unreachable" true (!unreachable_vars > 0)

(* The goldens pin what the solver derives, not the order it visits
   nodes in.  These counters depend on the worklist's pop sequence: a
   queue that pops a different entry first changes the iteration count,
   the deltas, the collapse points and the stale entries skipped. *)
let pop_order_pins =
  (* (workload, analysis, (iterations, n_nodes, delta_total,
     sccs_collapsed, nodes_unified, stale_skipped)) *)
  [
    ("cyclic", "1call", (614026, 54105, 3036297, 318, 3958, 102));
    ("antlr", "S-2obj+H", (36882, 34706, 43459, 72, 203, 0));
  ]

let pop_order_test (workload, analysis, expected) () =
  let program =
    Pta_workloads.Workloads.program
      (Option.get (Pta_workloads.Profile.by_name workload))
  in
  let factory = Option.get (Pta_context.Strategies.by_name analysis) in
  let config = Solver.Config.make () in
  let st = Solver.solve ~config program (factory program) in
  let actual =
    ( Pta_obs.Budget.iterations config.Solver.Config.budget,
      Solver.n_nodes st,
      Solver.delta_total st,
      Solver.sccs_collapsed st,
      Solver.nodes_unified st,
      Solver.stale_skipped st )
  in
  if actual <> expected then
    let p (a, b, c, d, e, f) =
      Printf.sprintf "(%d, %d, %d, %d, %d, %d)" a b c d e f
    in
    Alcotest.failf "%s/%s: pinned %s, got %s" workload analysis (p expected)
      (p actual)

(* The call-graph index: each invocation's, callee's and method's
   bucket lists exactly the matching [iter_call_edges] or
   [iter_reachable] entries, latest first, and the projections read off
   it agree with the tables. *)
let cg_index_test (workload, analysis) () =
  let program =
    Pta_workloads.Workloads.program
      (Option.get (Pta_workloads.Profile.by_name workload))
  in
  let factory = Option.get (Pta_context.Strategies.by_name analysis) in
  let st = Solver.solve program (factory program) in
  let n_invos = Ir.Program.n_invos program
  and n_meths = Ir.Program.n_meths program in
  let by_invo = Array.make n_invos []
  and by_callee = Array.make n_meths []
  and by_meth = Array.make n_meths [] in
  Solver.iter_call_edges st (fun i cc m ec ->
      let i' = Ir.Invo_id.to_int i and m' = Ir.Meth_id.to_int m in
      by_invo.(i') <- (cc, m', ec) :: by_invo.(i');
      by_callee.(m') <- (i', cc, ec) :: by_callee.(m'));
  Solver.iter_reachable st (fun m c ->
      let m' = Ir.Meth_id.to_int m in
      by_meth.(m') <- c :: by_meth.(m'));
  let collect iter =
    let acc = ref [] in
    iter (fun x -> acc := x :: !acc);
    List.rev !acc
  in
  (* [expected] was consed in table order, so it is already latest
     first. *)
  let check what k expected iter =
    if collect iter <> expected then
      Alcotest.failf "%s/%s: %s bucket %d differs" workload analysis what k
  in
  let pairs = Hashtbl.create 64 in
  for i = 0 to n_invos - 1 do
    let invo = Ir.Invo_id.of_int i in
    check "invocation" i by_invo.(i) (fun f ->
        Solver.iter_invo_edges st invo (fun cc m ec ->
            f (cc, Ir.Meth_id.to_int m, ec)));
    let targets =
      List.fold_left
        (fun acc (_, m, _) ->
          Hashtbl.replace pairs (i, m) ();
          Ir.Meth_id.Set.add (Ir.Meth_id.of_int m) acc)
        Ir.Meth_id.Set.empty by_invo.(i)
    in
    if not (Ir.Meth_id.Set.equal targets (Solver.invo_targets st invo)) then
      Alcotest.failf "%s/%s: targets of invocation %d differ" workload analysis i
  done;
  let reachable = ref Ir.Meth_id.Set.empty in
  for m = 0 to n_meths - 1 do
    let meth = Ir.Meth_id.of_int m in
    check "callee" m by_callee.(m) (fun f ->
        Solver.iter_callee_edges st meth (fun i cc ec ->
            f (Ir.Invo_id.to_int i, cc, ec)));
    check "method" m by_meth.(m) (fun f -> Solver.iter_meth_ctxs st meth f);
    if by_meth.(m) <> [] then reachable := Ir.Meth_id.Set.add meth !reachable
  done;
  Alcotest.(check int) "ci call edges" (Hashtbl.length pairs)
    (Solver.n_call_edges_ci st);
  Alcotest.(check bool) "reachable methods" true
    (Ir.Meth_id.Set.equal !reachable (Solver.reachable_meths st));
  Alcotest.(check bool) "one reachable set per solve" true
    (Solver.reachable_meths st == Solver.reachable_meths st)

let tests =
  [
    Alcotest.test_case "determinism" `Quick determinism_test;
    Alcotest.test_case "timeout raised" `Quick timeout_test;
    Alcotest.test_case "no spurious timeout" `Quick no_timeout_when_fast_test;
    Alcotest.test_case "unresolved dispatch is silent" `Quick unresolved_dispatch_test;
    Alcotest.test_case "virtual call skips static target" `Quick
      static_target_not_virtual_test;
    Alcotest.test_case "null-only flows" `Quick null_only_flow_test;
    Alcotest.test_case "recursive allocation terminates deeply" `Quick
      recursion_terminates_test;
    Alcotest.test_case "context arities match definitions" `Quick ctx_shapes_test;
    Alcotest.test_case "field sensitivity" `Quick field_sensitivity_test;
    Alcotest.test_case "consed sets: retained <= unshared/10" `Quick
      consed_sets_census_test;
    Alcotest.test_case "CI queries return the same set" `Quick
      ci_query_identity_test;
    Alcotest.test_case "default budget releases the state" `Quick
      default_budget_releases_state_test;
  ]
  @ List.map
      (fun w ->
        Alcotest.test_case
          (Printf.sprintf "CI projection = fold: %s" w)
          `Quick (ci_projection_test w))
      [ "tiny"; "cyclic"; "luindex" ]
  @ List.map
      (fun w ->
        Alcotest.test_case
          (Printf.sprintf "var_points_to = iteration: %s" w)
          `Quick (var_points_to_test w))
      [ "tiny"; "antlr" ]
  @ List.map
      (fun ((w, a) as cell) ->
        Alcotest.test_case
          (Printf.sprintf "call-graph buckets = tables: %s/%s" w a)
          `Quick (cg_index_test cell))
      [
        ("tiny", "S-2obj+H"); ("tiny", "1call+H"); ("cyclic", "S-2obj+H");
        ("cyclic", "1call+H");
      ]
  @ List.map
      (fun ((w, a, _) as pin) ->
        Alcotest.test_case
          (Printf.sprintf "pop order pinned by counters: %s/%s" w a)
          `Slow (pop_order_test pin))
      pop_order_pins
