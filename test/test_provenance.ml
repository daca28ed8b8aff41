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
  match Provenance.explain solver ~var ~heap with
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
    (Provenance.explain solver ~var ~heap:wrong_heap = None)

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
  match Provenance.explain solver ~var ~heap with
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
          (Provenance.explain partial ~var:(Option.get !var)
             ~heap:(Option.get !heap)))

let tests =
  [
    Alcotest.test_case "chain through call and field" `Quick chain_test;
    Alcotest.test_case "no chain for non-facts" `Quick negative_test;
    Alcotest.test_case "direct allocation" `Quick direct_alloc_test;
    Alcotest.test_case "refuses aborted runs" `Quick aborted_run_test;
  ]
