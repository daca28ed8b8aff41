(** Behavioural tests for exception-flow analysis and its client:
    handler ordering, rethrow, inter-procedural propagation, and
    uncaught-at-entry reporting. *)

module Ir = Pta_ir.Ir
module Solver = Pta_solver.Solver
module Exceptions = Pta_clients.Exceptions

let run ?(strategy = "1obj") src =
  let program = Pta_frontend.Frontend.program_of_string ~file:"<t>" src in
  let factory = Option.get (Pta_context.Strategies.by_name strategy) in
  Solver.solve program (factory program)

let heap_types solver heaps =
  let program = Solver.program solver in
  heaps
  |> List.map (fun h ->
         Ir.Program.type_name program (Ir.Program.heap_info program h).Ir.heap_type)
  |> List.sort compare

let uncaught_types solver =
  heap_types solver
    (Exceptions.uncaught_at_entries solver (Exceptions.escapes solver))

(* Exceptions caught by the variable's handler, via its points-to set. *)
let catch_var_types solver meth_spec var_name =
  let program = Solver.program solver in
  let cls, name = meth_spec in
  let meth = Option.get (Ir.Program.find_meth program cls name 0) in
  let var = ref None in
  Ir.Program.iter_vars program (fun v info ->
      if Ir.Meth_id.equal info.Ir.var_owner meth && info.Ir.var_name = var_name
      then var := Some v);
  Pta_solver.Intset.fold
    (fun h acc ->
      Ir.Program.type_name program
        (Ir.Program.heap_info program (Ir.Heap_id.of_int h)).Ir.heap_type
      :: acc)
    (Solver.ci_var_points_to solver (Option.get !var))
    []
  |> List.sort compare

let handler_order_test () =
  let solver =
    run
      {|
      class Base {}
      class Mid extends Base {}
      class Leaf extends Mid {}
      class Main {
        static method main() {
          try {
            if (*) { throw new Leaf; }
            if (*) { throw new Mid; }
            throw new Base;
          } catch (Mid m) {
            var gotMid = m;
          } catch (Base b) {
            var gotBase = b;
          }
        }
      }
      |}
  in
  (* Mid and Leaf go to the first handler; Base only to the second. *)
  Alcotest.(check (list string))
    "first handler" [ "Leaf"; "Mid" ]
    (catch_var_types solver ("Main", "main") "gotMid");
  Alcotest.(check (list string))
    "second handler" [ "Base" ]
    (catch_var_types solver ("Main", "main") "gotBase")

let interprocedural_test () =
  let solver =
    run
      {|
      class Oops {}
      class Deep {
        method layer3() { throw new Oops; }
        method layer2() { return this.layer3(); }
        method layer1() { return this.layer2(); }
      }
      class Main {
        static method main() {
          var d = new Deep;
          try {
            var r = d.layer1();
          } catch (Oops o) {
            var caught = o;
          }
        }
      }
      |}
  in
  Alcotest.(check (list string))
    "propagates three frames" [ "Oops" ]
    (catch_var_types solver ("Main", "main") "caught");
  (* each layer reports the escaping exception *)
  let program = Solver.program solver in
  let escaping = Exceptions.escapes solver in
  let throwing_names =
    List.map
      (fun (e : Exceptions.escape) -> Ir.Program.meth_qualified_name program e.meth)
      escaping
    |> List.sort compare
  in
  Alcotest.(check (list string))
    "every layer may throw"
    [ "Deep.layer1/0"; "Deep.layer2/0"; "Deep.layer3/0" ]
    throwing_names

let rethrow_test () =
  let solver =
    run
      {|
      class Low {}
      class Wrapped { field inner; }
      class Main {
        static method work() {
          try {
            throw new Low;
          } catch (Low l) {
            var w = new Wrapped;
            w.inner = l;
            throw w;
          }
        }
        static method main() {
          try {
            Main::work();
          } catch (Wrapped w) {
            var unwrapped = w.inner;
          }
        }
      }
      |}
  in
  Alcotest.(check (list string))
    "wrapped exception unwraps" [ "Low" ]
    (catch_var_types solver ("Main", "main") "unwrapped");
  Alcotest.(check (list string)) "nothing escapes main" [] (uncaught_types solver)

let uncaught_test () =
  let solver =
    run
      {|
      class Boom {}
      class Handled {}
      class Main {
        static method main() {
          try {
            if (*) { throw new Handled; }
          } catch (Handled h) {
            var ok = h;
          }
          if (*) { throw new Boom; }
        }
      }
      |}
  in
  Alcotest.(check (list string))
    "only Boom escapes" [ "Boom" ]
    (uncaught_types solver)

let catch_type_filter_test () =
  (* A handler must not capture incompatible exceptions even when they
     share a try block. *)
  let solver =
    run
      {|
      class ErrA {}
      class ErrB {}
      class Main {
        static method main() {
          try {
            if (*) { throw new ErrA; }
            throw new ErrB;
          } catch (ErrA a) {
            var onlyA = a;
          }
        }
      }
      |}
  in
  Alcotest.(check (list string))
    "handler sees only ErrA" [ "ErrA" ]
    (catch_var_types solver ("Main", "main") "onlyA");
  Alcotest.(check (list string))
    "ErrB escapes" [ "ErrB" ]
    (uncaught_types solver)

let context_sensitivity_test () =
  (* Exceptions respect context: under 1obj, the exception thrown by a
     method is distinguished per receiver... in the ThrowPointsTo
     contexts, though after ci-projection both sites appear.  Check that
     a handler around one receiver's call still sees both alloc sites
     merge only when contexts merge (insens). *)
  let src =
    {|
    class Err { field from; }
    class Thrower {
      method boom(x) {
        var e = new Err;
        e.from = x;
        throw e;
      }
    }
    class TagA {} class TagB {}
    class Main {
      static method main() {
        var t1 = new Thrower;
        var t2 = new Thrower;
        try { t1.boom(new TagA); } catch (Err e1) { var pay1 = e1.from; }
        try { t2.boom(new TagB); } catch (Err e2) { var pay2 = e2.from; }
      }
    }
    |}
  in
  (* Separating the two Err objects needs a heap context: the receivers
     t1/t2 distinguish boom's contexts, and Record stamps them onto the
     Err allocation. *)
  let precise = run ~strategy:"2obj+H" src in
  Alcotest.(check (list string))
    "2obj+H separates payloads" [ "TagA" ]
    (catch_var_types precise ("Main", "main") "pay1");
  (* 1call distinguishes boom's contexts but not the Err objects (no
     heap context), so the payload field conflates. *)
  let call1 = run ~strategy:"1call" src in
  Alcotest.(check (list string))
    "1call conflates payloads" [ "TagA"; "TagB" ]
    (catch_var_types call1 ("Main", "main") "pay1");
  let coarse = run ~strategy:"insens" src in
  Alcotest.(check (list string))
    "insens conflates payloads" [ "TagA"; "TagB" ]
    (catch_var_types coarse ("Main", "main") "pay2")

let tests =
  [
    Alcotest.test_case "handler order and subtyping" `Quick handler_order_test;
    Alcotest.test_case "inter-procedural propagation" `Quick interprocedural_test;
    Alcotest.test_case "catch, wrap and rethrow" `Quick rethrow_test;
    Alcotest.test_case "uncaught at entry" `Quick uncaught_test;
    Alcotest.test_case "handler type filter" `Quick catch_type_filter_test;
    Alcotest.test_case "exception context-sensitivity" `Quick context_sensitivity_test;
  ]
