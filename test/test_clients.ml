(** Client analyses on a hand-computed program: devirtualization
    classifications and cast verdicts with witnesses (read through the
    checkers), and the metric bundle. *)

module Ir = Pta_ir.Ir
module Solver = Pta_solver.Solver
module Metrics = Pta_clients.Metrics
module Checkers = Pta_checkers.Checkers
module Diagnostic = Pta_checkers.Diagnostic

let source =
  {|
  class Shape { method area() { return this; } }
  class Circle extends Shape { method area() { return this; } }
  class Square extends Shape { method area() { return this; } }

  class Main {
    static method main() {
      var s = new Circle;
      if (*) { s = new Square; }
      var poly = s.area();        // two targets
      var c = new Circle;
      var mono = c.area();        // one target
      var bad = (Square) s;       // may fail: s can be a Circle
      var ok = (Circle) c;        // safe
      var dead = new Shape;
      var unreached = Main::helper(dead);
    }
    static method helper(x) { return x; }
  }
  |}

let solver =
  lazy
    (let program = Pta_frontend.Frontend.program_of_string ~file:"<t>" source in
     Solver.solve program (Pta_context.Strategies.get "1obj" program))

let checker code solver =
  Checkers.run ~only:[ code ] (Pta_checkers.Results.of_solver solver)

let devirt_test () =
  let solver = Lazy.force solver in
  let program = Solver.program solver in
  (match checker "monomorphic-call-site" solver with
  | [ d ] ->
    Alcotest.(check string) "mono target"
      "virtual call resolves to the single target Circle.area/0"
      d.Diagnostic.message
  | ds -> Alcotest.failf "%d monomorphic sites, expected 1" (List.length ds));
  let main = Option.get (Ir.Program.find_meth program "Main" "main" 0) in
  let targets =
    List.filter_map
      (function
        | Ir.Virtual_call { invo; _ } ->
          Some
            (Ir.Meth_id.Set.elements (Solver.invo_targets solver invo)
            |> List.map (Ir.Program.meth_qualified_name program))
        | _ -> None)
      (Ir.instr_list (Ir.Program.meth_info program main).Ir.body)
  in
  Alcotest.(check (list (list string)))
    "targets per virtual call site"
    [ [ "Circle.area/0" ]; [ "Circle.area/0"; "Square.area/0" ] ]
    (List.sort compare (List.map (List.sort compare) targets))

let casts_test () =
  let solver = Lazy.force solver in
  match checker "may-fail-cast" solver with
  | [ d ] ->
    Alcotest.(check string) "the Square cast" "cast of s to Square may fail"
      d.Diagnostic.message;
    Alcotest.(check (list string))
      "the only witness is the Circle"
      [ "may point to Main.main/0[new Circle@h0@8:15] of type Circle, \
         allocated here" ]
      (List.map (fun (w : Diagnostic.witness) -> w.w_message) d.witnesses)
  | ds -> Alcotest.failf "%d may-fail casts, expected 1" (List.length ds)

let metrics_test () =
  let solver = Lazy.force solver in
  let m = Metrics.compute solver in
  Alcotest.(check int) "poly v-calls" 1 m.Metrics.poly_vcalls;
  Alcotest.(check int) "total v-calls" 2 m.Metrics.total_vcalls;
  Alcotest.(check int) "may-fail casts" 1 m.Metrics.may_fail_casts;
  Alcotest.(check int) "total casts" 2 m.Metrics.total_casts;
  (* main + helper + Circle.area + Square.area are reachable; Shape.area
     is not (no Shape receiver ever flows to a call). *)
  Alcotest.(check int) "reachable methods" 4 m.Metrics.reachable_methods;
  (* call edges: poly(2) + mono(1) + static helper(1) *)
  Alcotest.(check int) "call graph edges" 4 m.Metrics.call_graph_edges;
  Alcotest.(check bool) "avg at least 1" true (m.Metrics.avg_objs_per_var >= 1.)

let unreachable_code_test () =
  (* Methods never called must contribute no metrics. *)
  let program =
    Pta_frontend.Frontend.program_of_string ~file:"<t>"
      {|
      class A {
        method never() { var x = (A) this; return x.never(); }
      }
      class Main { static method main() { var a = new A; } }
      |}
  in
  let solver = Solver.solve program (Pta_context.Strategies.get "1obj" program) in
  let m = Metrics.compute solver in
  Alcotest.(check int) "no casts counted" 0 m.Metrics.total_casts;
  Alcotest.(check int) "no vcalls counted" 0 m.Metrics.total_vcalls;
  Alcotest.(check int) "only main reachable" 1 m.Metrics.reachable_methods

(* The metric bundle's taint pass counts against the caller's budget:
   on a program with a source, a cancelled token must stop it. *)
let metrics_budget_test () =
  let module Budget = Pta_obs.Budget in
  let program =
    Pta_frontend.Frontend.program_of_string ~file:"<t>"
      {|
      class Data {}
      class Net {
        static method fetch() { var t = new Data; return t; }
        static method leak(x) { }
      }
      class Main { static method main() { var d = Net::fetch(); Net::leak(d); } }
      |}
  in
  let solver = Solver.solve program (Pta_context.Strategies.get "1obj" program) in
  Alcotest.(check int) "one flow unbounded" 1
    (Metrics.compute solver).Metrics.taint_flows;
  let budget = Budget.unlimited () in
  Budget.cancel budget;
  match Metrics.compute ~budget solver with
  | _ -> Alcotest.fail "expected Budget.Exhausted"
  | exception Budget.Exhausted _ -> ()

(* The metric bundle's context-insensitive counts come from one walk
   over the var nodes; they must equal their definition:
   [Solver.ci_var_points_to] folded over every variable, and the sum of
   every var node's set size. *)
let projection_counts_test cells () =
  List.iter
    (fun (workload, analysis) ->
      let program =
        Pta_workloads.Workloads.program
          (Option.get (Pta_workloads.Profile.by_name workload))
      in
      let solver =
        Solver.solve program (Pta_context.Strategies.get analysis program)
      in
      let m = Metrics.compute solver in
      let vars = ref 0 and objs = ref 0 in
      Ir.Program.iter_vars program (fun var _ ->
          let size =
            Pta_solver.Intset.cardinal (Solver.ci_var_points_to solver var)
          in
          if size > 0 then begin
            incr vars;
            objs := !objs + size
          end);
      let cs = ref 0 in
      Solver.iter_var_points_to solver (fun _ _ s ->
          cs := !cs + Pta_solver.Intset.cardinal s);
      let cell = workload ^ "/" ^ analysis in
      Alcotest.(check int)
        (cell ^ " vars_with_objs")
        !vars m.Metrics.vars_with_objs;
      Alcotest.(check (float 0.)) (cell ^ " avg_objs_per_var")
        (if !vars = 0 then 0. else float_of_int !objs /. float_of_int !vars)
        m.Metrics.avg_objs_per_var;
      Alcotest.(check int)
        (cell ^ " sensitive_vpt")
        !cs m.Metrics.sensitive_vpt;
      Alcotest.(check int) (cell ^ " sensitive_vpt_size") !cs
        (Solver.sensitive_vpt_size solver))
    cells

let table1_analyses =
  [ "1obj"; "SB-1obj"; "2obj+H"; "S-2obj+H"; "2type+H"; "S-2type+H" ]

let tests =
  [

    Alcotest.test_case "devirtualization classification" `Quick devirt_test;
    Alcotest.test_case "cast verdicts and witnesses" `Quick casts_test;
    Alcotest.test_case "metric bundle" `Quick metrics_test;
    Alcotest.test_case "unreachable code excluded" `Quick unreachable_code_test;
    Alcotest.test_case "a cancelled budget stops the metrics" `Quick
      metrics_budget_test;
    Alcotest.test_case "antlr: count-only metrics = projection fold" `Slow
      (projection_counts_test
         (List.map (fun a -> ("antlr", a)) table1_analyses));
    Alcotest.test_case "cyclic: count-only metrics = projection fold" `Slow
      (projection_counts_test [ ("cyclic", "1call") ]);
  ]
