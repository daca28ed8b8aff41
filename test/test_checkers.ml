(** Tests for the diagnostics subsystem: source spans through lowering,
    the four checkers, the cast-count parity with the metric bundle, and
    the SARIF export. *)

module Ir = Pta_ir.Ir
module Srcloc = Pta_ir.Srcloc
module Solver = Pta_solver.Solver
module Diagnostic = Pta_checkers.Diagnostic
module Results = Pta_checkers.Results
module Checkers = Pta_checkers.Checkers
module Sarif = Pta_checkers.Sarif
module Json = Pta_obs.Json

let results ?strategy src = Results.of_solver (Helpers.run ?strategy src)

let by_code code diags =
  List.filter (fun (d : Diagnostic.t) -> d.code = code) diags

let pos_pair = function
  | None -> (0, 0)
  | Some (sp : Srcloc.span) -> (sp.left.line, sp.left.col)

let end_pair = function
  | None -> (0, 0)
  | Some (sp : Srcloc.span) -> (sp.right.line, sp.right.col)

(* Line/column layout of this source is load-bearing: the span tests
   below assert exact positions. *)
let demo_src =
  "class A { }\n\
   class B extends A { }\n\
   class Main {\n\
  \  static method main() {\n\
  \    var a = new A;\n\
  \    var b = (B) a;\n\
  \    var dead = new Main;\n\
  \    dead.helper();\n\
  \  }\n\
  \  method helper() { }\n\
  \  method unused() { }\n\
   }\n"

let span_tests =
  [
    Alcotest.test_case "instr span tables align with instr_list" `Quick
      (fun () ->
        let p =
          Helpers.program
            "class T { field f; method m(x) { var v = new T; try { v.f = x; \
             if (*) { throw v; } } catch (T t) { var w = t.f; } while (*) { \
             v = (T) x; } return v; } static method main() { var t = new T; \
             t.m(t); } }"
        in
        Ir.Program.iter_meths p (fun meth mi ->
            let n = List.length (Ir.instr_list mi.Ir.body) in
            let spans = Ir.Program.instr_spans p meth in
            Alcotest.(check int)
              (Ir.Program.meth_qualified_name p meth)
              n (Array.length spans);
            Array.iter
              (fun sp ->
                Alcotest.(check bool) "span is real" false
                  (Srcloc.is_dummy_span sp))
              spans));
    Alcotest.test_case "method/heap/invo spans recorded" `Quick (fun () ->
        let p = Helpers.program demo_src in
        let main = Option.get (Ir.Program.find_meth p "Main" "main" 0) in
        Alcotest.(check (pair int int))
          "main header" (4, 3)
          (pos_pair (Ir.Program.meth_span p main));
        let heap_spans = ref [] in
        Ir.Program.iter_heaps p (fun h _ ->
            heap_spans := pos_pair (Ir.Program.heap_span p h) :: !heap_spans);
        Alcotest.(check bool)
          "new A span present" true
          (List.mem (5, 13) !heap_spans);
        let invo_spans = ref [] in
        Ir.Program.iter_invos p (fun i _ ->
            invo_spans := pos_pair (Ir.Program.invo_span p i) :: !invo_spans);
        Alcotest.(check bool)
          "call span present" true
          (List.mem (8, 5) !invo_spans));
    Alcotest.test_case "synthetic programs have no spans" `Quick (fun () ->
        let b = Ir.Builder.create () in
        let obj =
          Ir.Builder.add_type b ~name:"Object" ~kind:Ir.Class ~superclass:None
            ~interfaces:[]
        in
        let m =
          Ir.Builder.add_meth b ~owner:obj ~name:"main" ~arity:0 ~static:true
        in
        Ir.Builder.set_body b m (Ir.Seq []);
        Ir.Builder.add_entry b m;
        let p = Ir.Builder.freeze b in
        Alcotest.(check bool)
          "meth span is None" true
          (Ir.Program.meth_span p m = None);
        Alcotest.(check int)
          "no instr spans" 0
          (Array.length (Ir.Program.instr_spans p m)));
  ]

let checker_tests =
  [
    Alcotest.test_case "may-fail-cast carries exact spans" `Quick (fun () ->
        let diags = Checkers.run (results demo_src) in
        match by_code "may-fail-cast" diags with
        | [ d ] ->
          Alcotest.(check string)
            "severity" "error"
            (Diagnostic.severity_to_string d.severity);
          Alcotest.(check (pair int int)) "start" (6, 13) (pos_pair d.span);
          Alcotest.(check (pair int int)) "end" (6, 18) (end_pair d.span);
          Alcotest.(check string)
            "file" "<test>"
            (match d.span with Some sp -> sp.left.file | None -> "?");
          (match d.witnesses with
          | [ w ] ->
            Alcotest.(check (pair int int))
              "witness at the allocation" (5, 13) (pos_pair w.w_span);
            Alcotest.(check bool)
              "witness has provenance detail" true (w.w_detail <> [])
          | ws -> Alcotest.failf "expected one witness, got %d" (List.length ws))
        | ds -> Alcotest.failf "expected one may-fail-cast, got %d" (List.length ds));
    Alcotest.test_case "dead and monomorphic reported" `Quick (fun () ->
        let diags = Checkers.run (results demo_src) in
        (match by_code "dead-method" diags with
        | [ d ] ->
          Alcotest.(check (pair int int)) "unused header" (11, 3) (pos_pair d.span);
          Alcotest.(check bool)
            "mentions the method" true
            (String.length d.message > 0
            && String.equal d.message
                 "method Main.unused/0 is unreachable from every entry point")
        | ds -> Alcotest.failf "expected one dead-method, got %d" (List.length ds));
        match by_code "monomorphic-call-site" diags with
        | [ d ] ->
          Alcotest.(check (pair int int)) "call site" (8, 5) (pos_pair d.span)
        | ds ->
          Alcotest.failf "expected one monomorphic-call-site, got %d"
            (List.length ds));
    Alcotest.test_case "null-dereference on never-assigned base" `Quick
      (fun () ->
        let src =
          "class A { field f; method m() { } } class Main { static method \
           main() { var x; x.f = new A; x.m(); var y = x.f; } }"
        in
        let diags = by_code "null-dereference" (Checkers.run (results src)) in
        Alcotest.(check int) "store + call + load" 3 (List.length diags));
    Alcotest.test_case "polymorphic sites are not monomorphic" `Quick (fun () ->
        let src =
          "class A { method m() { } } class B extends A { method m() { } } \
           class Main { static method main() { var x; if (*) { x = new A; } \
           x = new B; x.m(); } }"
        in
        let diags = Checkers.run (results src) in
        Alcotest.(check int)
          "no monomorphic note for a 2-target call" 0
          (List.length (by_code "monomorphic-call-site" diags)));
    Alcotest.test_case "checker selection and unknown names" `Quick (fun () ->
        let r = results demo_src in
        let only = Checkers.run ~only:[ "dead-method" ] r in
        Alcotest.(check bool)
          "only dead-method" true
          (List.for_all (fun (d : Diagnostic.t) -> d.code = "dead-method") only);
        Alcotest.(check bool)
          "unknown checker rejected with suggestions" true
          (match Checkers.run ~only:[ "dead-methods" ] r with
          | _ -> false
          | exception Checkers.Unknown_checker { code; suggestions; available }
            ->
            code = "dead-methods"
            && List.mem "dead-method" suggestions
            && List.length available = List.length Checkers.all));
    Alcotest.test_case "a cancelled solve budget stops the checkers" `Quick
      (fun () ->
        let module Budget = Pta_obs.Budget in
        let p = Helpers.program demo_src in
        let factory = Option.get (Pta_context.Strategies.by_name "1obj") in
        let config = Solver.Config.make () in
        let solver = Solver.solve ~config p (factory p) in
        let budget = config.Solver.Config.budget in
        Budget.cancel budget;
        match Checkers.run ~budget (Results.of_solver solver) with
        | _ -> Alcotest.fail "expected Budget.Exhausted"
        | exception Budget.Exhausted _ -> ());
    Alcotest.test_case "a budget cancelled after the solve stops the witnesses"
      `Quick (fun () ->
        let module Budget = Pta_obs.Budget in
        let p = Helpers.program demo_src in
        let factory = Option.get (Pta_context.Strategies.by_name "1obj") in
        let config = Solver.Config.make () in
        let solver = Solver.solve ~config p (factory p) in
        let r = Results.of_solver solver in
        let only = [ "may-fail-cast" ] in
        (* The run's first poll is [Checkers.run]'s own, the second the
           one witness's; cancel on that second one. *)
        let cancel_at_witness budget =
          let base = Budget.iterations budget in
          Budget.on_tick budget (fun n ->
              if n = base + 2 then Budget.cancel budget)
        in
        (* Control: without a solver there is no provenance index to
           build, and nothing polls after the witness's own check. *)
        let control = Budget.unlimited () in
        cancel_at_witness control;
        (match Checkers.run ~only ~budget:control { r with solver = None } with
        | [ { witnesses = [ _ ]; _ } ] -> ()
        | _ -> Alcotest.fail "expected one diagnostic with one witness");
        (* With the solver, the witness's provenance index build polls
           the solve's own budget and stops there. *)
        let budget = config.Solver.Config.budget in
        cancel_at_witness budget;
        match Checkers.run ~only ~budget r with
        | _ -> Alcotest.fail "expected Budget.Exhausted"
        | exception Budget.Exhausted _ -> ());
    Alcotest.test_case "diagnostics are sorted and stable" `Quick (fun () ->
        let diags = Checkers.run (results demo_src) in
        Alcotest.(check bool)
          "sorted by Diagnostic.compare" true
          (List.sort Diagnostic.compare diags = diags));
  ]

(* The may-fail-cast checker and the metric bundle share one cast
   verdict: under every strategy the checker reports exactly as many
   sites as [Metrics.may_fail_casts] counts. *)
let parity_src =
  {|
  class Animal { }
  class Dog extends Animal { }
  class Cat extends Animal { }
  class BoxP { field held;
    method put(x) { this.held = x; return this; }
    method get() { return this.held; }
  }
  class Main {
    static method main() {
      var b1 = new BoxP;
      var b2 = new BoxP;
      b1.put(new Dog);
      b2.put(new Cat);
      var d = (Dog) b1.get();
      var c = (Cat) b2.get();
      var a = (Animal) b1.get();
    }
  }
  |}

let parity_tests =
  [
    Alcotest.test_case "cast counts match the metric bundle" `Quick (fun () ->
        List.iter
          (fun (strategy, _) ->
            let solver = Helpers.run ~strategy parity_src in
            let diags =
              Checkers.may_fail_cast (Results.of_solver solver)
            in
            Alcotest.(check int)
              (Printf.sprintf "under %s" strategy)
              (Pta_clients.Metrics.compute solver).may_fail_casts
              (List.length diags))
          Pta_context.Strategies.all);
  ]

let sarif_tests =
  [
    Alcotest.test_case "SARIF parses and has the right shape" `Quick (fun () ->
        let diags = Checkers.run (results demo_src) in
        let doc = Sarif.to_string ~tool_version:"1.0.0" diags in
        let json =
          match Json.of_string doc with
          | Ok j -> j
          | Error e -> Alcotest.failf "SARIF does not parse: %s" e
        in
        Alcotest.(check (option string))
          "version" (Some "2.1.0")
          (Option.bind (Json.member "version" json) Json.to_str);
        let run =
          match Option.bind (Json.member "runs" json) Json.to_list with
          | Some [ r ] -> r
          | _ -> Alcotest.fail "expected exactly one run"
        in
        let rules =
          Option.bind (Json.member "tool" run) (Json.member "driver")
          |> Fun.flip Option.bind (Json.member "rules")
          |> Fun.flip Option.bind Json.to_list
          |> Option.get
        in
        let rule_ids =
          List.filter_map
            (fun r -> Option.bind (Json.member "id" r) Json.to_str)
            rules
        in
        Alcotest.(check (list string))
          "one rule per checker"
          (List.map (fun (i : Checkers.info) -> i.code) Checkers.all)
          rule_ids;
        let sarif_results =
          Option.bind (Json.member "results" run) Json.to_list |> Option.get
        in
        Alcotest.(check int)
          "one result per diagnostic" (List.length diags)
          (List.length sarif_results);
        (* Every result's ruleId is a declared rule. *)
        List.iter
          (fun r ->
            let rule_id =
              Option.bind (Json.member "ruleId" r) Json.to_str |> Option.get
            in
            Alcotest.(check bool)
              ("declared rule " ^ rule_id)
              true
              (List.mem rule_id rule_ids))
          sarif_results);
    Alcotest.test_case "SARIF regions are 1-based spans" `Quick (fun () ->
        let diags =
          by_code "may-fail-cast" (Checkers.run (results demo_src))
        in
        let doc = Sarif.to_string ~tool_version:"1.0.0" diags in
        let json = Result.get_ok (Json.of_string doc) in
        let result =
          Option.bind (Json.member "runs" json) Json.to_list |> Option.get
          |> List.hd |> Json.member "results"
          |> Fun.flip Option.bind Json.to_list
          |> Option.get |> List.hd
        in
        let region =
          Json.member "locations" result
          |> Fun.flip Option.bind Json.to_list
          |> Option.get |> List.hd
          |> Json.member "physicalLocation"
          |> Fun.flip Option.bind (Json.member "region")
          |> Option.get
        in
        let geti k = Option.bind (Json.member k region) Json.to_int in
        Alcotest.(check (option int)) "startLine" (Some 6) (geti "startLine");
        Alcotest.(check (option int)) "startColumn" (Some 13) (geti "startColumn");
        Alcotest.(check (option int)) "endLine" (Some 6) (geti "endLine");
        Alcotest.(check (option int)) "endColumn" (Some 18) (geti "endColumn"));
    Alcotest.test_case "SARIF streams the whole tree's bytes" `Quick
      (fun () ->
        (* Printed one result at a time, the document is what printing
           its parsed tree at once gives, plus one more newline. *)
        List.iter
          (fun (what, diags) ->
            let doc = Sarif.to_string ~tool_version:"1.0.0" diags in
            let tree = Result.get_ok (Json.of_string doc) in
            Alcotest.(check string) what (Json.to_string tree ^ "\n") doc)
          [
            ("with results", Checkers.run (results demo_src));
            ("no results", []);
          ]);
    Alcotest.test_case "SARIF is byte-deterministic across runs" `Quick
      (fun () ->
        let doc () =
          Sarif.to_string ~tool_version:"1.0.0"
            (Checkers.run (results demo_src))
        in
        Alcotest.(check string) "identical documents" (doc ()) (doc ()));
  ]

(* ------------------------------------------------------------------ *)
(* The taint checkers                                                  *)
(* ------------------------------------------------------------------ *)

module Spec = Pta_taint.Spec
module Taint = Pta_taint.Taint

let taint_src =
  {|
  class Data {}
  class Kit { static method pass(x) { return x; } }
  class Sink {
    static field cell;
    static method fetch() { var t = new Data; return t; }
    static method leak(x) { Sink::cell = x; }
    static method scrub(x) { Sink::cell = x; return x; }
  }
  class Main {
    static method main() {
      var raw = Sink::fetch();
      var clean = new Data;
      var a = Kit::pass(raw);
      var b = Kit::pass(clean);
      Sink::leak(a);
      Sink::leak(b);
      Sink::scrub(raw);
      Sink::leak(raw);
    }
  }
  |}

let taint_results ~strategy src =
  let solver = Helpers.run ~strategy src in
  let spec = Spec.compile (Solver.program solver) Spec.default in
  let taint = Taint.analyze solver spec in
  (solver, Results.of_solver ~taint:(Taint.summary taint) solver)

let taint_checker_tests =
  [
    Alcotest.test_case "tainted-sink-argument reports each flow" `Quick
      (fun () ->
        (* Three true flows: leak(a), leak(raw) — and under a conflating
           strategy the spurious leak(b) as well. *)
        let _, precise = taint_results ~strategy:"S-2obj+H" taint_src in
        let diags = by_code "tainted-sink-argument" (Checkers.run precise) in
        Alcotest.(check int) "precise: two sink calls flagged" 2
          (List.length diags);
        let _, conflated = taint_results ~strategy:"2obj+H" taint_src in
        let diags' =
          by_code "tainted-sink-argument" (Checkers.run conflated)
        in
        Alcotest.(check int) "conflated: spurious third flow" 3
          (List.length diags');
        List.iter
          (fun (d : Diagnostic.t) ->
            Alcotest.(check bool) "has a span" true (d.span <> None);
            match d.witnesses with
            | [ w ] ->
              Alcotest.(check bool)
                "witness names the source" true
                (w.w_message = "source Sink.fetch/0 ret, declared here");
              Alcotest.(check bool)
                "witness points at the source method" true (w.w_span <> None);
              Alcotest.(check bool)
                "native witness carries the chain" true
                (List.length w.w_detail >= 2)
            | ws -> Alcotest.failf "expected one witness, got %d"
                      (List.length ws))
          diags);
    Alcotest.test_case "sanitizer-bypassed on a discarded result" `Quick
      (fun () ->
        let _, r = taint_results ~strategy:"S-2obj+H" taint_src in
        match by_code "sanitizer-bypassed" (Checkers.run r) with
        | [ d ] ->
          Alcotest.(check Alcotest.string)
            "message"
            "result of sanitizer Sink.scrub/1 is discarded; raw stays tainted"
            d.message;
          Alcotest.(check int) "sanitizer witness" 1 (List.length d.witnesses)
        | ds -> Alcotest.failf "expected one bypass warning, got %d"
                  (List.length ds));
    Alcotest.test_case "taint checkers are silent without a spec" `Quick
      (fun () ->
        let diags = Checkers.run (results taint_src) in
        Alcotest.(check int) "no sink diags" 0
          (List.length (by_code "tainted-sink-argument" diags));
        Alcotest.(check int) "no bypass diags" 0
          (List.length (by_code "sanitizer-bypassed" diags)));
    Alcotest.test_case "taint checker verdicts agree across engines" `Quick
      (fun () ->
        let program = Helpers.program taint_src in
        let spec = Spec.compile program Spec.default in
        let key (d : Diagnostic.t) =
          ( d.code,
            d.message,
            pos_pair d.span,
            List.map
              (fun (w : Diagnostic.witness) -> (w.w_message, pos_pair w.w_span))
              d.witnesses )
        in
        List.iter
          (fun strat ->
            let factory =
              Option.get (Pta_context.Strategies.by_name strat)
            in
            let strategy = factory program in
            let solver = Solver.solve program strategy in
            let native =
              Results.of_solver
                ~taint:(Taint.summary (Taint.analyze solver spec))
                solver
            in
            let refimpl = Pta_refimpl.Refimpl.run program strategy in
            let reference =
              Results.of_refimpl
                ~taint:
                  (Pta_taint.Taint_ref.summary
                     (Pta_taint.Taint_ref.analyze program strategy refimpl spec))
                program refimpl
            in
            let taint_only =
              [ "tainted-sink-argument"; "sanitizer-bypassed" ]
            in
            Alcotest.(check bool)
              (strat ^ ": same verdicts either engine")
              true
              (List.map key (Checkers.run ~only:taint_only native)
              = List.map key (Checkers.run ~only:taint_only reference)))
          [ "insens"; "2obj+H"; "S-2obj+H"; "CS" ]);
    Alcotest.test_case "taint SARIF is byte-deterministic" `Quick (fun () ->
        let doc () =
          let _, r = taint_results ~strategy:"S-2obj+H" taint_src in
          Sarif.to_string ~tool_version:"1.0.0" (Checkers.run r)
        in
        let d = doc () in
        Alcotest.(check string) "identical documents" d (doc ());
        let json = Result.get_ok (Json.of_string d) in
        let rule_ids =
          Option.bind (Json.member "runs" json) Json.to_list |> Option.get
          |> List.hd
          |> Json.member "results"
          |> Fun.flip Option.bind Json.to_list
          |> Option.get
          |> List.filter_map (fun r ->
                 Option.bind (Json.member "ruleId" r) Json.to_str)
        in
        Alcotest.(check bool)
          "taint results exported" true
          (List.mem "tainted-sink-argument" rule_ids
          && List.mem "sanitizer-bypassed" rule_ids));
  ]

let tests =
  span_tests @ checker_tests @ parity_tests @ sarif_tests @ taint_checker_tests
