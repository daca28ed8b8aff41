(** Differential testing: the native worklist solver must compute exactly
    the same VarPointsTo / CallGraph / Reachable facts as the Datalog
    reference implementation (the literal Figure-2 rules), for every
    strategy, on a battery of programs. *)

module Ir = Pta_ir.Ir
module Ctx = Pta_context.Ctx
module Solver = Pta_solver.Solver
module Intset = Pta_solver.Intset

let elem_str = function
  | Ctx.Star -> "*"
  | Ctx.Heap h -> "H" ^ string_of_int (Ir.Heap_id.to_int h)
  | Ctx.Invo i -> "I" ^ string_of_int (Ir.Invo_id.to_int i)
  | Ctx.Type t -> "T" ^ string_of_int (Ir.Type_id.to_int t)

let ctx_str v = String.concat "," (List.map elem_str (Array.to_list v))

module S = Set.Make (String)

let solver_facts solver =
  let vpt = ref S.empty in
  Solver.iter_var_points_to solver (fun var ctx hobjs ->
      let ctx = ctx_str (Solver.ctx_value solver ctx) in
      Intset.iter
        (fun hobj ->
          let heap = Solver.hobj_heap solver hobj in
          let hctx = ctx_str (Solver.hctx_value solver (Solver.hobj_hctx solver hobj)) in
          vpt :=
            S.add
              (Printf.sprintf "%d|%s|%d|%s" (Ir.Var_id.to_int var) ctx
                 (Ir.Heap_id.to_int heap) hctx)
              !vpt)
        hobjs);
  let cg = ref S.empty in
  Solver.iter_call_edges solver (fun invo cctx meth eectx ->
      cg :=
        S.add
          (Printf.sprintf "%d|%s|%d|%s" (Ir.Invo_id.to_int invo)
             (ctx_str (Solver.ctx_value solver cctx))
             (Ir.Meth_id.to_int meth)
             (ctx_str (Solver.ctx_value solver eectx)))
          !cg);
  let reach = ref S.empty in
  Solver.iter_reachable solver (fun meth ctx ->
      reach :=
        S.add
          (Printf.sprintf "%d|%s" (Ir.Meth_id.to_int meth)
             (ctx_str (Solver.ctx_value solver ctx)))
          !reach);
  let throws = ref S.empty in
  Solver.iter_throw_points_to solver (fun meth ctx hobjs ->
      let ctx = ctx_str (Solver.ctx_value solver ctx) in
      Intset.iter
        (fun hobj ->
          let heap = Solver.hobj_heap solver hobj in
          let hctx =
            ctx_str (Solver.hctx_value solver (Solver.hobj_hctx solver hobj))
          in
          throws :=
            S.add
              (Printf.sprintf "%d|%s|%d|%s" (Ir.Meth_id.to_int meth) ctx
                 (Ir.Heap_id.to_int heap) hctx)
              !throws)
        hobjs);
  (!vpt, !cg, !reach, !throws)

let ref_facts r =
  let vpt =
    Pta_refimpl.Refimpl.fold_var_points_to r
      (fun var ctx heap hctx acc ->
        S.add
          (Printf.sprintf "%d|%s|%d|%s" (Ir.Var_id.to_int var) (ctx_str ctx)
             (Ir.Heap_id.to_int heap) (ctx_str hctx))
          acc)
      S.empty
  in
  let cg =
    Pta_refimpl.Refimpl.fold_call_edges r
      (fun invo cctx meth eectx acc ->
        S.add
          (Printf.sprintf "%d|%s|%d|%s" (Ir.Invo_id.to_int invo) (ctx_str cctx)
             (Ir.Meth_id.to_int meth) (ctx_str eectx))
          acc)
      S.empty
  in
  let reach =
    Pta_refimpl.Refimpl.fold_reachable r
      (fun meth ctx acc ->
        S.add (Printf.sprintf "%d|%s" (Ir.Meth_id.to_int meth) (ctx_str ctx)) acc)
      S.empty
  in
  let throws =
    Pta_refimpl.Refimpl.fold_throw_points_to r
      (fun meth ctx heap hctx acc ->
        S.add
          (Printf.sprintf "%d|%s|%d|%s" (Ir.Meth_id.to_int meth) (ctx_str ctx)
             (Ir.Heap_id.to_int heap) (ctx_str hctx))
          acc)
      S.empty
  in
  (vpt, cg, reach, throws)

(* Checker verdicts must agree across engines too.  Witness [w_detail]
   (provenance chains) is deliberately excluded: it is a solver-only
   enrichment. *)
let diag_key (d : Pta_checkers.Diagnostic.t) =
  let span_str = function
    | None -> "-"
    | Some sp -> Format.asprintf "%a" Pta_ir.Srcloc.pp_span sp
  in
  Printf.sprintf "%s|%s|%s|%s|%s" d.code
    (Pta_checkers.Diagnostic.severity_to_string d.severity)
    (span_str d.span) d.message
    (String.concat ";"
       (List.map
          (fun (w : Pta_checkers.Diagnostic.witness) ->
            w.w_message ^ "@" ^ span_str w.w_span)
          d.witnesses))

let diff_msg label a b =
  let missing = S.diff b a and extra = S.diff a b in
  Printf.sprintf "%s: solver-only=[%s] ref-only=[%s]" label
    (String.concat "; " (List.filteri (fun i _ -> i < 5) (S.elements extra)))
    (String.concat "; " (List.filteri (fun i _ -> i < 5) (S.elements missing)))

let check_program ~name src strategies =
  let program = Pta_frontend.Frontend.program_of_string ~file:name src in
  List.iter
    (fun strat_name ->
      let strategy = Helpers.resolve strat_name program in
      let solver = Solver.solve program strategy in
      let reference = Pta_refimpl.Refimpl.run program strategy in
      let s_vpt, s_cg, s_reach, s_throws = solver_facts solver in
      let r_vpt, r_cg, r_reach, r_throws = ref_facts reference in
      let ok_label what = Printf.sprintf "%s/%s %s" name strat_name what in
      Alcotest.(check bool)
        (diff_msg (ok_label "vpt") s_vpt r_vpt)
        true (S.equal s_vpt r_vpt);
      Alcotest.(check bool)
        (diff_msg (ok_label "cg") s_cg r_cg)
        true (S.equal s_cg r_cg);
      Alcotest.(check bool)
        (diff_msg (ok_label "reach") s_reach r_reach)
        true (S.equal s_reach r_reach);
      Alcotest.(check bool)
        (diff_msg (ok_label "throws") s_throws r_throws)
        true (S.equal s_throws r_throws);
      let s_diags =
        List.map diag_key
          (Pta_checkers.Checkers.run (Pta_checkers.Results.of_solver solver))
      in
      let r_diags =
        List.map diag_key
          (Pta_checkers.Checkers.run
             (Pta_checkers.Results.of_refimpl program reference))
      in
      Alcotest.(check (list string)) (ok_label "checker diagnostics") s_diags
        r_diags)
    strategies

let all_strategies = Pta_context.Strategies.names @ Helpers.extra_terms

let program_inheritance =
  {|
  class Animal {
    field young;
    method mate(other) { this.young = new Animal; return this.young; }
    method partner(other) { return other; }
  }
  class Dog extends Animal {
    method mate(other) { this.young = new Dog; return this.young; }
  }
  class Cat extends Animal {}
  class Main {
    static method main() {
      var d = new Dog;
      var c = new Cat;
      var y1 = d.mate(c);
      var y2 = c.mate(d);
      var p = d.partner(c);
      var casted = (Dog) y1;
    }
  }
  |}

let program_containers =
  {|
  class Item {}
  class Pair { field left; field rightp; }
  class BoxV { field contentv;
    method fill(x) { this.contentv = x; return this; }
    method take() { return this.contentv; }
  }
  class Main {
    static method main() {
      var b1 = new BoxV;
      var b2 = new BoxV;
      var i = new Item;
      var p = new Pair;
      b1.fill(i);
      b2.fill(p);
      var out1 = b1.take();
      var out2 = b2.take();
      p.left = i;
      var l = p.left;
      while (*) { p.rightp = l; l = p.rightp; }
    }
  }
  |}

let program_statics =
  {|
  class A {}
  class B {}
  class Util {
    static method id(x) { return x; }
    static method twice(x) { var y = Util::id(x); return Util::id(y); }
    static method pick(a, b) { if (*) { return a; } return b; }
  }
  class Main {
    static method main() {
      var a = new A;
      var b = new B;
      var ra = Util::twice(a);
      var rb = Util::twice(b);
      var m = Util::pick(a, b);
      var ca = (A) ra;
    }
  }
  |}

let program_recursion =
  {|
  class Node {
    field nxt;
    method grow(n) {
      var fresh = new Node;
      fresh.nxt = this;
      if (*) { return fresh.grow(n); }
      return fresh;
    }
  }
  class Main {
    static method main() {
      var root = new Node;
      var deep = root.grow(root);
      var step = deep.nxt;
    }
  }
  |}

let program_static_fields =
  {|
  class Config {
    static field current;
    static method set(c) { Config::current = c; return c; }
    static method get() { return Config::current; }
  }
  class Prod {} class Dev {}
  class Main {
    static method main() {
      Config::set(new Prod);
      if (*) { Config::current = new Dev; }
      var active = Config::get();
      var direct = Config::current;
      var asProd = (Prod) active;
    }
  }
  |}

let program_exceptions =
  {|
  class Err {}
  class IoErr extends Err {}
  class ParseErr extends Err { field cause; }
  class Reader {
    method read(x) {
      if (*) { throw new IoErr; }
      if (*) {
        var pe = new ParseErr;
        pe.cause = x;
        throw pe;
      }
      return x;
    }
  }
  class Main {
    static method risky(r, x) {
      var out = r.read(x);
      return out;
    }
    static method main() {
      var r = new Reader;
      var payload = new Err;
      try {
        var ok = Main::risky(r, payload);
        try {
          var again = r.read(ok);
        } catch (ParseErr inner) {
          var c = inner.cause;
        }
      } catch (IoErr io) {
        var i = io;
      } catch (Err any) {
        var a = any;
      }
      var survivor = new Reader;
    }
  }
  |}

(* ------------------------------------------------------------------ *)
(* Legacy fact-identity: the hand-written closure definitions that the
   strategy algebra replaced, kept verbatim (modulo the [callee]
   parameter and [shortcut] field the interface has since grown).  Every
   preset the registry now compiles from an algebra term must produce
   exactly the same facts as its original closure — this is the
   refactoring's no-behavior-change guarantee. *)
(* ------------------------------------------------------------------ *)

module Legacy = struct
  let make ~name ~initial_ctx ~record ~merge ~merge_static =
    {
      Pta_context.Strategy.name;
      description = name;
      initial_ctx;
      record;
      merge;
      merge_static;
      shortcut = None;
    }

  let empty : Ctx.value = [||]
  let star1 : Ctx.value = [| Ctx.Star |]
  let star2 : Ctx.value = [| Ctx.Star; Ctx.Star |]
  let star3 : Ctx.value = [| Ctx.Star; Ctx.Star; Ctx.Star |]

  let ca program heap =
    Ctx.Type (Pta_context.Strategies.class_of_alloc program heap)

  let insens _program =
    make ~name:"insens" ~initial_ctx:empty
      ~record:(fun ~heap:_ ~ctx:_ -> empty)
      ~merge:(fun ~heap:_ ~hctx:_ ~invo:_ ~callee:_ ~ctx:_ -> empty)
      ~merge_static:(fun ~invo:_ ~callee:_ ~ctx:_ -> empty)

  let call1 _program =
    make ~name:"1call" ~initial_ctx:star1
      ~record:(fun ~heap:_ ~ctx:_ -> empty)
      ~merge:(fun ~heap:_ ~hctx:_ ~invo ~callee:_ ~ctx:_ -> [| Ctx.Invo invo |])
      ~merge_static:(fun ~invo ~callee:_ ~ctx:_ -> [| Ctx.Invo invo |])

  let call1_heap _program =
    make ~name:"1call+H" ~initial_ctx:star1
      ~record:(fun ~heap:_ ~ctx -> ctx)
      ~merge:(fun ~heap:_ ~hctx:_ ~invo ~callee:_ ~ctx:_ -> [| Ctx.Invo invo |])
      ~merge_static:(fun ~invo ~callee:_ ~ctx:_ -> [| Ctx.Invo invo |])

  let call2_heap _program =
    make ~name:"2call+H" ~initial_ctx:star2
      ~record:(fun ~heap:_ ~ctx -> [| Ctx.first ctx |])
      ~merge:(fun ~heap:_ ~hctx:_ ~invo ~callee:_ ~ctx ->
        [| Ctx.Invo invo; Ctx.first ctx |])
      ~merge_static:(fun ~invo ~callee:_ ~ctx ->
        [| Ctx.Invo invo; Ctx.first ctx |])

  let obj1 _program =
    make ~name:"1obj" ~initial_ctx:star1
      ~record:(fun ~heap:_ ~ctx:_ -> empty)
      ~merge:(fun ~heap ~hctx:_ ~invo:_ ~callee:_ ~ctx:_ -> [| Ctx.Heap heap |])
      ~merge_static:(fun ~invo:_ ~callee:_ ~ctx -> ctx)

  let obj1_heap _program =
    make ~name:"1obj+H" ~initial_ctx:star1
      ~record:(fun ~heap:_ ~ctx -> [| Ctx.first ctx |])
      ~merge:(fun ~heap ~hctx:_ ~invo:_ ~callee:_ ~ctx:_ -> [| Ctx.Heap heap |])
      ~merge_static:(fun ~invo:_ ~callee:_ ~ctx -> ctx)

  let obj2_heap _program =
    make ~name:"2obj+H" ~initial_ctx:star2
      ~record:(fun ~heap:_ ~ctx -> [| Ctx.first ctx |])
      ~merge:(fun ~heap ~hctx ~invo:_ ~callee:_ ~ctx:_ ->
        [| Ctx.Heap heap; Ctx.first hctx |])
      ~merge_static:(fun ~invo:_ ~callee:_ ~ctx -> ctx)

  let type2_heap program =
    make ~name:"2type+H" ~initial_ctx:star2
      ~record:(fun ~heap:_ ~ctx -> [| Ctx.first ctx |])
      ~merge:(fun ~heap ~hctx ~invo:_ ~callee:_ ~ctx:_ ->
        [| ca program heap; Ctx.first hctx |])
      ~merge_static:(fun ~invo:_ ~callee:_ ~ctx -> ctx)

  let uniform_obj1 _program =
    make ~name:"U-1obj" ~initial_ctx:star2
      ~record:(fun ~heap:_ ~ctx:_ -> empty)
      ~merge:(fun ~heap ~hctx:_ ~invo ~callee:_ ~ctx:_ ->
        [| Ctx.Heap heap; Ctx.Invo invo |])
      ~merge_static:(fun ~invo ~callee:_ ~ctx ->
        [| Ctx.first ctx; Ctx.Invo invo |])

  let uniform_obj2_heap _program =
    make ~name:"U-2obj+H" ~initial_ctx:star3
      ~record:(fun ~heap:_ ~ctx -> [| Ctx.first ctx |])
      ~merge:(fun ~heap ~hctx ~invo ~callee:_ ~ctx:_ ->
        [| Ctx.Heap heap; Ctx.first hctx; Ctx.Invo invo |])
      ~merge_static:(fun ~invo ~callee:_ ~ctx ->
        [| Ctx.first ctx; Ctx.second ctx; Ctx.Invo invo |])

  let uniform_type2_heap program =
    make ~name:"U-2type+H" ~initial_ctx:star3
      ~record:(fun ~heap:_ ~ctx -> [| Ctx.first ctx |])
      ~merge:(fun ~heap ~hctx ~invo ~callee:_ ~ctx:_ ->
        [| ca program heap; Ctx.first hctx; Ctx.Invo invo |])
      ~merge_static:(fun ~invo ~callee:_ ~ctx ->
        [| Ctx.first ctx; Ctx.second ctx; Ctx.Invo invo |])

  let selective_a_obj1 _program =
    make ~name:"SA-1obj" ~initial_ctx:star1
      ~record:(fun ~heap:_ ~ctx:_ -> empty)
      ~merge:(fun ~heap ~hctx:_ ~invo:_ ~callee:_ ~ctx:_ -> [| Ctx.Heap heap |])
      ~merge_static:(fun ~invo ~callee:_ ~ctx:_ -> [| Ctx.Invo invo |])

  let selective_b_obj1 _program =
    make ~name:"SB-1obj" ~initial_ctx:star2
      ~record:(fun ~heap:_ ~ctx:_ -> empty)
      ~merge:(fun ~heap ~hctx:_ ~invo:_ ~callee:_ ~ctx:_ ->
        [| Ctx.Heap heap; Ctx.Star |])
      ~merge_static:(fun ~invo ~callee:_ ~ctx ->
        [| Ctx.first ctx; Ctx.Invo invo |])

  let selective_obj2_heap _program =
    make ~name:"S-2obj+H" ~initial_ctx:star3
      ~record:(fun ~heap:_ ~ctx -> [| Ctx.first ctx |])
      ~merge:(fun ~heap ~hctx ~invo:_ ~callee:_ ~ctx:_ ->
        [| Ctx.Heap heap; Ctx.first hctx; Ctx.Star |])
      ~merge_static:(fun ~invo ~callee:_ ~ctx ->
        [| Ctx.first ctx; Ctx.Invo invo; Ctx.second ctx |])

  let selective_type2_heap program =
    make ~name:"S-2type+H" ~initial_ctx:star3
      ~record:(fun ~heap:_ ~ctx -> [| Ctx.first ctx |])
      ~merge:(fun ~heap ~hctx ~invo:_ ~callee:_ ~ctx:_ ->
        [| ca program heap; Ctx.first hctx; Ctx.Star |])
      ~merge_static:(fun ~invo ~callee:_ ~ctx ->
        [| Ctx.first ctx; Ctx.Invo invo; Ctx.second ctx |])

  let obj3_heap2 _program =
    make ~name:"3obj+2H" ~initial_ctx:star3
      ~record:(fun ~heap:_ ~ctx -> [| Ctx.first ctx; Ctx.second ctx |])
      ~merge:(fun ~heap ~hctx ~invo:_ ~callee:_ ~ctx:_ ->
        [| Ctx.Heap heap; Ctx.first hctx; Ctx.second hctx |])
      ~merge_static:(fun ~invo:_ ~callee:_ ~ctx -> ctx)

  let ablation_invo_heap _program =
    make ~name:"X-2obj+IH" ~initial_ctx:star3
      ~record:(fun ~heap:_ ~ctx -> [| Ctx.third ctx |])
      ~merge:(fun ~heap ~hctx ~invo ~callee:_ ~ctx:_ ->
        [| Ctx.Heap heap; Ctx.first hctx; Ctx.Invo invo |])
      ~merge_static:(fun ~invo ~callee:_ ~ctx ->
        [| Ctx.first ctx; Ctx.second ctx; Ctx.Invo invo |])

  let ablation_inverted _program =
    make ~name:"X-2obj+Hrev" ~initial_ctx:star2
      ~record:(fun ~heap:_ ~ctx -> [| Ctx.first ctx |])
      ~merge:(fun ~heap ~hctx ~invo:_ ~callee:_ ~ctx:_ ->
        [| Ctx.first hctx; Ctx.Heap heap |])
      ~merge_static:(fun ~invo:_ ~callee:_ ~ctx -> ctx)

  let ablation_freemix _program =
    make ~name:"X-freemix" ~initial_ctx:star2
      ~record:(fun ~heap:_ ~ctx -> [| Ctx.first ctx |])
      ~merge:(fun ~heap ~hctx:_ ~invo ~callee:_ ~ctx:_ ->
        [| Ctx.Invo invo; Ctx.Heap heap |])
      ~merge_static:(fun ~invo ~callee:_ ~ctx ->
        [| Ctx.Invo invo; Ctx.first ctx |])

  let all =
    [
      insens; call1; call1_heap; call2_heap; obj1; obj1_heap; obj2_heap;
      type2_heap; uniform_obj1; uniform_obj2_heap; uniform_type2_heap;
      selective_a_obj1; selective_b_obj1; selective_obj2_heap;
      selective_type2_heap; obj3_heap2; ablation_invo_heap; ablation_inverted;
      ablation_freemix;
    ]
end

let check_legacy_identity ~name src =
  let program = Pta_frontend.Frontend.program_of_string ~file:name src in
  List.iter
    (fun legacy_factory ->
      let legacy = legacy_factory program in
      let strat_name = legacy.Pta_context.Strategy.name in
      let preset =
        match Pta_context.Strategies.by_name strat_name with
        | Some f -> f program
        | None -> Alcotest.failf "preset %s vanished from the registry" strat_name
      in
      let n_vpt, n_cg, n_reach, n_throws =
        solver_facts (Solver.solve program preset)
      in
      let l_vpt, l_cg, l_reach, l_throws =
        solver_facts (Solver.solve program legacy)
      in
      let label what = Printf.sprintf "%s/%s algebra=legacy %s" name strat_name what in
      Alcotest.(check bool)
        (diff_msg (label "vpt") n_vpt l_vpt)
        true (S.equal n_vpt l_vpt);
      Alcotest.(check bool)
        (diff_msg (label "cg") n_cg l_cg)
        true (S.equal n_cg l_cg);
      Alcotest.(check bool)
        (diff_msg (label "reach") n_reach l_reach)
        true (S.equal n_reach l_reach);
      Alcotest.(check bool)
        (diff_msg (label "throws") n_throws l_throws)
        true (S.equal n_throws l_throws))
    Legacy.all

let program_workload () =
  let profile = Option.get (Pta_workloads.Profile.by_name "tiny") in
  Pta_workloads.Workloads.source profile

(* A shrunken [cyclic] profile: small enough for the Datalog reference,
   but keeping the copy chains, local copy cycles and static
   mutual-recursion rings that exercise the solver's online cycle
   elimination — the path differential testing most needs to cover. *)
let program_cyclic () =
  let profile =
    Pta_workloads.Profile.scale 0.2
      (Option.get (Pta_workloads.Profile.by_name "cyclic"))
  in
  Pta_workloads.Workloads.source profile

let tests =
  [
    Alcotest.test_case "inheritance program, all strategies" `Quick (fun () ->
        check_program ~name:"inheritance" program_inheritance all_strategies);
    Alcotest.test_case "containers program, all strategies" `Quick (fun () ->
        check_program ~name:"containers" program_containers all_strategies);
    Alcotest.test_case "statics program, all strategies" `Quick (fun () ->
        check_program ~name:"statics" program_statics all_strategies);
    Alcotest.test_case "recursion program, all strategies" `Quick (fun () ->
        check_program ~name:"recursion" program_recursion all_strategies);
    Alcotest.test_case "static fields program, all strategies" `Quick (fun () ->
        check_program ~name:"static-fields" program_static_fields all_strategies);
    Alcotest.test_case "exceptions program, all strategies" `Quick (fun () ->
        check_program ~name:"exceptions" program_exceptions all_strategies);
    (* The recursion program has a single callee, so it cannot split. *)
    Alcotest.test_case "mixed-depth term splits the programs" `Quick (fun () ->
        List.iter
          (fun (name, src) ->
            let program = Pta_frontend.Frontend.program_of_string ~file:name src in
            let solver =
              Solver.solve program (Helpers.resolve Helpers.mixed_depth program)
            in
            Alcotest.(check (list int))
              (name ^ ": callee context depths") [ 1; 2 ]
              (Helpers.callee_depths solver))
          [
            ("inheritance", program_inheritance);
            ("containers", program_containers);
            ("statics", program_statics);
            ("static-fields", program_static_fields);
            ("exceptions", program_exceptions);
            ("cyclic-workload", program_cyclic ());
          ]);
    Alcotest.test_case "algebra presets = legacy closures (battery)" `Quick
      (fun () ->
        check_legacy_identity ~name:"inheritance" program_inheritance;
        check_legacy_identity ~name:"containers" program_containers;
        check_legacy_identity ~name:"statics" program_statics;
        check_legacy_identity ~name:"recursion" program_recursion;
        check_legacy_identity ~name:"static-fields" program_static_fields;
        check_legacy_identity ~name:"exceptions" program_exceptions);
    Alcotest.test_case "algebra presets = legacy closures (tiny workload)" `Slow
      (fun () -> check_legacy_identity ~name:"tiny-workload" (program_workload ()));
    Alcotest.test_case "tiny workload, key strategies" `Slow (fun () ->
        check_program ~name:"tiny-workload" (program_workload ())
          [ "insens"; "1call"; "1obj"; "SB-1obj"; "2obj+H"; "S-2obj+H"; "2type+H" ]);
    Alcotest.test_case "cyclic workload, all strategies" `Slow (fun () ->
        check_program ~name:"cyclic-workload" (program_cyclic ()) all_strategies);
  ]
