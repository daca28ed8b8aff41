(** Taint pass tests: spec language, native-vs-Datalog differential on
    every strategy preset, precision ordering (hybrids beat their
    unhybrid counterparts on spurious flows), sanitizer cutting and
    provenance chains. *)

module Ir = Pta_ir.Ir
module Ctx = Pta_context.Ctx
module Strategies = Pta_context.Strategies
module Solver = Pta_solver.Solver
module Intset = Pta_solver.Intset
module Spec = Pta_taint.Spec
module Taint = Pta_taint.Taint
module Taint_ref = Pta_taint.Taint_ref

let elem_str = function
  | Ctx.Star -> "*"
  | Ctx.Heap h -> "H" ^ string_of_int (Ir.Heap_id.to_int h)
  | Ctx.Invo i -> "I" ^ string_of_int (Ir.Invo_id.to_int i)
  | Ctx.Type t -> "T" ^ string_of_int (Ir.Type_id.to_int t)

let ctx_str v = String.concat "," (List.map elem_str (Array.to_list v))

module S = Set.Make (String)

let native_facts taint =
  let tainted = ref S.empty in
  Taint.iter_tainted taint (fun var ctx labels ->
      let ctx = ctx_str (Taint.ctx_value taint ctx) in
      Intset.iter
        (fun l ->
          tainted :=
            S.add (Printf.sprintf "%d|%s|%d" (Ir.Var_id.to_int var) ctx l) !tainted)
        labels);
  let hits = ref S.empty in
  List.iter
    (fun (h : Taint.hit) ->
      let ctx = ctx_str (Taint.ctx_value taint h.h_ctx) in
      Intset.iter
        (fun l ->
          hits :=
            S.add
              (Printf.sprintf "%d|%d|%s|%d"
                 (Ir.Invo_id.to_int h.h_invo)
                 h.h_pos ctx l)
              !hits)
        h.h_labels)
    (Taint.sink_hits taint);
  (!tainted, !hits)

let ref_facts tref =
  let tainted =
    Taint_ref.fold_tainted tref
      (fun var ctx l acc ->
        S.add
          (Printf.sprintf "%d|%s|%d" (Ir.Var_id.to_int var) (ctx_str ctx) l)
          acc)
      S.empty
  in
  let hits =
    Taint_ref.fold_sink_hits tref
      (fun invo pos ctx l acc ->
        S.add
          (Printf.sprintf "%d|%d|%s|%d" (Ir.Invo_id.to_int invo) pos
             (ctx_str ctx) l)
          acc)
      S.empty
  in
  (tainted, hits)

let diff_msg label a b =
  let missing = S.diff b a and extra = S.diff a b in
  Printf.sprintf "%s: native-only=[%s] ref-only=[%s]" label
    (String.concat "; " (List.filteri (fun i _ -> i < 5) (S.elements extra)))
    (String.concat "; " (List.filteri (fun i _ -> i < 5) (S.elements missing)))

let flow_str (f : Taint.flow) =
  Printf.sprintf "%d|%d|%d" f.f_label (Ir.Invo_id.to_int f.f_invo) f.f_pos

let compile_spec program spec_text =
  match Spec.parse spec_text with
  | Error msg -> Alcotest.failf "spec parse error: %s" msg
  | Ok entries -> Spec.compile program entries

let run_both program spec strat_name =
  let factory = Option.get (Strategies.by_name strat_name) in
  let strategy = factory program in
  let solver = Solver.solve program strategy in
  let taint = Taint.analyze solver spec in
  let reference = Pta_refimpl.Refimpl.run program strategy in
  let tref = Taint_ref.analyze program strategy reference spec in
  (taint, tref)

let check_program ~name src spec_text strategies =
  let program = Pta_frontend.Frontend.program_of_string ~file:name src in
  let spec = compile_spec program spec_text in
  List.iter
    (fun strat_name ->
      let taint, tref = run_both program spec strat_name in
      let n_tainted, n_hits = native_facts taint in
      let r_tainted, r_hits = ref_facts tref in
      let ok_label what = Printf.sprintf "%s/%s %s" name strat_name what in
      Alcotest.(check bool)
        (diff_msg (ok_label "tainted") n_tainted r_tainted)
        true (S.equal n_tainted r_tainted);
      Alcotest.(check bool)
        (diff_msg (ok_label "sink hits") n_hits r_hits)
        true (S.equal n_hits r_hits);
      Alcotest.(check (list string))
        (ok_label "flow verdicts")
        (List.map flow_str (Taint.flows taint))
        (List.map flow_str (Taint_ref.flows tref)))
    strategies

let all_strategies = List.map fst Strategies.all

(* ------------------------------------------------------------------ *)
(* Sample programs                                                     *)
(* ------------------------------------------------------------------ *)

(* The canonical conflation shape: one pass-through static method
   called with tainted and clean data from distinct call sites.
   Unhybrid object/type-sensitive analyses conflate the two static
   calls (MergeStatic keeps the caller context), taints [clean2] and
   report the spurious leak(b); hybrids and call-site analyses keep
   them apart. *)
let program_conflation =
  {|
  class Data {}
  class Kit {
    static method pass(x) { return x; }
  }
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
      var s = Sink::scrub(raw);
      Sink::leak(s);
    }
  }
  |}

(* Heap flow through a container, with both boxes allocated at the same
   site (factory): taint must travel store -> (heap, field) -> load. *)
let program_heap =
  {|
  class Box {
    field c;
    method put(x) { this.c = x; return this; }
    method get() { return this.c; }
  }
  class Factory {
    static method mk() { var nb = new Box; return nb; }
  }
  class Sink {
    static field cell;
    static method fetch() { var t = new Factory; return t; }
    static method leak(x) { Sink::cell = x; }
  }
  class Main {
    static method main() {
      var b1 = Factory::mk();
      var b2 = Factory::mk();
      var t = Sink::fetch();
      var u = new Factory;
      b1.put(t);
      b2.put(u);
      var o1 = b1.get();
      var o2 = b2.get();
      Sink::leak(o1);
      Sink::leak(o2);
    }
  }
  |}

(* Param sources, virtual dispatch, this-flow and a field round-trip
   inside the callee. *)
let program_virtual =
  {|
  class Handler {
    field store;
    method handle(req) { this.store = req; var r = this.store; return r; }
  }
  class Loud extends Handler {
    method handle(req) { return req; }
  }
  class App {
    static method process(h, req) { var out = h.handle(req); App::emit(out); }
    static method emit(x) { }
  }
  class Main {
    static method main() {
      var h = new Handler;
      if (*) { h = new Loud; }
      var req = new App;
      App::process(h, req);
    }
  }
  |}

(* Static fields as global cells plus exception control flow (taint
   does not follow throw/catch; both engines agree on that). *)
let program_static_and_throw =
  {|
  class Boom {}
  class Cfg {
    static field hold;
    static method stash(x) { Cfg::hold = x; }
    static method fetch() { var c = new Cfg; return c; }
    static method leak(x) { }
  }
  class Main {
    static method main() {
      var t = Cfg::fetch();
      Cfg::stash(t);
      var got = Cfg::hold;
      try { throw new Boom; } catch (Boom b) { Cfg::leak(got); }
      Cfg::leak(got);
    }
  }
  |}

let default_spec_text = Spec.to_string Spec.default

let spec_virtual =
  {|
  source App.process/2 param 1
  sink App.emit/1 arg 0
  |}

let spec_static =
  {|
  source *.fetch/0 ret
  sink Cfg.leak/1 arg *
  |}

(* ------------------------------------------------------------------ *)
(* Tests                                                               *)
(* ------------------------------------------------------------------ *)

let parse_tests =
  [
    Alcotest.test_case "spec parses and round-trips" `Quick (fun () ->
        let text =
          "# comment\n\
           source *.fetch/* ret\n\
           source App.process/2 param 1\n\
           \n\
           sink *.leak/* arg *\n\
           sink App.emit/1 arg 0   # trailing comment\n\
           sanitizer *.scrub/*\n"
        in
        match Spec.parse text with
        | Error e -> Alcotest.failf "parse failed: %s" e
        | Ok entries ->
          Alcotest.(check int) "five entries" 5 (List.length entries);
          (* Round-trip: to_string o parse is the identity on the
             canonical rendering. *)
          let canon = Spec.to_string entries in
          Alcotest.(check string) "round trip" canon
            (match Spec.parse canon with
            | Ok e -> Spec.to_string e
            | Error e -> Alcotest.failf "re-parse failed: %s" e));
    Alcotest.test_case "spec rejects malformed lines" `Quick (fun () ->
        let bad =
          [
            "source *.f/*";  (* missing position *)
            "source *.f/* param x";  (* non-numeric index *)
            "sink *.f/* arg";  (* missing index *)
            "sink *.f/* arg -1";  (* negative *)
            "sanitize *.f/*";  (* unknown directive *)
            "sanitizer";  (* missing glob *)
          ]
        in
        List.iter
          (fun line ->
            match Spec.parse ("# leading\n" ^ line) with
            | Ok _ -> Alcotest.failf "accepted %S" line
            | Error msg ->
              Alcotest.(check bool)
                (Printf.sprintf "error for %S names line 2 (%s)" line msg)
                true
                (String.length msg >= 7 && String.sub msg 0 7 = "line 2:"))
          bad);
    Alcotest.test_case "labels are dense and deterministic" `Quick (fun () ->
        let program =
          Pta_frontend.Frontend.program_of_string ~file:"conflation"
            program_conflation
        in
        let spec = compile_spec program default_spec_text in
        Alcotest.(check int) "one source" 1 (Spec.n_sources spec);
        let s = List.hd (Spec.sources spec) in
        Alcotest.(check int) "label 0" 0 s.Spec.src_label;
        Alcotest.(check string)
          "name" "Sink.fetch/0 ret"
          (Spec.label_name spec 0);
        (* leak/1 is a sink at position 0; scrub is a sanitizer. *)
        let leak = Option.get (Ir.Program.find_meth program "Sink" "leak" 1) in
        let scrub = Option.get (Ir.Program.find_meth program "Sink" "scrub" 1) in
        Alcotest.(check (list int)) "sink pos" [ 0 ] (Spec.sink_positions spec leak);
        Alcotest.(check bool) "sanitizer" true (Spec.is_sanitizer spec scrub));
  ]

let differential_tests =
  [
    Alcotest.test_case "conflation program, all strategies" `Quick (fun () ->
        check_program ~name:"conflation" program_conflation default_spec_text
          all_strategies);
    Alcotest.test_case "heap program, all strategies" `Quick (fun () ->
        check_program ~name:"heap" program_heap default_spec_text all_strategies);
    Alcotest.test_case "virtual program, all strategies" `Quick (fun () ->
        check_program ~name:"virtual" program_virtual spec_virtual all_strategies);
    Alcotest.test_case "statics and throw program, all strategies" `Quick
      (fun () ->
        check_program ~name:"static-throw" program_static_and_throw spec_static
          all_strategies);
  ]

let flows_of src spec_text strat_name =
  let program = Pta_frontend.Frontend.program_of_string ~file:"precision" src in
  let spec = compile_spec program spec_text in
  let solver = Solver.solve program (Helpers.resolve strat_name program) in
  Taint.n_flows (Taint.analyze solver spec)

let precision_tests =
  [
    Alcotest.test_case "hybrids beat unhybrids on spurious flows" `Quick
      (fun () ->
        (* True flows in program_conflation: exactly one (leak(a)).
           The unhybrid analyses conflate the two Kit::pass call sites
           and add the spurious leak(b); every hybrid of the same base
           stays precise.  The scrubbed leak(s) must never flow. *)
        let flows name = flows_of program_conflation default_spec_text name in
        List.iter
          (fun unhybrid -> Alcotest.(check int) unhybrid 2 (flows unhybrid))
          [ "insens"; "1obj"; "2obj+H"; "2type+H" ];
        List.iter
          (fun precise -> Alcotest.(check int) precise 1 (flows precise))
          [
            "1call"; "U-2obj+H"; "S-2obj+H"; "SA-1obj"; "SB-1obj"; "U-2type+H";
            "S-2type+H"; "CS"; "CS-2obj+H";
          ]);
    Alcotest.test_case "heap conflation separates under call-site heaps" `Quick
      (fun () ->
        (* Both boxes come from the same allocation site inside
           [Factory::mk].  A purely object-sensitive heap context cannot
           tell them apart (the paper's hybrids deliberately keep the
           heap context object-sensitive), but any heap context that
           records the [mk()] call site can. *)
        let flows name = flows_of program_heap default_spec_text name in
        Alcotest.(check int) "insens conflates the boxes" 2 (flows "insens");
        Alcotest.(check int) "2obj+H conflates (obj-sens heap ctx)" 2
          (flows "2obj+H");
        Alcotest.(check int) "1call+H separates" 1 (flows "1call+H");
        Alcotest.(check int) "2call+H separates" 1 (flows "2call+H");
        Alcotest.(check int) "if_site heap context separates" 1
          (flows Helpers.if_site_table));
  ]

let misc_tests =
  [
    Alcotest.test_case "sanitizer cut stops the flow" `Quick (fun () ->
        (* Remove the sanitizer directive: the scrub pass-through now
           leaks, adding one flow per strategy. *)
        let with_sanitizer = flows_of program_conflation default_spec_text in
        let no_sanitizer =
          flows_of program_conflation
            "source *.fetch/* ret\nsink *.leak/* arg *\n"
        in
        Alcotest.(check int) "S-2obj+H with" 1 (with_sanitizer "S-2obj+H");
        Alcotest.(check int) "S-2obj+H without" 2 (no_sanitizer "S-2obj+H");
        Alcotest.(check int) "insens with" 2 (with_sanitizer "insens");
        Alcotest.(check int) "insens without" 3 (no_sanitizer "insens"));
    Alcotest.test_case "provenance chain walks back to the source" `Quick
      (fun () ->
        let program =
          Pta_frontend.Frontend.program_of_string ~file:"heap" program_heap
        in
        let spec = compile_spec program default_spec_text in
        let factory = Option.get (Strategies.by_name "2call+H") in
        let solver = Solver.solve program (factory program) in
        let taint = Taint.analyze solver spec in
        match Taint.flows taint with
        | [ flow ] ->
          let chain = Taint.explain_flow taint flow in
          Alcotest.(check bool) "nonempty" true (List.length chain >= 3);
          let first = List.hd chain in
          Alcotest.(check bool)
            (Printf.sprintf "starts at the source (%s)" first)
            true
            (String.length first >= 6 && String.sub first 0 6 = "source");
          let last = List.nth chain (List.length chain - 1) in
          Alcotest.(check bool)
            (Printf.sprintf "ends at the sink (%s)" last)
            true
            (String.length last >= 7 && String.sub last 0 7 = "reaches")
        | fs -> Alcotest.failf "expected one flow, got %d" (List.length fs));
    Alcotest.test_case "aborted solver state is refused" `Quick (fun () ->
        let module Budget = Pta_obs.Budget in
        let program =
          Pta_frontend.Frontend.program_of_string ~file:"heap" program_heap
        in
        let spec = compile_spec program default_spec_text in
        let factory = Option.get (Strategies.by_name "insens") in
        let budget = Budget.unlimited () in
        Budget.on_tick budget (fun n -> if n = 2 then Budget.cancel budget);
        let config = { Solver.Config.default with budget } in
        match Solver.solve_outcome ~config program (factory program) with
        | Solver.Complete _ -> Alcotest.fail "expected an aborted solve"
        | Solver.Aborted (partial, _abort) -> (
          match Taint.analyze partial spec with
          | _ -> Alcotest.fail "expected Invalid_argument"
          | exception Invalid_argument _ -> ()));
    Alcotest.test_case "a cancelled budget stops the taint pass" `Quick
      (fun () ->
        let module Budget = Pta_obs.Budget in
        let program =
          Pta_frontend.Frontend.program_of_string ~file:"heap" program_heap
        in
        let spec = compile_spec program default_spec_text in
        let factory = Option.get (Strategies.by_name "insens") in
        let config = Solver.Config.make () in
        let solver = Solver.solve ~config program (factory program) in
        let budget = config.Solver.Config.budget in
        Budget.cancel budget;
        match Taint.analyze ~budget solver spec with
        | _ -> Alcotest.fail "expected Budget.Exhausted"
        | exception Budget.Exhausted _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Dynamic-vs-static soundness: every source->sink flow the concrete   *)
(* interpreter observes must be in the static flow set.                *)
(* ------------------------------------------------------------------ *)

let check_taint_soundness ~name src spec_text strategies =
  let program = Pta_frontend.Frontend.program_of_string ~file:name src in
  let spec = compile_spec program spec_text in
  let observed =
    List.concat_map
      (fun seed ->
        Pta_interp.Interp.observed_taint_hits
          (Pta_interp.Interp.run ~taint:spec ~seed program))
      [ 1L; 7L; 42L; 1234L ]
  in
  let observed = List.sort_uniq compare observed in
  List.iter
    (fun strat_name ->
      let factory = Option.get (Strategies.by_name strat_name) in
      let solver = Solver.solve program (factory program) in
      let static =
        List.map
          (fun (f : Taint.flow) -> (f.f_label, f.f_invo, f.f_pos))
          (Taint.flows (Taint.analyze solver spec))
      in
      List.iter
        (fun ((label, invo, pos) as hit) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s observed flow %d@%d.%d is derived" name
               strat_name label (Ir.Invo_id.to_int invo) pos)
            true
            (List.mem hit static))
        observed)
    strategies

let soundness_tests =
  [
    Alcotest.test_case "dynamic hits within static flows, all programs" `Quick
      (fun () ->
        let strategies = [ "insens"; "1call"; "2obj+H"; "S-2obj+H"; "CS" ] in
        check_taint_soundness ~name:"conflation" program_conflation
          default_spec_text strategies;
        check_taint_soundness ~name:"heap" program_heap default_spec_text
          strategies;
        check_taint_soundness ~name:"virtual" program_virtual spec_virtual
          strategies;
        check_taint_soundness ~name:"static-throw" program_static_and_throw
          spec_static strategies);
    Alcotest.test_case "interpreter actually observes the true flow" `Quick
      (fun () ->
        let program =
          Pta_frontend.Frontend.program_of_string ~file:"conflation"
            program_conflation
        in
        let spec = compile_spec program default_spec_text in
        let hits =
          Pta_interp.Interp.observed_taint_hits
            (Pta_interp.Interp.run ~taint:spec ~seed:1L program)
        in
        (* Straight-line main: exactly the leak(a) hit — the clean and
           sanitized calls never fire dynamically either. *)
        Alcotest.(check int) "one dynamic hit" 1 (List.length hits);
        let label, _invo, pos = List.hd hits in
        Alcotest.(check int) "label 0" 0 label;
        Alcotest.(check int) "arg 0" 0 pos);
    Alcotest.test_case "workload taint units match ground truth" `Quick
      (fun () ->
        let profile = Option.get (Pta_workloads.Profile.by_name "luindex") in
        let truth = Pta_workloads.Gen.taint_ground_truth profile in
        Alcotest.(check int) "luindex has taint units" 3 truth;
        let program = Pta_workloads.Workloads.program profile in
        let spec = Spec.compile program Spec.default in
        let flows strat =
          let factory = Option.get (Strategies.by_name strat) in
          Taint.n_flows (Taint.analyze (Solver.solve program (factory program)) spec)
        in
        (* Hybrids hit the ground truth; their unhybrid counterpart
           reports one spurious flow per unit — the Table-1 gap. *)
        Alcotest.(check int) "S-2obj+H exact" truth (flows "S-2obj+H");
        Alcotest.(check int) "2obj+H spurious" (2 * truth) (flows "2obj+H");
        (* tiny keeps the knob off: its pinned metrics cannot shift. *)
        let tiny = Option.get (Pta_workloads.Profile.by_name "tiny") in
        Alcotest.(check int) "tiny has no taint units" 0
          (Pta_workloads.Gen.taint_ground_truth tiny));
  ]

(* ------------------------------------------------------------------ *)
(* Pinned output: the pass's full observable result, digested per      *)
(* (program, strategy) and compared with digests recorded before the   *)
(* solved-state lookups were rebuilt, so node ids, first-arrival       *)
(* origins and chain wording cannot drift.                             *)
(* ------------------------------------------------------------------ *)

let labels_str labels =
  String.concat "," (List.map string_of_int (Intset.elements labels))

(* Flows, the chain of each flow, sink hits, then tainted var nodes in
   node-id order. *)
let serialise taint =
  let b = Buffer.create 4096 in
  let flows = Taint.flows taint in
  List.iter (fun f -> Printf.bprintf b "flow %s\n" (flow_str f)) flows;
  List.iter
    (fun f ->
      Printf.bprintf b "explain %s\n" (flow_str f);
      List.iter (Printf.bprintf b "  %s\n") (Taint.explain_flow taint f))
    flows;
  List.iter
    (fun (h : Taint.hit) ->
      Printf.bprintf b "hit %d|%d|%s|%s\n"
        (Ir.Invo_id.to_int h.h_invo)
        h.h_pos
        (ctx_str (Taint.ctx_value taint h.h_ctx))
        (labels_str h.h_labels))
    (Taint.sink_hits taint);
  Taint.iter_tainted taint (fun v c labels ->
      Printf.bprintf b "tainted %d|%s|%s\n" (Ir.Var_id.to_int v)
        (ctx_str (Taint.ctx_value taint c))
        (labels_str labels));
  Buffer.contents b

let pinned_case program spec strat_name =
  let factory = Option.get (Strategies.by_name strat_name) in
  serialise (Taint.analyze (Solver.solve program (factory program)) spec)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let pinned_programs =
  [
    ("conflation", program_conflation, default_spec_text);
    ("heap", program_heap, default_spec_text);
    ("virtual", program_virtual, spec_virtual);
    ("static-throw", program_static_and_throw, spec_static);
  ]

let pinned_small =
  [
    ("conflation/insens", "0cea71d8817702b85df4ddc5172728e2");
    ("conflation/1call", "fcf4845b7db392dad91baa3ac9c721de");
    ("conflation/1call+H", "fcf4845b7db392dad91baa3ac9c721de");
    ("conflation/1obj", "b720218d0a9563c9d389efdad2ed19a4");
    ("conflation/2obj+H", "5fb4141236404ba97c6958d5793af753");
    ("conflation/2type+H", "5fb4141236404ba97c6958d5793af753");
    ("conflation/U-1obj", "f40c245450ce9b13d9a03762c8185dfc");
    ("conflation/U-2obj+H", "7391956321eb4d408c20c7629aef93f7");
    ("conflation/U-2type+H", "7391956321eb4d408c20c7629aef93f7");
    ("conflation/SA-1obj", "fcf4845b7db392dad91baa3ac9c721de");
    ("conflation/SB-1obj", "f40c245450ce9b13d9a03762c8185dfc");
    ("conflation/S-2obj+H", "ce1c4959d72f6ca655724ed6c16fbb38");
    ("conflation/S-2type+H", "ce1c4959d72f6ca655724ed6c16fbb38");
    ("conflation/2call+H", "327444ba283a91499e48a0f5448ec3ae");
    ("conflation/1obj+H", "b720218d0a9563c9d389efdad2ed19a4");
    ("conflation/3obj+2H", "2d237be2d5d6fbb1428d1d7e4a2745c2");
    ("conflation/CS", "7bc87825ca13828c8f5b4578d1e250d1");
    ("conflation/CS-2obj+H", "4098bc9dbadac41a140036d7c281b1a8");
    ("conflation/X-2obj+IH", "7391956321eb4d408c20c7629aef93f7");
    ("conflation/X-2obj+Hrev", "5fb4141236404ba97c6958d5793af753");
    ("conflation/X-freemix", "327444ba283a91499e48a0f5448ec3ae");
    ("heap/insens", "eedd4fed69a186d29a592032de264e68");
    ("heap/1call", "ce7bc3c9e132e4beb9759b7df396e03a");
    ("heap/1call+H", "c612e5286653cd36c95d8c313e51fa71");
    ("heap/1obj", "ae88785e52905f623043ecad03ee7e6b");
    ("heap/2obj+H", "184d35f147645dba454e64d947926715");
    ("heap/2type+H", "c45418a660cd6c787ad0277f512652c8");
    ("heap/U-1obj", "598536976acfefd123abd8ffea804047");
    ("heap/U-2obj+H", "ffc1808c1e7fdddfd72168a08dd94b4a");
    ("heap/U-2type+H", "13f7f6e49c454b66bb62eccc65d241ae");
    ("heap/SA-1obj", "bcabf6a7e54e0275f7aaf4050ac84fcf");
    ("heap/SB-1obj", "327d64eb86c9a57e7c8267485ffc617d");
    ("heap/S-2obj+H", "e8261cda2f3c905599b6671f026e384b");
    ("heap/S-2type+H", "00cc7e49bb64306b53d6ecb5dbfa34a7");
    ("heap/2call+H", "53ceee49752eefc888a3bd65bbe744c7");
    ("heap/1obj+H", "ae88785e52905f623043ecad03ee7e6b");
    ("heap/3obj+2H", "0007beb496cf2f1999df6872c17f9b87");
    ("heap/CS", "5c7f1503701fffec7f032f57d7145b08");
    ("heap/CS-2obj+H", "15dc318afad22fa809d9203ff811a707");
    ("heap/X-2obj+IH", "fbb0a70b05e44f72db75069149657165");
    ("heap/X-2obj+Hrev", "599b3cd763a7673b353e324407cbafd4");
    ("heap/X-freemix", "3ca2c7a2fca5466bd13e0b3dac014af8");
    ("virtual/insens", "054e80a3060af63da671047d66fba5ef");
    ("virtual/1call", "023dec4339023d4af0558ee177a4557d");
    ("virtual/1call+H", "023dec4339023d4af0558ee177a4557d");
    ("virtual/1obj", "a7abddb796818b5a4120f6dfa64038c2");
    ("virtual/2obj+H", "5e281d43c356b986d8b0fba8ca208d4f");
    ("virtual/2type+H", "2e2d930614b939722da4ac3227e026e6");
    ("virtual/U-1obj", "816502f390d552766b190fd79a65c723");
    ("virtual/U-2obj+H", "5b4c68102aa0abf57aa5a4345f9b1075");
    ("virtual/U-2type+H", "7a154186410c0e0f1de18ba1d848f05b");
    ("virtual/SA-1obj", "9b95addb2b2c2d338a64bad2fadf7368");
    ("virtual/SB-1obj", "85235f55900d39bdc8e4054a36ffcadc");
    ("virtual/S-2obj+H", "c5f3c6f640e7ebd1cb6c4ed73bde2559");
    ("virtual/S-2type+H", "40dff5e07d3de1a90be7c4a2e30f976a");
    ("virtual/2call+H", "ba1fbe7efbfa5fe4764b16d4408ccfd3");
    ("virtual/1obj+H", "a7abddb796818b5a4120f6dfa64038c2");
    ("virtual/3obj+2H", "4580c8f8ab027eae469cadb224de0153");
    ("virtual/CS", "0123c8beee9a5066e3deae5754601aa2");
    ("virtual/CS-2obj+H", "b9869b74d334f9d8231e447275cffbba");
    ("virtual/X-2obj+IH", "5b4c68102aa0abf57aa5a4345f9b1075");
    ("virtual/X-2obj+Hrev", "18fa202567a05c186626735a633df835");
    ("virtual/X-freemix", "d536ebcfbdf7a2e212762102804bc9fa");
    ("static-throw/insens", "915280d3b4126655c6e626025305c149");
    ("static-throw/1call", "858c05cbe0357026e685ab00d272a433");
    ("static-throw/1call+H", "858c05cbe0357026e685ab00d272a433");
    ("static-throw/1obj", "33906787cede2404bf2c70b6390c7959");
    ("static-throw/2obj+H", "a0c8f89247ecf6830f777439d6a5b51d");
    ("static-throw/2type+H", "a0c8f89247ecf6830f777439d6a5b51d");
    ("static-throw/U-1obj", "5d0edf9a7b1f64e7668a8f0ea40ad9c9");
    ("static-throw/U-2obj+H", "d7851d6f3c5d091171feee386ada3922");
    ("static-throw/U-2type+H", "d7851d6f3c5d091171feee386ada3922");
    ("static-throw/SA-1obj", "858c05cbe0357026e685ab00d272a433");
    ("static-throw/SB-1obj", "5d0edf9a7b1f64e7668a8f0ea40ad9c9");
    ("static-throw/S-2obj+H", "3afb2f3779e42192ab74aa3caef4f593");
    ("static-throw/S-2type+H", "3afb2f3779e42192ab74aa3caef4f593");
    ("static-throw/2call+H", "1e25923c8150b027ff3991fe1aa8fedc");
    ("static-throw/1obj+H", "33906787cede2404bf2c70b6390c7959");
    ("static-throw/3obj+2H", "0ed95bf34758d3a0a5091304468c887f");
    ("static-throw/CS", "b5160059d079f281f96f60681ac312af");
    ("static-throw/CS-2obj+H", "71023b1ce3f98ae4a40d399a1ad2b985");
    ("static-throw/X-2obj+IH", "d7851d6f3c5d091171feee386ada3922");
    ("static-throw/X-2obj+Hrev", "a0c8f89247ecf6830f777439d6a5b51d");
    ("static-throw/X-freemix", "1e25923c8150b027ff3991fe1aa8fedc");
  ]

let pinned_antlr =
  [
    ("antlr/1obj", "7ddd7062cb5ffc996ae45d0d6b1aefdd");
    ("antlr/S-2obj+H", "5210a4c158a72b77d24094ee8c624aae");
  ]

(* The whole (case, digest) list is compared at once, so a failure
   prints every current digest. *)
let check_pinned expected outputs =
  Alcotest.(check (list (pair string string)))
    "taint output digests" expected
    (List.map (fun (case, out) -> (case, Digest.to_hex (Digest.string out))) outputs)

let pinned_tests =
  [
    Alcotest.test_case "pinned output, test programs, all strategies" `Quick
      (fun () ->
        let outputs =
          List.concat_map
            (fun (name, src, spec_text) ->
              let program =
                Pta_frontend.Frontend.program_of_string ~file:name src
              in
              let spec = compile_spec program spec_text in
              List.map
                (fun strat -> (name ^ "/" ^ strat, pinned_case program spec strat))
                all_strategies)
            pinned_programs
        in
        check_pinned pinned_small outputs;
        (* The per-field inverse points-to lookup only runs when a heap
           cell is tainted; some chain must go through a load. *)
        Alcotest.(check bool) "some chain has a load step" true
          (List.exists (fun (_, out) -> contains_sub out "load .") outputs));
    Alcotest.test_case "pinned output, gen antlr" `Slow (fun () ->
        let program = Option.get (Pta_workloads.Workloads.program_by_name "antlr") in
        let spec = Spec.compile program Spec.default in
        check_pinned pinned_antlr
          (List.map
             (fun strat -> ("antlr/" ^ strat, pinned_case program spec strat))
             [ "1obj"; "S-2obj+H" ]));
  ]

(* ------------------------------------------------------------------ *)
(* Cost: the pass reads only what propagation reaches                  *)
(* ------------------------------------------------------------------ *)

(* Taint through a heap cell, a static cell, a virtual call and a
   return; [dead n] appends a class of [n] methods nothing calls. *)
let program_reach =
  program_heap
  ^ {|
  class Relay {
    static field hold;
    static method pass(x) { Relay::hold = x; var y = Relay::hold; return y; }
  }
  class Main2 {
    static method main() {
      var t = Sink::fetch();
      var r = Relay::pass(t);
      Sink::leak(r);
    }
  }
  |}

let dead n =
  let b = Buffer.create 4096 in
  Buffer.add_string b "class Dead {\n  field f;\n  static field g;\n";
  for i = 0 to n - 1 do
    Printf.bprintf b
      "  method m%d(x) { this.f = x; var y = this.f; Dead::g = y; var z = \
       Dead::g; var d = new Dead; var w = d.m%d(z); Sink::leak(w); return \
       w; }\n"
      i i
  done;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* Minor words [Taint.analyze] allocates, after the solver's call-graph
   index is built, and its flow count. *)
let taint_words src =
  let program = Pta_frontend.Frontend.program_of_string ~file:"reach" src in
  let solver =
    Solver.solve program ((Option.get (Strategies.by_name "S-2obj+H")) program)
  in
  let spec = Spec.compile program Spec.default in
  ignore (Solver.n_call_edges_ci solver : int);
  let before = Gc.minor_words () in
  let taint = Taint.analyze solver spec in
  let words = Gc.minor_words () -. before in
  (words, Taint.n_flows taint)

let cost_tests =
  [
    Alcotest.test_case "unreachable methods cost the pass nothing" `Quick
      (fun () ->
        let words, flows = taint_words program_reach in
        Alcotest.(check bool) "some flow" true (flows > 0);
        List.iter
          (fun n ->
            let words', flows' = taint_words (program_reach ^ dead n) in
            Alcotest.(check int) (Printf.sprintf "flows, %d dead" n) flows flows';
            Alcotest.(check (float 0.))
              (Printf.sprintf "minor words, %d dead methods" n)
              words words')
          [ 10; 200 ]);
  ]

let tests =
  parse_tests @ differential_tests @ precision_tests @ misc_tests
  @ soundness_tests @ pinned_tests @ cost_tests
