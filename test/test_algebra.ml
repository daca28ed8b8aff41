(** The strategy algebra's expression language: the canonical printer
    and the parser must round-trip every valid term, the validator must
    reject malformed terms with actionable messages, and the compiled
    constructor tables must match the paper's equations. *)

module A = Pta_context.Algebra
module Strategies = Pta_context.Strategies

(* ------------------------------------------------------------------ *)
(* A generator of valid terms                                          *)
(* ------------------------------------------------------------------ *)

let gen_base =
  QCheck.Gen.(
    oneofl [ `Call; `Obj; `Type ] >>= fun kind ->
    int_range 1 3 >>= fun k ->
    int_range 0 (min k 2) >>= fun h ->
    return
      (match kind with
      | `Call -> A.call ~h k
      | `Obj -> A.obj ~h k
      | `Type -> A.typ ~h k))

(* Hybrid composers need an object-/type-sensitive base; [uniform] and
   [selective] also add an element, so their base is capped at k = 2. *)
let gen_hybrid_base ~max_k =
  QCheck.Gen.(
    oneofl [ `Obj; `Type ] >>= fun kind ->
    int_range 1 max_k >>= fun k ->
    int_range 0 (min k 2) >>= fun h ->
    return (match kind with `Obj -> A.obj ~h k | _ -> A.typ ~h k))

let gen_elem ~pos ~depth =
  let leaves =
    (if depth > 0 then
       List.init depth (fun i -> A.Caller i)
     else [])
    @ [ A.Star ]
    @ (match pos with
      | `Record -> [ A.alloc_site ]
      | `Merge -> [ A.callsite; A.receiver_obj; A.receiver_type; A.Hctx 0 ]
      | `Static -> [ A.callsite ])
  in
  QCheck.Gen.(
    let leaf = oneofl leaves in
    if depth > 0 then
      frequency
        [
          (4, leaf);
          ( 1,
            int_range 0 (depth - 1) >>= fun i ->
            leaf >>= fun a ->
            leaf >>= fun b -> return (A.If_site (i, a, b)) );
        ]
    else leaf)

let gen_raw =
  QCheck.Gen.(
    int_range 1 3 >>= fun depth ->
    int_range 0 2 >>= fun n_record ->
    list_repeat n_record (gen_elem ~pos:`Record ~depth) >>= fun record ->
    list_repeat depth (gen_elem ~pos:`Merge ~depth) >>= fun merge ->
    list_repeat depth (gen_elem ~pos:`Static ~depth) >>= fun merge_static ->
    return (A.raw ~depth ~record ~merge ~merge_static))

let gen_fixed =
  QCheck.Gen.(
    frequency
      [
        (1, return A.insens);
        (4, gen_base);
        (2, map A.uniform (gen_hybrid_base ~max_k:2));
        (2, map A.selective_b (gen_hybrid_base ~max_k:2));
        (2, map A.selective_a (gen_hybrid_base ~max_k:3));
        (2, gen_raw);
      ])

let gen_per_method =
  QCheck.Gen.(
    let glob = oneofl [ "List*"; "Map.get*"; "*init*"; "Main.main/0" ] in
    int_range 1 2 >>= fun n ->
    list_repeat n (pair glob gen_fixed) >>= fun cases ->
    gen_fixed >>= fun default -> return (A.per_method cases ~default))

let gen_term =
  QCheck.Gen.(
    frequency
      [
        (6, gen_fixed);
        (1, gen_per_method);
        (1, map A.cut_shortcut (oneof [ gen_fixed; gen_per_method ]));
      ])

let term_arb =
  QCheck.make ~print:A.to_string gen_term

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let qcheck_tests =
  [
    QCheck.Test.make ~count:500 ~name:"of_string (to_string t) = t" term_arb
      (fun t ->
        match A.of_string (A.to_string t) with
        | Ok t' -> A.equal t t'
        | Error msg -> QCheck.Test.fail_reportf "rejected own print: %s" msg);
    QCheck.Test.make ~count:500 ~name:"printing is round-trip stable" term_arb
      (fun t ->
        match A.parse (A.to_string t) with
        | Ok t' -> String.equal (A.to_string t) (A.to_string t')
        | Error msg -> QCheck.Test.fail_reportf "parse failed: %s" msg);
    QCheck.Test.make ~count:500 ~name:"generated terms validate" term_arb
      (fun t ->
        match A.validate t with
        | Ok () -> true
        | Error msg -> QCheck.Test.fail_reportf "invalid: %s" msg);
  ]

(* ------------------------------------------------------------------ *)
(* Goldens                                                             *)
(* ------------------------------------------------------------------ *)

let check_prints term expected () =
  Alcotest.(check string) expected expected (A.to_string term);
  match A.of_string expected with
  | Ok t -> Alcotest.(check bool) "parses back" true (A.equal term t)
  | Error msg -> Alcotest.failf "canonical form rejected: %s" msg

let printing_tests =
  [
    Alcotest.test_case "base forms" `Quick (fun () ->
        check_prints A.insens "insens" ();
        check_prints (A.call 1) "call 1" ();
        check_prints (A.obj ~h:1 2) "obj 2 1" ();
        check_prints (A.typ ~h:2 3) "type 3 2" ());
    Alcotest.test_case "composer forms" `Quick (fun () ->
        check_prints (A.uniform (A.obj ~h:1 2)) "uniform(obj 2 1)" ();
        check_prints (A.selective_b (A.obj 1)) "selective(obj 1)" ();
        check_prints (A.selective_a (A.obj 1)) "selective_a(obj 1)" ();
        check_prints (A.cut_shortcut A.insens) "cs(insens)" ());
    Alcotest.test_case "per_method and raw forms" `Quick (fun () ->
        check_prints
          (A.per_method [ ("List*", A.obj ~h:1 2) ] ~default:A.insens)
          "per_method(\"List*\": obj 2 1, insens)" ();
        check_prints
          (A.raw ~depth:2 ~record:[ A.Caller 0 ]
             ~merge:[ A.receiver_obj; A.Hctx 0 ]
             ~merge_static:[ A.callsite; A.Caller 0 ])
          "raw(2, [caller 0], [recv, hctx 0], [site, caller 0])" ());
    Alcotest.test_case "selective_b is an accepted alias" `Quick (fun () ->
        match A.of_string "selective_b(obj 1)" with
        | Ok t ->
          Alcotest.(check bool) "= selective" true
            (A.equal t (A.selective_b (A.obj 1)));
          Alcotest.(check string) "prints canonically" "selective(obj 1)"
            (A.to_string t)
        | Error msg -> Alcotest.failf "alias rejected: %s" msg);
    Alcotest.test_case "whitespace is insignificant" `Quick (fun () ->
        match A.of_string "  selective( obj  2   1 ) " with
        | Ok t ->
          Alcotest.(check string) "canonical" "selective(obj 2 1)" (A.to_string t)
        | Error msg -> Alcotest.failf "rejected: %s" msg);
    Alcotest.test_case "every registry preset round-trips" `Quick (fun () ->
        List.iter
          (fun (p : Strategies.preset) ->
            match A.of_string (A.to_string p.Strategies.term) with
            | Ok t ->
              if not (A.equal t p.Strategies.term) then
                Alcotest.failf "%s: reparse differs" p.Strategies.name
            | Error msg ->
              Alcotest.failf "%s: canonical form rejected: %s"
                p.Strategies.name msg)
          Strategies.presets);
  ]

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let rejections =
  [
    ("uniform(call 1)", "object- or type-sensitive");
    ("uniform(insens)", "base must be a base analysis");
    ("form_adaptive(obj 1)", "unknown combinator");
    ("obj 4", "between 1 and 3");
    ("obj 2 3", "between 0 and 2");
    ("call 1 2", "cannot exceed context depth");
    ("uniform(obj 3)", "exceeds the maximum");
    ("raw(1, [site], [site], [site])", "site is not valid in the record row");
    ("raw(2, [caller 0], [recv], [site, caller 0])", "merge row has 1 elements");
    ("raw(2, [], [site, recv], [site, recv])", "recv is only valid in the merge row");
    ("raw(2, [caller 0], [hctx 2, recv], [site, caller 0])", "hctx index 2 out of range");
    ("raw(2, [caller 3], [site, recv], [site, caller 0])", "caller index 3 out of range");
    ("cs(cs(insens))", "do not nest");
    ("adaptive(obj 1, obj 2 1, 3)", "unknown combinator");
    ("adaptive(obj 2 1, obj 1, 0)", "unknown combinator");
    ("per_method(\"\": obj 1, insens)", "empty glob");
    ("frobnicate(obj 1)", "unknown combinator");
    ("obj 1 1 1", "trailing input");
    ("selective(obj 1", "end of input");
    ("obj 2 @", "unexpected character");
    ("", "empty strategy expression");
  ]

let rejection_tests =
  [
    Alcotest.test_case "malformed expressions are rejected" `Quick (fun () ->
        List.iter
          (fun (expr, fragment) ->
            match A.of_string expr with
            | Ok t ->
              Alcotest.failf "%S was accepted (as %s)" expr (A.to_string t)
            | Error msg ->
              if not (contains ~needle:fragment msg) then
                Alcotest.failf "%S: error %S does not mention %S" expr msg
                  fragment)
          rejections);
  ]

(* ------------------------------------------------------------------ *)
(* Compiled constructor tables                                         *)
(* ------------------------------------------------------------------ *)

let spec_eq (a : A.spec) (b : A.spec) =
  a.A.depth = b.A.depth && a.A.record = b.A.record && a.A.merge = b.A.merge
  && a.A.merge_static = b.A.merge_static

let check_spec name term expected =
  match A.spec_of term with
  | Ok s ->
    if not (spec_eq s expected) then
      Alcotest.failf "%s: table is raw(%d, ...) not the expected shape" name
        s.A.depth
  | Error msg -> Alcotest.failf "%s: no table: %s" name msg

let mk ~depth ~record ~merge ~merge_static =
  {
    A.depth;
    record = Array.of_list record;
    merge = Array.of_list merge;
    merge_static = Array.of_list merge_static;
  }

let spec_tests =
  [
    Alcotest.test_case "tables match the paper's equations" `Quick (fun () ->
        check_spec "2obj+H" (A.obj ~h:1 2)
          (mk ~depth:2 ~record:[ A.Caller 0 ]
             ~merge:[ A.receiver_obj; A.Hctx 0 ]
             ~merge_static:[ A.Caller 0; A.Caller 1 ]);
        check_spec "2call+H" (A.call ~h:1 2)
          (mk ~depth:2 ~record:[ A.Caller 0 ]
             ~merge:[ A.callsite; A.Caller 0 ]
             ~merge_static:[ A.callsite; A.Caller 0 ]);
        check_spec "U-2obj+H" (A.uniform (A.obj ~h:1 2))
          (mk ~depth:3 ~record:[ A.Caller 0 ]
             ~merge:[ A.receiver_obj; A.Hctx 0; A.callsite ]
             ~merge_static:[ A.Caller 0; A.Caller 1; A.callsite ]);
        check_spec "S-2obj+H" (A.selective_b (A.obj ~h:1 2))
          (mk ~depth:3 ~record:[ A.Caller 0 ]
             ~merge:[ A.receiver_obj; A.Hctx 0; A.Star ]
             ~merge_static:[ A.Caller 0; A.callsite; A.Caller 1 ]);
        check_spec "SA-1obj" (A.selective_a (A.obj 1))
          (mk ~depth:1 ~record:[] ~merge:[ A.receiver_obj ]
             ~merge_static:[ A.callsite ]));
    Alcotest.test_case "callee-dispatched terms have no fixed table" `Quick
      (fun () ->
        List.iter
          (fun term ->
            match A.spec_of term with
            | Ok _ -> Alcotest.failf "%s: unexpected table" (A.to_string term)
            | Error _ -> ())
          [
            A.per_method [ ("*", A.obj ~h:1 2) ] ~default:(A.obj 1);
            A.per_method [ ("*", A.obj 1) ] ~default:A.insens;
            A.cut_shortcut A.insens;
          ]);
  ]

let tests =
  printing_tests @ rejection_tests @ spec_tests
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
