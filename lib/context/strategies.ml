module Ir = Pta_ir.Ir
module A = Algebra

type factory = Ir.Program.t -> Strategy.t
type preset = { name : string; term : Algebra.t; description : string }

(* CA : H -> T, the class containing the allocation site. *)
let class_of_alloc program heap =
  let owner = (Ir.Program.heap_info program heap).Ir.heap_owner in
  (Ir.Program.meth_info program owner).Ir.meth_owner

let p name term description = { name; term; description }

(* ------------------------------------------------------------------ *)
(* The preset registry: every named analysis is an algebra term.       *)
(* Fact-identity of each term against the paper's hand-written          *)
(* constructor definitions is pinned by test/test_differential.ml.     *)
(* ------------------------------------------------------------------ *)

let standard =
  [
    p "insens" A.insens "context-insensitive";
    p "1call" (A.call 1) "1-call-site-sensitive";
    p "1call+H" (A.call ~h:1 1)
      "1-call-site-sensitive with a context-sensitive heap";
    p "1obj" (A.obj 1) "1-object-sensitive";
    p "2obj+H" (A.obj ~h:1 2) "2-object-sensitive with a 1-context-sensitive heap";
    p "2type+H" (A.typ ~h:1 2) "2-type-sensitive with a 1-context-sensitive heap";
  ]

(* Uniform hybrids (Section 3.1). *)
let uniform =
  [
    p "U-1obj" (A.uniform (A.obj 1)) "uniform 1-object-sensitive hybrid";
    p "U-2obj+H"
      (A.uniform (A.obj ~h:1 2))
      "uniform 2-object-sensitive hybrid with context-sensitive heap";
    p "U-2type+H"
      (A.uniform (A.typ ~h:1 2))
      "uniform 2-type-sensitive hybrid with context-sensitive heap";
  ]

(* Selective hybrids (Section 3.2). *)
let selective =
  [
    p "SA-1obj"
      (A.selective_a (A.obj 1))
      "selective 1-object-sensitive hybrid A: one element, allocation site at \
       virtual calls, invocation site at static calls";
    p "SB-1obj"
      (A.selective_b (A.obj 1))
      "selective 1-object-sensitive hybrid B: allocation site always kept, \
       invocation site added at static calls";
    p "S-2obj+H"
      (A.selective_b (A.obj ~h:1 2))
      "selective 2-object-sensitive hybrid with context-sensitive heap: \
       object-sensitive at virtual calls, call-site elements at static calls";
    p "S-2type+H"
      (A.selective_b (A.typ ~h:1 2))
      "selective 2-type-sensitive hybrid with context-sensitive heap";
  ]

(* Deeper-context extensions and ablations kept for the experiments. *)
let extensions =
  [
    p "2call+H" (A.call ~h:1 2)
      "2-call-site-sensitive with a context-sensitive heap";
    p "1obj+H" (A.obj ~h:1 1)
      "1-object-sensitive with a context-sensitive heap (ablation)";
    p "3obj+2H" (A.obj ~h:2 3)
      "3-object-sensitive with a 2-context-sensitive heap";
  ]

(* Cut-shortcut analyses (Ma et al., "Context Sensitivity without
   Contexts"): trivial calls are cut and threaded through the caller. *)
let shortcut =
  [
    p "CS" (A.cut_shortcut A.insens)
      "cut-shortcut context-insensitive: calls to trivial methods \
       (getters, setters, forwarders) are cut and their effect threaded \
       through the caller";
    p "CS-2obj+H"
      (A.cut_shortcut (A.obj ~h:1 2))
      "cut-shortcut over 2obj+H: trivial calls are cut instead of being \
       analyzed under cloned contexts";
  ]

(* The "decisively less sense" combinations of Section 3, kept to
   reproduce the paper's claim that they yield bad analyses. *)
let ablations =
  [
    p "X-2obj+IH"
      (A.raw ~depth:3
         ~record:[ A.Caller 2 ]
         ~merge:[ A.Recv; A.Hctx 0; A.Site ]
         ~merge_static:[ A.Caller 0; A.Caller 1; A.Site ])
      "ablation: 2obj-style analysis with an invocation-site heap context \
       (the paper: call-site heap contexts rarely pay off)";
    p "X-2obj+Hrev"
      (A.raw ~depth:2
         ~record:[ A.Caller 0 ]
         ~merge:[ A.Hctx 0; A.Recv ]
         ~merge_static:[ A.Caller 0; A.Caller 1 ])
      "ablation: 2obj+H with hctx in the most significant context position \
       (the paper: not reasonable to invert heap vs hctx)";
    p "X-freemix"
      (A.raw ~depth:2
         ~record:[ A.Caller 0 ]
         ~merge:[ A.Site; A.Recv ]
         ~merge_static:[ A.Site; A.Caller 0 ])
      "ablation: freely mixed call-site/object context that may skip the \
       receiver object entirely";
  ]

let presets =
  standard @ uniform @ selective @ extensions @ shortcut @ ablations

let () =
  List.iter
    (fun { name; term; _ } ->
      match A.validate term with
      | Ok () -> ()
      | Error msg ->
        invalid_arg (Printf.sprintf "invalid preset %s: %s" name msg))
    presets

let names = List.map (fun pr -> pr.name) presets

let factory_of_preset { name; term; description } program =
  A.to_strategy_exn ~name ~description program term

let all = List.map (fun pr -> (pr.name, factory_of_preset pr)) presets

let table1_names =
  [
    "1call"; "1call+H"; "1obj"; "U-1obj"; "SA-1obj"; "SB-1obj"; "2obj+H";
    "U-2obj+H"; "S-2obj+H"; "2type+H"; "U-2type+H"; "S-2type+H";
  ]

let table1 =
  List.map (fun name -> (name, List.assoc name all)) table1_names

let by_name name = List.assoc_opt name all

let get name =
  match by_name name with
  | Some f -> f
  | None -> invalid_arg ("Strategies.get: unknown analysis " ^ name)

(* ------------------------------------------------------------------ *)
(* Name resolution for the CLI: preset name or algebra expression.     *)
(* ------------------------------------------------------------------ *)

let levenshtein a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) (fun j -> j) in
  let cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let suggest ~cutoff candidates name =
  let target = String.lowercase_ascii name in
  let scored =
    List.filter_map
      (fun candidate ->
        let d = levenshtein target (String.lowercase_ascii candidate) in
        if d <= cutoff then Some (d, candidate) else None)
      candidates
  in
  let sorted = List.sort compare scored in
  List.filteri (fun i _ -> i < 3) (List.map snd sorted)

type resolve_error =
  | Unknown_name of { name : string; suggestions : string list }
  | Bad_expression of { expr : string; msg : string }

let resolve input =
  match by_name input with
  | Some f -> Ok f
  | None -> (
    let looks_like_expression =
      String.exists (fun c -> c = '(' || c = ' ' || c = '[') input
    in
    match A.of_string input with
    | Ok term ->
      Ok
        (fun program ->
          A.to_strategy_exn ~name:(A.to_string term) program term)
    | Error msg ->
      if looks_like_expression then Error (Bad_expression { expr = input; msg })
      else
        Error
          (Unknown_name
             { name = input; suggestions = suggest ~cutoff:3 names input }))
