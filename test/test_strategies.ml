(** Unit tests for the context constructor functions: each strategy's
    [Record]/[Merge]/[MergeStatic] must produce exactly the tuples the
    paper's equations specify (Sections 2.2, 3.1, 3.2). *)

module Ir = Pta_ir.Ir
module Ctx = Pta_context.Ctx
module Strategies = Pta_context.Strategies

(* A real program is needed only for CA (class of allocation); build one
   where the sites are easy to name. *)
let program =
  Pta_frontend.Frontend.program_of_string ~file:"<t>"
    {|
    class A { method m() { var x = new A; return x; } }
    class B { method m() { var x = new B; return x; } }
    class Main { static method main() { var a = new A; var b = a.m(); } }
    |}

let heap_in cls =
  let found = ref None in
  Ir.Program.iter_heaps program (fun h info ->
      let owner = Ir.Program.meth_info program info.Ir.heap_owner in
      if String.equal (Ir.Program.type_name program owner.Ir.meth_owner) cls then
        found := Some h);
  Option.get !found

let heap_a = heap_in "A"
let heap_b = heap_in "B"
let invo1 = Ir.Invo_id.of_int 0
let invo2 = Ir.Invo_id.of_int 1

let value = Alcotest.testable (Ctx.pp_value program) Ctx.value_equal
let star = Ctx.Star
let h x = Ctx.Heap x
let i x = Ctx.Invo x

let ca heap = Ctx.Type (Strategies.class_of_alloc program heap)

let strategy name = Helpers.resolve name program

let check_record name ~heap ~ctx expected =
  let s = strategy name in
  Alcotest.check value (name ^ ".record") expected (s.record ~heap ~ctx)

let check_merge name ~heap ~hctx ~invo ~ctx expected =
  let s = strategy name in
  Alcotest.check value (name ^ ".merge") expected (s.merge ~heap ~hctx ~invo ~callee:(Ir.Meth_id.of_int 0) ~ctx)

let check_merge_static name ~invo ~ctx expected =
  let s = strategy name in
  Alcotest.check value (name ^ ".merge_static") expected (s.merge_static ~invo ~callee:(Ir.Meth_id.of_int 0) ~ctx)

let tests =
  [
    Alcotest.test_case "insens" `Quick (fun () ->
        check_record "insens" ~heap:heap_a ~ctx:[||] [||];
        check_merge "insens" ~heap:heap_a ~hctx:[||] ~invo:invo1 ~ctx:[||] [||];
        check_merge_static "insens" ~invo:invo1 ~ctx:[||] [||]);
    Alcotest.test_case "1call" `Quick (fun () ->
        check_record "1call" ~heap:heap_a ~ctx:[| i invo1 |] [||];
        check_merge "1call" ~heap:heap_a ~hctx:[||] ~invo:invo2 ~ctx:[| i invo1 |]
          [| i invo2 |];
        check_merge_static "1call" ~invo:invo2 ~ctx:[| i invo1 |] [| i invo2 |]);
    Alcotest.test_case "1call+H records the caller context" `Quick (fun () ->
        check_record "1call+H" ~heap:heap_a ~ctx:[| i invo1 |] [| i invo1 |]);
    Alcotest.test_case "2call+H shifts the call string" `Quick (fun () ->
        check_merge "2call+H" ~heap:heap_a ~hctx:[||] ~invo:invo2
          ~ctx:[| i invo1; star |]
          [| i invo2; i invo1 |];
        check_record "2call+H" ~heap:heap_a ~ctx:[| i invo1; i invo2 |] [| i invo1 |]);
    Alcotest.test_case "1obj" `Quick (fun () ->
        check_record "1obj" ~heap:heap_a ~ctx:[| star |] [||];
        check_merge "1obj" ~heap:heap_a ~hctx:[||] ~invo:invo1 ~ctx:[| star |]
          [| h heap_a |];
        (* static calls copy the caller's context *)
        check_merge_static "1obj" ~invo:invo1 ~ctx:[| h heap_b |] [| h heap_b |]);
    Alcotest.test_case "2obj+H" `Quick (fun () ->
        (* merge = pair(heap, hctx) *)
        check_merge "2obj+H" ~heap:heap_a ~hctx:[| h heap_b |] ~invo:invo1
          ~ctx:[| star; star |]
          [| h heap_a; h heap_b |];
        (* record = first(ctx) *)
        check_record "2obj+H" ~heap:heap_a ~ctx:[| h heap_b; h heap_a |] [| h heap_b |];
        check_merge_static "2obj+H" ~invo:invo1 ~ctx:[| h heap_a; h heap_b |]
          [| h heap_a; h heap_b |]);
    Alcotest.test_case "2type+H maps CA over the receiver" `Quick (fun () ->
        check_merge "2type+H" ~heap:heap_a ~hctx:[| ca heap_b |] ~invo:invo1
          ~ctx:[| star; star |]
          [| ca heap_a; ca heap_b |];
        Alcotest.(check string)
          "CA(heap in A.m) = A" "A"
          (Ir.Program.type_name program (Strategies.class_of_alloc program heap_a)));
    Alcotest.test_case "U-1obj keeps both elements" `Quick (fun () ->
        check_merge "U-1obj" ~heap:heap_a ~hctx:[||] ~invo:invo1 ~ctx:[| star; star |]
          [| h heap_a; i invo1 |];
        check_merge_static "U-1obj" ~invo:invo2 ~ctx:[| h heap_a; i invo1 |]
          [| h heap_a; i invo2 |]);
    Alcotest.test_case "U-2obj+H is a triple" `Quick (fun () ->
        check_merge "U-2obj+H" ~heap:heap_a ~hctx:[| h heap_b |] ~invo:invo1
          ~ctx:[| star; star; star |]
          [| h heap_a; h heap_b; i invo1 |];
        check_merge_static "U-2obj+H" ~invo:invo2
          ~ctx:[| h heap_a; h heap_b; i invo1 |]
          [| h heap_a; h heap_b; i invo2 |];
        (* record keeps the most significant element, as in 2obj+H *)
        check_record "U-2obj+H" ~heap:heap_a ~ctx:[| h heap_b; h heap_a; i invo1 |]
          [| h heap_b |]);
    Alcotest.test_case "SA-1obj switches element kinds" `Quick (fun () ->
        check_merge "SA-1obj" ~heap:heap_a ~hctx:[||] ~invo:invo1 ~ctx:[| i invo2 |]
          [| h heap_a |];
        check_merge_static "SA-1obj" ~invo:invo1 ~ctx:[| h heap_a |] [| i invo1 |]);
    Alcotest.test_case "SB-1obj pads virtual contexts with star" `Quick (fun () ->
        check_merge "SB-1obj" ~heap:heap_a ~hctx:[||] ~invo:invo1 ~ctx:[| star; star |]
          [| h heap_a; star |];
        check_merge_static "SB-1obj" ~invo:invo1 ~ctx:[| h heap_a; star |]
          [| h heap_a; i invo1 |]);
    Alcotest.test_case "S-2obj+H static chains favor call sites" `Quick (fun () ->
        (* virtual: triple(heap, hctx, * ) *)
        check_merge "S-2obj+H" ~heap:heap_a ~hctx:[| h heap_b |] ~invo:invo1
          ~ctx:[| star; star; star |]
          [| h heap_a; h heap_b; star |];
        (* first static call: invocation site slides into second place *)
        check_merge_static "S-2obj+H" ~invo:invo1 ~ctx:[| h heap_a; h heap_b; star |]
          [| h heap_a; i invo1; h heap_b |];
        (* second static call: two invocation sites, heap part retained *)
        check_merge_static "S-2obj+H" ~invo:invo2 ~ctx:[| h heap_a; i invo1; h heap_b |]
          [| h heap_a; i invo2; i invo1 |];
        (* record still sees the most significant object element *)
        check_record "S-2obj+H" ~heap:heap_b ~ctx:[| h heap_a; i invo1; i invo2 |]
          [| h heap_a |]);
    Alcotest.test_case "3obj+2H deep contexts" `Quick (fun () ->
        check_merge "3obj+2H" ~heap:heap_a ~hctx:[| h heap_b; h heap_a |] ~invo:invo1
          ~ctx:[| star; star; star |]
          [| h heap_a; h heap_b; h heap_a |];
        check_record "3obj+2H" ~heap:heap_a ~ctx:[| h heap_b; h heap_a; star |]
          [| h heap_b; h heap_a |]);
    Alcotest.test_case "if_site table adapts Record to the context form" `Quick
      (fun () ->
        let t = Helpers.if_site_table in
        (* Allocation under a virtual-call context: receiver element. *)
        check_record t ~heap:heap_a ~ctx:[| h heap_b; h heap_a; star |]
          [| h heap_b |];
        (* Allocation under a static-call context (second element is an
           invocation site): the invocation site wins. *)
        check_record t ~heap:heap_a ~ctx:[| h heap_b; i invo1; star |]
          [| i invo1 |];
        check_merge_static t ~invo:invo2 ~ctx:[| h heap_a; i invo1; star |]
          [| h heap_a; i invo2; i invo1 |]);
    Alcotest.test_case "ablations produce their documented shapes" `Quick
      (fun () ->
        check_merge "X-2obj+IH" ~heap:heap_a ~hctx:[| i invo1 |] ~invo:invo2
          ~ctx:[| star; star; star |]
          [| h heap_a; i invo1; i invo2 |];
        check_record "X-2obj+IH" ~heap:heap_a ~ctx:[| h heap_b; star; i invo1 |]
          [| i invo1 |];
        check_merge "X-2obj+Hrev" ~heap:heap_a ~hctx:[| h heap_b |] ~invo:invo1
          ~ctx:[| star; star |]
          [| h heap_b; h heap_a |];
        check_merge "X-freemix" ~heap:heap_a ~hctx:[||] ~invo:invo1
          ~ctx:[| star; star |]
          [| i invo1; h heap_a |]);
    Alcotest.test_case "registry is consistent" `Quick (fun () ->
        Alcotest.(check int) "table1 has 12 analyses" 12 (List.length Strategies.table1);
        List.iter
          (fun (name, factory) ->
            let s = factory program in
            Alcotest.(check string) "name matches key" name s.Pta_context.Strategy.name)
          Strategies.all);
  ]
