(** Unit and property tests for the small container/PRNG substrates:
    [Vec], [Inttbl], [Rng], and the context-interning store. *)

module Vec = Pta_ir.Vec
module Inttbl = Pta_ir.Inttbl
module Rng = Pta_workloads.Rng
module Ctx = Pta_context.Ctx
module Ir = Pta_ir.Ir

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)
(* ------------------------------------------------------------------ *)

let vec_tests =
  [
    Alcotest.test_case "push/get round trip" `Quick (fun () ->
        let v = Vec.create () in
        for i = 0 to 999 do
          Alcotest.(check int) "index" i (Vec.push v (i * 3))
        done;
        Alcotest.(check int) "length" 1000 (Vec.length v);
        for i = 0 to 999 do
          Alcotest.(check int) "value" (i * 3) (Vec.get v i)
        done);
    Alcotest.test_case "set" `Quick (fun () ->
        let v = Vec.of_list [ 1; 2; 3 ] in
        Vec.set v 1 42;
        Alcotest.(check (list int)) "to_list" [ 1; 42; 3 ] (Vec.to_list v));
    Alcotest.test_case "bounds checked" `Quick (fun () ->
        let v = Vec.of_list [ 1 ] in
        Alcotest.check_raises "get" (Invalid_argument "Vec.get") (fun () ->
            ignore (Vec.get v 1));
        Alcotest.check_raises "set" (Invalid_argument "Vec.set") (fun () ->
            Vec.set v (-1) 0));
    Alcotest.test_case "fold/iter/exists" `Quick (fun () ->
        let v = Vec.of_list [ 1; 2; 3; 4 ] in
        Alcotest.(check int) "sum" 10 (Vec.fold_left ( + ) 0 v);
        Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 3) v);
        Alcotest.(check bool) "not exists" false (Vec.exists (fun x -> x = 9) v));
  ]

(* ------------------------------------------------------------------ *)
(* Inttbl, against a Stdlib [Hashtbl] model                            *)
(* ------------------------------------------------------------------ *)

(* A table starts at 8 slots and doubles past 3/4 full, so 1500 draws
   from 1000 keys (about 780 distinct) cross 7 resizes. *)
let n_ops = 1500

(* Half the keys are small, half packed from two ids near [2^31]: the
   second kind differs only in the bits the hash must spread. *)
let key_gen =
  QCheck.Gen.(
    oneof
      [
        int_bound 499;
        map (fun i -> Inttbl.pack (0x7FFF_FFFF - (i mod 5)) (i / 5)) (int_bound 499);
      ])

type op = Add | Add_new | Find

let op_gen = QCheck.Gen.oneofl [ Add; Add_new; Find ]

(* Every entry [iter] visits, each paired with how often it came. *)
let visits t =
  let seen = Hashtbl.create 64 in
  Inttbl.iter
    (fun a b ->
      Hashtbl.replace seen (a, b)
        (1 + Option.value ~default:0 (Hashtbl.find_opt seen (a, b))))
    t;
  seen

(* [t] holds exactly [entries]: [length], [iter] and [fold] agree, and
   [iter] visits each entry once. *)
let agrees_with entries t =
  let seen = visits t in
  let n = List.length entries in
  Inttbl.length t = n
  && Hashtbl.length seen = n
  && Hashtbl.fold (fun _ count ok -> ok && count = 1) seen true
  && List.for_all (Hashtbl.mem seen) entries
  && Inttbl.fold (fun _ _ count -> count + 1) t 0 = n

let map_qcheck =
  let gen =
    QCheck.Gen.(list_repeat n_ops (triple op_gen key_gen (int_range (-5) 5)))
  in
  QCheck.Test.make ~count:50 ~name:"map = Hashtbl model"
    (QCheck.make gen) (fun ops ->
      let t = Inttbl.create_map () and model = Hashtbl.create 16 in
      List.for_all
        (fun (op, k, v) ->
          match op with
          | Add ->
            Inttbl.add t k v;
            Hashtbl.replace model k v;
            true
          | Add_new ->
            let fresh = not (Hashtbl.mem model k) in
            if fresh then Hashtbl.replace model k v;
            Inttbl.add_new t k v = fresh
          | Find ->
            Inttbl.find t k
            = Option.value ~default:Inttbl.absent (Hashtbl.find_opt model k))
        ops
      && agrees_with (List.of_seq (Hashtbl.to_seq model)) t)

let set_qcheck =
  let gen =
    QCheck.Gen.(list_repeat n_ops (triple bool key_gen (int_range (-2) 2)))
  in
  QCheck.Test.make ~count:50 ~name:"set = Hashtbl model"
    (QCheck.make gen) (fun ops ->
      let t = Inttbl.create_set () and model = Hashtbl.create 16 in
      List.for_all
        (fun (plain_add, k1, k2) ->
          let fresh = not (Hashtbl.mem model (k1, k2)) in
          Hashtbl.replace model (k1, k2) ();
          if plain_add then begin
            Inttbl.add t k1 k2;
            true
          end
          else Inttbl.add_new t k1 k2 = fresh)
        ops
      && Hashtbl.fold
           (fun (k1, k2) () ok -> ok && not (Inttbl.add_new t k1 k2))
           model true
      && agrees_with (List.of_seq (Hashtbl.to_seq_keys model)) t)

let inttbl_tests =
  [
    Alcotest.test_case "pack round trip at the range ends" `Quick (fun () ->
        let top = 0x7FFF_FFFF in
        List.iter
          (fun (a, b) ->
            let k = Inttbl.pack a b in
            Alcotest.(check bool) "non-negative" true (k >= 0);
            Alcotest.(check (pair int int)) "unpack" (a, b) (Inttbl.high k, Inttbl.low k))
          [ (0, 0); (0, top); (top, 0); (top, top); (1, top - 1) ]);
    Alcotest.test_case "pack rejects ids out of range" `Quick (fun () ->
        List.iter
          (fun (a, b) ->
            Alcotest.check_raises
              (Printf.sprintf "pack %d %d" a b)
              (Invalid_argument "Inttbl.pack")
              (fun () -> ignore (Inttbl.pack a b)))
          [ (-1, 0); (0, -1); (1 lsl 31, 0); (0, 1 lsl 31); (min_int, max_int) ]);
    Alcotest.test_case "negative keys are refused" `Quick (fun () ->
        Alcotest.check_raises "map" (Invalid_argument "Inttbl.add") (fun () ->
            Inttbl.add (Inttbl.create_map ()) (-1) 0);
        Alcotest.check_raises "set" (Invalid_argument "Inttbl.add") (fun () ->
            ignore (Inttbl.add_new (Inttbl.create_set ()) (-3) 0)));
  ]
  @ List.map QCheck_alcotest.to_alcotest [ map_qcheck; set_qcheck ]

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let rng_tests =
  [
    Alcotest.test_case "deterministic across instances" `Quick (fun () ->
        let a = Rng.create 42L and b = Rng.create 42L in
        for _ = 1 to 100 do
          Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
        done);
    Alcotest.test_case "copy forks the stream" `Quick (fun () ->
        let a = Rng.create 7L in
        ignore (Rng.int a 10);
        let b = Rng.copy a in
        Alcotest.(check int) "fork" (Rng.int a 1_000_000) (Rng.int b 1_000_000));
    Alcotest.test_case "int stays in range" `Quick (fun () ->
        let rng = Rng.create 99L in
        for _ = 1 to 10_000 do
          let v = Rng.int rng 7 in
          if v < 0 || v >= 7 then Alcotest.failf "out of range: %d" v
        done);
    Alcotest.test_case "pick_weighted respects zero-free weights" `Quick
      (fun () ->
        let rng = Rng.create 3L in
        for _ = 1 to 1000 do
          match Rng.pick_weighted rng [ (1, `A); (0 + 2, `B) ] with
          | `A | `B -> ()
        done);
    Alcotest.test_case "shuffle is a permutation" `Quick (fun () ->
        let rng = Rng.create 5L in
        let l = List.init 50 Fun.id in
        let s = Rng.shuffle rng l in
        Alcotest.(check (list int)) "sorted back" l (List.sort compare s));
    Alcotest.test_case "bool probability sanity" `Quick (fun () ->
        let rng = Rng.create 11L in
        let hits = ref 0 in
        for _ = 1 to 10_000 do
          if Rng.bool rng 0.25 then incr hits
        done;
        if !hits < 2_000 || !hits > 3_000 then
          Alcotest.failf "0.25 bool hit %d/10000 times" !hits);
  ]

(* ------------------------------------------------------------------ *)
(* Context interning                                                   *)
(* ------------------------------------------------------------------ *)

let heap i = Ctx.Heap (Ir.Heap_id.of_int i)
let invo i = Ctx.Invo (Ir.Invo_id.of_int i)
let ty i = Ctx.Type (Ir.Type_id.of_int i)

let ctx_tests =
  [
    Alcotest.test_case "interning is injective on values" `Quick (fun () ->
        let store = Ctx.create_store () in
        let a = Ctx.intern store [| heap 1; Ctx.Star |] in
        let b = Ctx.intern store [| heap 1; Ctx.Star |] in
        let c = Ctx.intern store [| heap 2; Ctx.Star |] in
        let d = Ctx.intern store [| heap 1 |] in
        Alcotest.(check int) "same value same id" a b;
        Alcotest.(check bool) "different elem" true (a <> c);
        Alcotest.(check bool) "different arity" true (a <> d);
        Alcotest.(check int) "store size" 3 (Ctx.size store));
    Alcotest.test_case "value round trip" `Quick (fun () ->
        let store = Ctx.create_store () in
        let v = [| invo 3; ty 4; Ctx.Star |] in
        let id = Ctx.intern store v in
        Alcotest.(check bool) "round trip" true (Ctx.value_equal v (Ctx.value store id)));
    Alcotest.test_case "element kinds never collide" `Quick (fun () ->
        (* Heap 5 vs Invo 5 vs Type 5 are distinct context elements. *)
        let store = Ctx.create_store () in
        let ids =
          List.map (fun e -> Ctx.intern store [| e |]) [ heap 5; invo 5; ty 5; Ctx.Star ]
        in
        Alcotest.(check int) "four distinct" 4
          (List.length (List.sort_uniq compare ids)));
    Alcotest.test_case "accessors pad with Star" `Quick (fun () ->
        Alcotest.(check bool) "first of empty" true
          (Ctx.elem_equal (Ctx.first [||]) Ctx.Star);
        Alcotest.(check bool) "third of pair" true
          (Ctx.elem_equal (Ctx.third [| heap 1; heap 2 |]) Ctx.Star);
        Alcotest.(check bool) "second of pair" true
          (Ctx.elem_equal (Ctx.second [| heap 1; heap 2 |]) (heap 2)));
  ]

let ctx_qcheck =
  let elem_gen =
    QCheck.Gen.(
      oneof
        [
          return Ctx.Star;
          map (fun i -> heap i) (int_bound 100);
          map (fun i -> invo i) (int_bound 100);
          map (fun i -> ty i) (int_bound 100);
        ])
  in
  let value_gen = QCheck.Gen.(array_size (int_bound 3) elem_gen) in
  let value_arb = QCheck.make value_gen in
  [
    QCheck.Test.make ~count:300 ~name:"equal values have equal hashes"
      (QCheck.pair value_arb value_arb) (fun (a, b) ->
        (not (Ctx.value_equal a b)) || Ctx.value_hash a = Ctx.value_hash b);
    QCheck.Test.make ~count:300 ~name:"interning respects value equality"
      (QCheck.pair value_arb value_arb) (fun (a, b) ->
        let store = Ctx.create_store () in
        let ia = Ctx.intern store a and ib = Ctx.intern store b in
        Ctx.value_equal a b = (ia = ib));
  ]

let tests =
  vec_tests @ inttbl_tests @ rng_tests @ ctx_tests @ List.map QCheck_alcotest.to_alcotest ctx_qcheck
