(** Patricia-tree integer sets: unit tests plus qcheck properties
    against the model implementation [Stdlib.Set.Make(Int)]. *)

module Intset = Pta_solver.Intset
module M = Set.Make (Int)

let of_model m = M.fold Intset.add m Intset.empty
let to_model s = Intset.fold (fun i acc -> M.add i acc) s M.empty

let ints_arb = QCheck.(list_of_size Gen.(int_bound 200) (int_bound 10_000))

let model_of_list l = M.of_list l
let set_of_list l = Intset.of_list l

let sorted m = Array.of_list (M.elements m)

let prop name gen f = QCheck.Test.make ~count:500 ~name gen f

let qcheck_tests =
  [
    prop "mem agrees with model" QCheck.(pair ints_arb (int_bound 10_000))
      (fun (l, x) -> Intset.mem x (set_of_list l) = M.mem x (model_of_list l));
    prop "union agrees with model" QCheck.(pair ints_arb ints_arb)
      (fun (a, b) ->
        M.equal
          (to_model (Intset.union (set_of_list a) (set_of_list b)))
          (M.union (model_of_list a) (model_of_list b)));
    prop "inter agrees with model" QCheck.(pair ints_arb ints_arb)
      (fun (a, b) ->
        M.equal
          (to_model (Intset.inter (set_of_list a) (set_of_list b)))
          (M.inter (model_of_list a) (model_of_list b)));
    prop "diff agrees with model" QCheck.(pair ints_arb ints_arb)
      (fun (a, b) ->
        M.equal
          (to_model (Intset.diff (set_of_list a) (set_of_list b)))
          (M.diff (model_of_list a) (model_of_list b)));
    prop "remove agrees with model" QCheck.(pair ints_arb (int_bound 10_000))
      (fun (l, x) ->
        M.equal
          (to_model (Intset.remove x (set_of_list l)))
          (M.remove x (model_of_list l)));
    prop "cardinal agrees with model" ints_arb (fun l ->
        Intset.cardinal (set_of_list l) = M.cardinal (model_of_list l));
    prop "subset agrees with model" QCheck.(pair ints_arb ints_arb)
      (fun (a, b) ->
        Intset.subset (set_of_list a) (set_of_list b)
        = M.subset (model_of_list a) (model_of_list b));
    prop "elements sorted and deduplicated" ints_arb (fun l ->
        Intset.elements (set_of_list l) = M.elements (model_of_list l));
    prop "equal is extensional" QCheck.(pair ints_arb ints_arb)
      (fun (a, b) ->
        Intset.equal (set_of_list a) (set_of_list b)
        = M.equal (model_of_list a) (model_of_list b));
    prop "canonical structure: permutation-insensitive build" ints_arb
      (fun l ->
        Intset.equal (set_of_list l) (set_of_list (List.rev l)));
    prop "union idempotent" ints_arb (fun l ->
        let s = set_of_list l in
        Intset.equal (Intset.union s s) s);
    prop "diff2 agrees with double diff" QCheck.(triple ints_arb ints_arb ints_arb)
      (fun (s, a, b) ->
        M.equal
          (to_model (Intset.diff2 (set_of_list s) (set_of_list a) (set_of_list b)))
          (M.diff (M.diff (model_of_list s) (model_of_list a)) (model_of_list b)));
    prop "union_stats set agrees with union" QCheck.(pair ints_arb ints_arb)
      (fun (a, b) ->
        let u, _ = Intset.union_stats (set_of_list a) (set_of_list b) in
        M.equal (to_model u) (M.union (model_of_list a) (model_of_list b)));
    prop "union_stats growth flag = not (subset b a)"
      QCheck.(pair ints_arb ints_arb)
      (fun (a, b) ->
        let _, grew = Intset.union_stats (set_of_list a) (set_of_list b) in
        grew = not (M.subset (model_of_list b) (model_of_list a)));
    prop "filter even" ints_arb (fun l ->
        M.equal
          (to_model (Intset.filter (fun x -> x mod 2 = 0) (set_of_list l)))
          (M.filter (fun x -> x mod 2 = 0) (model_of_list l)));
    prop "of_sorted_array agrees with model" ints_arb (fun l ->
        let m = model_of_list l in
        M.equal (to_model (Intset.of_sorted_array (sorted m))) m);
    prop "filter keeping everything returns its input" ints_arb (fun l ->
        let s = set_of_list l and m = model_of_list l in
        Intset.filter (fun x -> M.mem x m) s == s
        && Intset.filter (fun x -> x mod 3 <> 0 || M.mem x m) s == s);
    prop "hash-consed: equal sets are physically equal however built"
      QCheck.(pair ints_arb ints_arb)
      (fun (a, b) ->
        let sa = set_of_list a and sb = set_of_list b in
        let ma = model_of_list a and mb = model_of_list b in
        (* The reference build: one node per split, no intermediates. *)
        let canon m = Intset.of_sorted_array (sorted m) in
        let even x = x mod 2 = 0 in
        set_of_list (List.rev a) == sa
        && List.fold_left (fun acc i -> Intset.add i acc) Intset.empty
             (List.rev a) == sa
        && canon ma == sa
        && Intset.union sa sb == canon (M.union ma mb)
        && Intset.union sb sa == canon (M.union ma mb)
        && Intset.inter sa sb == canon (M.inter ma mb)
        && Intset.diff sa sb == canon (M.diff ma mb)
        && Intset.diff2 (Intset.union sa sb) sb Intset.empty
           == canon (M.diff ma mb)
        && M.fold Intset.remove mb sa == canon (M.diff ma mb)
        && Intset.filter even sa == canon (M.filter even ma)
        && Intset.hash (Intset.union sa sb) = Intset.hash (Intset.union sb sa));
    (* Sets survive compactions in the cons table: after each step of a
       random walk of unions, differences and filters over a small pool,
       with [Gc.compact] between steps, [equal] (physical) agrees with
       comparing elements, and rebuilding a set from its elements gives
       the pooled set itself.  Each case starts a cons table of its own,
       so a compaction moves only that case's sets, not the sets of
       every earlier case. *)
    QCheck.Test.make ~count:60
      ~name:"equal agrees with elements across compactions"
      QCheck.(
        pair
          (list_of_size Gen.(return 4) ints_arb)
          (list_of_size Gen.(int_bound 12)
             (triple (int_bound 2) (int_bound 3) (int_bound 3))))
      (fun (seeds, steps) ->
        Intset.new_table ();
        let pool = Array.of_list (List.map set_of_list seeds) in
        let model = Array.of_list (List.map model_of_list seeds) in
        let agree () =
          let ok = ref true in
          Array.iteri
            (fun i s ->
              if Intset.elements s <> M.elements model.(i) then ok := false;
              if Intset.of_list (Intset.elements s) != s then ok := false;
              Array.iter
                (fun t ->
                  if
                    Intset.equal s t
                    <> (Intset.elements s = Intset.elements t)
                  then ok := false)
                pool)
            pool;
          !ok
        in
        List.for_all
          (fun (op, i, j) ->
            (match op with
            | 0 ->
              pool.(i) <- Intset.union pool.(i) pool.(j);
              model.(i) <- M.union model.(i) model.(j)
            | 1 ->
              pool.(i) <- Intset.diff pool.(i) pool.(j);
              model.(i) <- M.diff model.(i) model.(j)
            | _ ->
              let keep x = x mod (j + 2) <> 0 in
              pool.(i) <- Intset.filter keep pool.(i);
              model.(i) <- M.filter keep model.(i));
            Gc.compact ();
            agree ())
          steps);
    prop "for_all/exists" ints_arb (fun l ->
        let s = set_of_list l and m = model_of_list l in
        Intset.for_all (fun x -> x >= 0) s = M.for_all (fun x -> x >= 0) m
        && Intset.exists (fun x -> x > 5_000) s = M.exists (fun x -> x > 5_000) m);
  ]

let unit_tests =
  [
    Alcotest.test_case "empty basics" `Quick (fun () ->
        Alcotest.(check bool) "is_empty" true (Intset.is_empty Intset.empty);
        Alcotest.(check int) "cardinal" 0 (Intset.cardinal Intset.empty);
        Alcotest.(check (option int)) "choose" None (Intset.choose_opt Intset.empty));
    Alcotest.test_case "negative elements rejected" `Quick (fun () ->
        Alcotest.check_raises "add" (Invalid_argument "Intset: negative element")
          (fun () -> ignore (Intset.add (-1) Intset.empty));
        Alcotest.check_raises "singleton"
          (Invalid_argument "Intset: negative element") (fun () ->
            ignore (Intset.singleton (-5))));
    Alcotest.test_case "sharing-friendly union returns same set" `Quick (fun () ->
        let s = Intset.of_list [ 1; 2; 3; 1000; 65536 ] in
        Alcotest.(check bool) "s union s == s" true (Intset.union s s == s);
        Alcotest.(check bool)
          "s union empty == s" true
          (Intset.union s Intset.empty == s));
    Alcotest.test_case "union_stats no-growth path preserves sharing" `Quick
      (fun () ->
        let s = Intset.of_list [ 1; 2; 3; 1000; 65536 ] in
        let sub = Intset.of_list [ 2; 1000 ] in
        let u, grew = Intset.union_stats s sub in
        Alcotest.(check bool) "no growth" false grew;
        Alcotest.(check bool) "result is s itself" true (u == s);
        let u2, grew2 = Intset.union_stats s (Intset.singleton 7) in
        Alcotest.(check bool) "growth" true grew2;
        Alcotest.(check bool) "result has 7" true (Intset.mem 7 u2));
    Alcotest.test_case "diff2 sharing and fast paths" `Quick (fun () ->
        let s = Intset.of_list [ 1; 5; 9; 4096 ] in
        Alcotest.(check bool)
          "disjoint subtrahends return s" true
          (Intset.diff2 s (Intset.singleton 2) (Intset.singleton 6) == s);
        Alcotest.(check bool)
          "s \\ s \\ b is empty" true
          (Intset.is_empty (Intset.diff2 s s (Intset.singleton 1)));
        Alcotest.(check bool)
          "s \\ a \\ s is empty" true
          (Intset.is_empty (Intset.diff2 s (Intset.singleton 1) s)));
    Alcotest.test_case "equal/subset short-circuit on shared subtrees" `Quick
      (fun () ->
        (* Two sets sharing a large subtree: [union] preserves sharing, so
           [equal]/[subset] must cut off without descending it.  Observable
           cheaply: physically equal sets answer immediately. *)
        let big = Intset.of_list (List.init 500 (fun i -> i * 7)) in
        let a = Intset.union big (Intset.singleton 999_999) in
        let b = Intset.union big (Intset.singleton 999_999) in
        Alcotest.(check bool) "equal" true (Intset.equal a b);
        Alcotest.(check bool) "subset" true (Intset.subset big a);
        Alcotest.(check bool) "self subset" true (Intset.subset a a));
    Alcotest.test_case "of_sorted_array rejects bad input" `Quick (fun () ->
        let bad = Invalid_argument "Intset.of_sorted_array: not strictly increasing" in
        Alcotest.check_raises "unsorted" bad (fun () ->
            ignore (Intset.of_sorted_array [| 3; 1 |]));
        Alcotest.check_raises "duplicate" bad (fun () ->
            ignore (Intset.of_sorted_array [| 1; 1 |]));
        Alcotest.check_raises "negative"
          (Invalid_argument "Intset: negative element") (fun () ->
            ignore (Intset.of_sorted_array [| -1; 4 |]));
        Alcotest.(check bool) "empty" true
          (Intset.is_empty (Intset.of_sorted_array [||])));
    Alcotest.test_case "equal is physical equality" `Quick (fun () ->
        let a = Intset.of_list [ 5; 70; 900; 12_000 ] in
        let b =
          Intset.remove 1 (Intset.union (Intset.of_list [ 900; 12_000 ])
                             (Intset.of_list [ 1; 70; 5 ]))
        in
        Alcotest.(check bool) "same node" true (a == b);
        Alcotest.(check bool) "equal" true (Intset.equal a b));
    Alcotest.test_case "front cache returns the table's sets" `Quick (fun () ->
        (* Elements no other test uses. *)
        let build base = Intset.of_list (List.init 48 (fun i -> base + (i * 5))) in
        let before = build 11_000_001 in
        Alcotest.(check bool) "rebuilt" true (build 11_000_001 == before);
        (* Enough other sets to evict every front slot [before] took. *)
        for i = 0 to 5_000 do
          ignore
            (Sys.opaque_identity (Intset.of_list [ 11_200_001 + i; 11_900_001 ]))
        done;
        Gc.full_major ();
        Alcotest.(check bool) "rebuilt after evictions and a major collection"
          true
          (build 11_000_001 == before);
        (* A new table empties the front array too: a rebuild is not the
           old node, but it is equal to it. *)
        Intset.new_table ();
        let after = build 11_000_001 in
        Alcotest.(check bool) "rebuilt after a new table" false (after == before);
        Alcotest.(check bool) "equal to the old node" true
          (Intset.equal after before);
        Alcotest.(check bool) "rebuilt again" true (build 11_000_001 == after));
    Alcotest.test_case "cons table: one per solve, kept sets stay equal"
      `Quick (fun () ->
        (* Elements no other test uses. *)
        let build () =
          Intset.of_list (List.init 40 (fun i -> 7_000_003 + (i * 3)))
        in
        let kept = build () in
        Alcotest.(check bool) "rebuilt in the same table" true (build () == kept);
        Intset.new_table ();
        let later = build () in
        Alcotest.(check bool) "rebuilt in a later table" false (later == kept);
        Alcotest.(check bool) "equal across tables" true (Intset.equal kept later);
        Alcotest.(check bool) "and the other way" true (Intset.equal later kept);
        Alcotest.(check bool) "shared again in the later table" true
          (build () == later);
        Alcotest.(check bool) "a different set stays different" false
          (Intset.equal kept (Intset.add 1 later)));
    Alcotest.test_case "cons table: Hashtbl.Make finds a kept set" `Quick
      (fun () ->
        let module Tbl = Hashtbl.Make (Intset) in
        let build i =
          Intset.of_list [ 9_000_001 + i; 9_500_001 + (i * 7); 9_900_001 ]
        in
        let tbl = Tbl.create 16 in
        for i = 0 to 99 do
          Tbl.replace tbl (build i) i
        done;
        Intset.new_table ();
        for i = 0 to 99 do
          Alcotest.(check (option int))
            (Printf.sprintf "set %d rebuilt after a new table" i)
            (Some i)
            (Tbl.find_opt tbl (build i))
        done;
        Tbl.replace tbl (build 0) 0;
        Alcotest.(check int) "a rebuilt key replaces the kept one" 100
          (Tbl.length tbl));
    Alcotest.test_case "cons table: union_stats of a kept set reports no growth"
      `Quick (fun () ->
        let build () =
          Intset.of_list (List.init 48 (fun i -> 12_000_001 + (i * 5)))
        in
        let kept = build () in
        Intset.new_table ();
        let later = build () in
        let u, grew = Intset.union_stats kept later in
        Alcotest.(check bool) "kept grows by its rebuild" false grew;
        Alcotest.(check bool) "and is returned itself" true (u == kept);
        let u, grew = Intset.union_stats later kept in
        Alcotest.(check bool) "the rebuild grows by the kept set" false grew;
        Alcotest.(check bool) "and is returned itself" true (u == later);
        let _, grew = Intset.union_stats kept (Intset.remove 12_000_001 later) in
        Alcotest.(check bool) "kept grows by a later subset" false grew;
        let u, grew = Intset.union_stats kept (Intset.add 3 later) in
        Alcotest.(check bool) "a later superset grows it" true grew;
        Alcotest.(check bool) "to the union" true
          (Intset.equal u (Intset.add 3 kept)));
    Alcotest.test_case "cons table: a solve starts a new table" `Quick
      (fun () ->
        let build () =
          Intset.of_list (List.init 32 (fun i -> 13_000_001 + (i * 11)))
        in
        let before = build () in
        let program =
          Pta_workloads.Workloads.program
            (Option.get (Pta_workloads.Profile.by_name "tiny"))
        in
        let factory = Option.get (Pta_context.Strategies.by_name "1obj") in
        ignore (Pta_solver.Solver.solve program (factory program));
        let after = build () in
        Alcotest.(check bool) "not the node built before the solve" false
          (after == before);
        Alcotest.(check bool) "but equal to it" true (Intset.equal before after));
    Alcotest.test_case "large and boundary values" `Quick (fun () ->
        let big = max_int / 2 in
        let s = Intset.of_list [ 0; 1; big; big - 1 ] in
        Alcotest.(check bool) "mem big" true (Intset.mem big s);
        Alcotest.(check int) "cardinal" 4 (Intset.cardinal s));
  ]

let tests = unit_tests @ List.map QCheck_alcotest.to_alcotest qcheck_tests
