(** Union-find ([Pta_solver.Unify]) and the bucketed priority queue
    ([Pta_solver.Pqueue]): the invariants the solver's online cycle
    elimination leans on — deterministic min-id representatives, path
    compression, and lowest-priority-first popping. *)

module Unify = Pta_solver.Unify
module Pqueue = Pta_solver.Pqueue

(* Naive model: a class is the sorted list of its members; the canonical
   representative is the head (smallest member). *)
module Model = struct
  type t = int list list ref

  let create n : t = ref (List.init n (fun i -> [ i ]))

  let find (m : t) i =
    List.hd (List.find (fun cls -> List.mem i cls) !m)

  let union (m : t) a b =
    let ca = List.find (fun cls -> List.mem a cls) !m in
    let cb = List.find (fun cls -> List.mem b cls) !m in
    if ca != cb then
      m := List.sort_uniq compare (ca @ cb)
           :: List.filter (fun cls -> cls != ca && cls != cb) !m;
    find m a
end

let pairs_arb n ops =
  QCheck.(list_of_size Gen.(int_bound ops)
            (pair (int_bound (n - 1)) (int_bound (n - 1))))

let prop name gen f = QCheck.Test.make ~count:300 ~name gen f

let qcheck_tests =
  [
    prop "find agrees with min-member model" (pairs_arb 64 80) (fun ops ->
        let u = Unify.create () in
        Unify.ensure u 64;
        let m = Model.create 64 in
        List.iter
          (fun (a, b) ->
            let cu = Unify.union u a b in
            let cm = Model.union m a b in
            if cu <> cm then QCheck.Test.fail_reportf
                "union (%d,%d): unify says %d, model says %d" a b cu cm)
          ops;
        List.for_all (fun i -> Unify.find u i = Model.find m i)
          (List.init 64 Fun.id));
    prop "canonical id independent of union order" (pairs_arb 48 60)
      (fun ops ->
        let build ops =
          let u = Unify.create ~capacity:8 () in
          Unify.ensure u 48;
          List.iter (fun (a, b) -> ignore (Unify.union u a b)) ops;
          List.init 48 (Unify.find u)
        in
        build ops = build (List.rev ops));
    prop "find idempotent and same consistent" (pairs_arb 32 40) (fun ops ->
        let u = Unify.create () in
        Unify.ensure u 32;
        List.iter (fun (a, b) -> ignore (Unify.union u a b)) ops;
        List.for_all
          (fun i ->
            let r = Unify.find u i in
            Unify.find u r = r
            && Unify.same u i r
            && List.for_all
                 (fun j -> Unify.same u i j = (Unify.find u i = Unify.find u j))
                 (List.init 32 Fun.id))
          (List.init 32 Fun.id));
    prop "n_merged = length - number of classes" (pairs_arb 40 50) (fun ops ->
        let u = Unify.create () in
        Unify.ensure u 40;
        List.iter (fun (a, b) -> ignore (Unify.union u a b)) ops;
        let classes =
          List.sort_uniq compare (List.init 40 (Unify.find u))
        in
        Unify.n_merged u = Unify.length u - List.length classes);
  ]

let unit_tests =
  [
    Alcotest.test_case "singletons are their own representative" `Quick
      (fun () ->
        let u = Unify.create ~capacity:2 () in
        Unify.ensure u 10;
        Alcotest.(check int) "length" 10 (Unify.length u);
        for i = 0 to 9 do
          Alcotest.(check int) "find i = i" i (Unify.find u i)
        done;
        Alcotest.(check int) "nothing merged" 0 (Unify.n_merged u));
    Alcotest.test_case "representative is the smallest member" `Quick
      (fun () ->
        let u = Unify.create () in
        Unify.ensure u 8;
        Alcotest.(check int) "union 5 7 -> 5" 5 (Unify.union u 5 7);
        Alcotest.(check int) "union 7 3 -> 3" 3 (Unify.union u 7 3);
        Alcotest.(check int) "find 5" 3 (Unify.find u 5);
        Alcotest.(check int) "find 7" 3 (Unify.find u 7);
        (* An unrelated union must not disturb the class. *)
        ignore (Unify.union u 0 1);
        Alcotest.(check int) "find 7 after unrelated union" 3 (Unify.find u 7);
        Alcotest.(check int) "re-union is a no-op" 3 (Unify.union u 5 3);
        Alcotest.(check int) "n_merged" 3 (Unify.n_merged u));
    Alcotest.test_case "find compresses paths" `Quick (fun () ->
        let u = Unify.create () in
        Unify.ensure u 64;
        (* Tournament-merge equal-rank roots: union-by-rank then grows a
           genuinely deep tree (a chain would just build a star).  Some
           node ends up at depth >= 2, and find must shorten its chain. *)
        let stride = ref 1 in
        while !stride < 64 do
          let i = ref 0 in
          while !i + !stride < 64 do
            ignore (Unify.union u !i (!i + !stride));
            i := !i + (2 * !stride)
          done;
          stride := 2 * !stride
        done;
        let deep =
          List.fold_left
            (fun best i -> if Unify.depth u i > Unify.depth u best then i else best)
            0
            (List.init 64 Fun.id)
        in
        let before = Unify.depth u deep in
        Alcotest.(check bool) "some chain has depth >= 2" true (before >= 2);
        ignore (Unify.find u deep);
        let after = Unify.depth u deep in
        Alcotest.(check bool)
          (Printf.sprintf "find shortened the chain (%d -> %d)" before after)
          true
          (after < before);
        Alcotest.(check int) "representative still 0" 0 (Unify.find u deep));
    Alcotest.test_case "ensure growth preserves classes" `Quick (fun () ->
        let u = Unify.create ~capacity:1 () in
        Unify.ensure u 4;
        ignore (Unify.union u 1 3);
        Unify.ensure u 100;
        Alcotest.(check int) "length" 100 (Unify.length u);
        Alcotest.(check int) "old class intact" 1 (Unify.find u 3);
        Alcotest.(check int) "new id is a singleton" 99 (Unify.find u 99);
        (* ensure with a smaller bound is a no-op *)
        Unify.ensure u 10;
        Alcotest.(check int) "length unchanged" 100 (Unify.length u));
  ]

(* ------------------------------------------------------------------ *)
(* Priority queue                                                      *)
(* ------------------------------------------------------------------ *)

let drain q =
  let rec go acc = if Pqueue.is_empty q then List.rev acc else go (Pqueue.pop q :: acc) in
  go []

let pqueue_tests =
  [
    Alcotest.test_case "pq: pops lowest priority first, LIFO within" `Quick
      (fun () ->
        let q = Pqueue.create () in
        Pqueue.push q ~prio:2 20;
        Pqueue.push q ~prio:0 1;
        Pqueue.push q ~prio:1 10;
        Pqueue.push q ~prio:0 2;
        Pqueue.push q ~prio:1 11;
        Alcotest.(check int) "length" 5 (Pqueue.length q);
        Alcotest.(check (list int)) "drain order" [ 2; 1; 11; 10; 20 ] (drain q);
        Alcotest.(check bool) "empty" true (Pqueue.is_empty q));
    Alcotest.test_case "pq: cursor backs up for late low-priority pushes"
      `Quick (fun () ->
        let q = Pqueue.create () in
        Pqueue.push q ~prio:5 50;
        Alcotest.(check int) "pop high" 50 (Pqueue.pop q);
        (* The cursor sits at bucket 5; a lower-priority push must still
           come out first. *)
        Pqueue.push q ~prio:5 51;
        Pqueue.push q ~prio:1 10;
        Alcotest.(check (list int)) "low first" [ 10; 51 ] (drain q));
    Alcotest.test_case "pq: negative priorities clamp to 0" `Quick (fun () ->
        let q = Pqueue.create () in
        Pqueue.push q ~prio:3 30;
        Pqueue.push q ~prio:(-7) 1;
        Alcotest.(check int) "clamped entry pops first" 1 (Pqueue.pop q);
        Alcotest.(check int) "then the real one" 30 (Pqueue.pop q));
    Alcotest.test_case "pq: pop on empty raises, clear resets" `Quick
      (fun () ->
        let q = Pqueue.create () in
        Alcotest.check_raises "empty pop" (Invalid_argument "Pqueue.pop: empty")
          (fun () -> ignore (Pqueue.pop q));
        Pqueue.push q ~prio:0 1;
        Pqueue.push q ~prio:9 2;
        Pqueue.clear q;
        Alcotest.(check bool) "cleared" true (Pqueue.is_empty q);
        Alcotest.(check int) "length 0" 0 (Pqueue.length q);
        Pqueue.push q ~prio:4 7;
        Alcotest.(check int) "usable after clear" 7 (Pqueue.pop q));
    QCheck_alcotest.to_alcotest
      (prop "pq: drain is sorted by priority, respects multiset"
         QCheck.(list_of_size Gen.(int_bound 120)
                   (pair (int_bound 12) (int_bound 1000)))
         (fun entries ->
           let q = Pqueue.create () in
           List.iter (fun (p, v) -> Pqueue.push q ~prio:p (p * 10_000 + v))
             entries;
           let out = drain q in
           let prios = List.map (fun v -> v / 10_000) out in
           List.sort compare prios = prios
           && List.sort compare out
              = List.sort compare
                  (List.map (fun (p, v) -> (p * 10_000) + v) entries)));
  ]

(* ------------------------------------------------------------------ *)
(* Model check                                                         *)
(* ------------------------------------------------------------------ *)

(* Model: the queue as a multiset of (prio, entry) pairs.  [pop] must
   return an entry of the minimum priority present, and [clear] must
   leave the queue empty and reusable. *)
let model_tests =
  let min_prio model = List.fold_left (fun m (p, _) -> min m p) max_int model in
  let remove_one model pair =
    let rec go acc = function
      | [] -> None
      | x :: rest when x = pair -> Some (List.rev_append acc rest)
      | x :: rest -> go (x :: acc) rest
    in
    go [] model
  in
  [
    QCheck_alcotest.to_alcotest
      (prop "pq: push/pop/clear interleavings keep the priority bounds"
         QCheck.(
           list_of_size
             Gen.(int_bound 160)
             (frequency
                [
                  ( 8,
                    map
                      (fun (p, v) -> `Push (p, v))
                      (pair (int_bound 12) (int_bound 1000)) );
                  (8, always `Pop);
                  (1, always `Clear);
                ]))
         (fun ops ->
           let q = Pqueue.create () in
           let model = ref [] in
           let uid = ref 0 in
           List.for_all
             (fun op ->
               Pqueue.length q = List.length !model
               && Pqueue.is_empty q = (!model = [])
               &&
               match op with
               | `Push (p, _) ->
                 incr uid;
                 Pqueue.push q ~prio:p !uid;
                 model := (p, !uid) :: !model;
                 true
               | `Pop ->
                 if !model = [] then true
                 else
                   let v = Pqueue.pop q in
                   let p = min_prio !model in
                   (match remove_one !model (p, v) with
                   | Some m ->
                     model := m;
                     true
                   | None -> false)
               | `Clear ->
                 Pqueue.clear q;
                 model := [];
                 true)
             ops
           && Pqueue.length q = List.length !model));
  ]

let tests =
  unit_tests
  @ List.map QCheck_alcotest.to_alcotest qcheck_tests
  @ pqueue_tests @ model_tests
