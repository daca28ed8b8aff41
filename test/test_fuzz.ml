(** Fuzz testing: generate random (well-formed) IR programs directly
    through the Builder API and check, for random strategies, that

    - the native solver and the Datalog reference implementation agree
      exactly (differential), and
    - concrete execution stays within the analysis (soundness).

    This explores program shapes the hand-written battery and the
    structured workload generator would never produce. *)

module Ir = Pta_ir.Ir
module Rng = Pta_workloads.Rng
open Ir

(* Build a random program: a small class forest, methods with random
   bodies over the locally visible variables, and a static main. *)
let random_program (rng : Rng.t) : Program.t =
  let b = Builder.create () in
  let object_ty =
    Builder.add_type b ~name:"Object" ~kind:Class ~superclass:None ~interfaces:[]
  in
  let n_types = 2 + Rng.int rng 3 in
  let types = Array.make n_types object_ty in
  for i = 0 to n_types - 1 do
    let superclass =
      if i = 0 || Rng.bool rng 0.4 then object_ty else types.(Rng.int rng i)
    in
    types.(i) <-
      Builder.add_type b
        ~name:(Printf.sprintf "C%d" i)
        ~kind:Class ~superclass:(Some superclass) ~interfaces:[]
  done;
  let n_fields = 1 + Rng.int rng 3 in
  let fields =
    Array.init n_fields (fun i ->
        Builder.add_field b
          ~owner:types.(Rng.int rng n_types)
          ~name:(Printf.sprintf "f%d" i)
          ~static:false)
  in
  let n_sfields = Rng.int rng 2 in
  let sfields =
    Array.init n_sfields (fun i ->
        Builder.add_field b
          ~owner:types.(Rng.int rng n_types)
          ~name:(Printf.sprintf "g%d" i)
          ~static:true)
  in
  (* Declare methods: per class, a few virtual methods from a small
     signature pool (name+arity 1), so overriding happens naturally. *)
  let sig_pool = [ "ma"; "mb"; "mc" ] in
  let meths = ref [] in
  Array.iteri
    (fun _ ty ->
      List.iter
        (fun name ->
          if Rng.bool rng 0.6 then
            meths :=
              (Builder.add_meth b ~owner:ty ~name ~arity:1 ~static:false, ty)
              :: !meths)
        sig_pool)
    types;
  let statics = ref [] in
  for i = 0 to Rng.int rng 2 do
    statics :=
      Builder.add_meth b
        ~owner:types.(Rng.int rng n_types)
        ~name:(Printf.sprintf "s%d" i)
        ~arity:1 ~static:true
      :: !statics
  done;
  let main =
    Builder.add_meth b ~owner:types.(0) ~name:"main" ~arity:0 ~static:true
  in
  Builder.add_entry b main;
  let all_meths = main :: List.map fst !meths @ !statics in
  (* Bodies: random instruction sequences over fresh locals. *)
  List.iter
    (fun m ->
      let is_main = Meth_id.equal m main in
      let n_vars = 3 + Rng.int rng 3 in
      let vars =
        Array.init n_vars (fun i ->
            Builder.add_var b ~owner:m ~name:(Printf.sprintf "v%d" i))
      in
      if not is_main then Builder.set_formals b m [ vars.(0) ];
      let var () = vars.(Rng.int rng n_vars) in
      let receiver () =
        match Builder.this_var b m with
        | Some this when Rng.bool rng 0.3 -> this
        | _ -> var ()
      in
      let n_instrs = 2 + Rng.int rng 5 in
      let heap_count = ref 0 and invo_count = ref 0 in
      let instr () : instr =
        match Rng.int rng 10 with
        | 0 | 1 ->
          let ty = types.(Rng.int rng n_types) in
          let label = Printf.sprintf "h%d" !heap_count in
          incr heap_count;
          Alloc { target = var (); heap = Builder.add_heap b ~owner:m ~label ~ty }
        | 2 -> Move { target = var (); source = receiver () }
        | 3 ->
          Load { target = var (); base = receiver (); field = fields.(Rng.int rng n_fields) }
        | 4 ->
          Store { base = receiver (); field = fields.(Rng.int rng n_fields); source = var () }
        | 5 ->
          Cast
            {
              target = var ();
              source = receiver ();
              cast_type = types.(Rng.int rng n_types);
            }
        | 6 ->
          let label = Printf.sprintf "i%d" !invo_count in
          incr invo_count;
          Virtual_call
            {
              base = receiver ();
              signature =
                Builder.intern_sig b
                  ~name:(List.nth sig_pool (Rng.int rng (List.length sig_pool)))
                  ~arity:1;
              invo = Builder.add_invo b ~owner:m ~label;
              args = [ var () ];
              ret_target = (if Rng.bool rng 0.7 then Some (var ()) else None);
            }
        | 7 | 8 -> (
          match !statics with
          | [] -> Move { target = var (); source = receiver () }
          | ss ->
            let label = Printf.sprintf "i%d" !invo_count in
            incr invo_count;
            Static_call
              {
                callee = List.nth ss (Rng.int rng (List.length ss));
                invo = Builder.add_invo b ~owner:m ~label;
                args = [ var () ];
                ret_target = (if Rng.bool rng 0.7 then Some (var ()) else None);
              })
        | _ ->
          if n_sfields = 0 then Move { target = var (); source = receiver () }
          else if Rng.bool rng 0.5 then
            Static_load { target = var (); field = sfields.(Rng.int rng n_sfields) }
          else
            Static_store { field = sfields.(Rng.int rng n_sfields); source = var () }
      in
      let rec code depth : code =
        if depth > 2 then Instr (instr ())
        else
          match Rng.int rng 8 with
          | 0 -> Branch (code (depth + 1), code (depth + 1))
          | 1 -> Loop (code (depth + 1))
          | 2 when depth < 2 ->
            let catch_var = Builder.add_var b ~owner:m ~name:"exc" in
            Try
              ( Seq [ code (depth + 1); Instr (Throw { source = var () }) ],
                [
                  {
                    catch_type = types.(Rng.int rng n_types);
                    catch_var;
                    handler_body = code (depth + 1);
                  };
                ] )
          | _ -> Instr (instr ())
      in
      let body = Seq (List.init n_instrs (fun _ -> code 0)) in
      let body =
        if Rng.bool rng 0.7 then
          Seq [ body; Instr (Move { target = Builder.ensure_ret_var b m; source = var () }) ]
        else body
      in
      Builder.set_body b m body)
    all_meths;
  Builder.freeze b

let strategies_to_try =
  [ "insens"; "1call"; "1call+H"; "1obj"; "SA-1obj"; "SB-1obj"; "2obj+H";
    "U-2obj+H"; "S-2obj+H"; "2type+H"; "3obj+2H"; "X-freemix"; "CS";
    "CS-2obj+H" ]
  @ Helpers.extra_terms

let fuzz_differential_test () =
  for seed = 1 to 30 do
    let rng = Rng.create (Int64.of_int seed) in
    let program = random_program rng in
    let strat_name =
      List.nth strategies_to_try (Rng.int rng (List.length strategies_to_try))
    in
    let strategy = Helpers.resolve strat_name program in
    let solver = Pta_solver.Solver.solve program strategy in
    let reference = Pta_refimpl.Refimpl.run program strategy in
    let s_vpt, s_cg, s_reach, s_throws = Test_differential.solver_facts solver in
    let r_vpt, r_cg, r_reach, r_throws = Test_differential.ref_facts reference in
    let check what a b =
      if not (Test_differential.S.equal a b) then
        Alcotest.failf "fuzz seed %d (%s): %s" seed strat_name
          (Test_differential.diff_msg what a b)
    in
    check "vpt" s_vpt r_vpt;
    check "cg" s_cg r_cg;
    check "reach" s_reach r_reach;
    check "throws" s_throws r_throws
  done

(* The mixed-depth term is only worth fuzzing where its globs send the
   methods of a program to both shapes.  Which of them a random program
   reaches is up to the seed; the differential suite checks reached
   callees on its battery. *)
let fuzz_split_test () =
  List.iter
    (fun seed ->
      let program = random_program (Rng.create (Int64.of_int seed)) in
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: shape depths" seed)
        [ 1; 2 ]
        (Helpers.shape_depths program Helpers.mixed_depth))
    (List.init 30 (fun i -> i + 1) @ List.init 25 (fun i -> i + 41))

let fuzz_soundness_test () =
  for seed = 41 to 65 do
    let rng = Rng.create (Int64.of_int seed) in
    let program = random_program rng in
    let strat_name =
      List.nth strategies_to_try (Rng.int rng (List.length strategies_to_try))
    in
    let strategy = Helpers.resolve strat_name program in
    let solver = Pta_solver.Solver.solve program strategy in
    let trace = Pta_interp.Interp.run ~seed:(Int64.of_int (seed * 7)) program in
    (* Cut-shortcut strategies carry no facts for vars inside summarized
       methods (flows are threaded caller-side); see test_soundness. *)
    let summarized =
      match strategy.Pta_context.Strategy.shortcut with
      | None -> Ir.Meth_id.Set.empty
      | Some plan -> Pta_context.Shortcut.summarized plan
    in
    List.iter
      (fun (var, heap) ->
        if
          (not
             (Ir.Meth_id.Set.mem
                (Ir.Program.var_info program var).Ir.var_owner summarized))
          && not
               (Pta_solver.Intset.mem (Ir.Heap_id.to_int heap)
                  (Pta_solver.Solver.ci_var_points_to solver var))
        then
          Alcotest.failf "fuzz seed %d (%s): unsound var fact %s -> %s" seed
            strat_name
            (Ir.Program.var_qualified_name program var)
            (Ir.Program.heap_name program heap))
      (Pta_interp.Interp.observed_var_points trace);
    List.iter
      (fun (invo, meth) ->
        if
          not
            (Ir.Meth_id.Set.mem meth (Pta_solver.Solver.invo_targets solver invo))
        then
          Alcotest.failf "fuzz seed %d (%s): unsound call edge" seed strat_name)
      (Pta_interp.Interp.observed_call_edges trace)
  done

let tests =
  [
    Alcotest.test_case "random programs: solver = reference" `Slow
      fuzz_differential_test;
    Alcotest.test_case "random programs: mixed-depth term splits them" `Slow
      fuzz_split_test;
    Alcotest.test_case "random programs: execution within analysis" `Slow
      fuzz_soundness_test;
  ]
