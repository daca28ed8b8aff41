(** Shared helpers for the test suites. *)

module Ir = Pta_ir.Ir

let program src = Pta_frontend.Frontend.program_of_string ~file:"<test>" src

let contains_substring s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

let run ?(strategy = "1obj") src =
  let p = program src in
  let factory =
    match Pta_context.Strategies.by_name strategy with
    | Some f -> f
    | None -> Alcotest.failf "unknown strategy %s" strategy
  in
  Pta_solver.Solver.solve p (factory p)

(* Names of allocation sites ("<Class>/<label>") a variable may point to,
   context-insensitively, sorted. *)
let points_to_names solver cls meth arity var_name =
  let p = Pta_solver.Solver.program solver in
  let m =
    match Ir.Program.find_meth p cls meth arity with
    | Some m -> m
    | None -> Alcotest.failf "no method %s.%s/%d" cls meth arity
  in
  let var =
    let found = ref None in
    Ir.Program.iter_vars p (fun v info ->
        if Ir.Meth_id.equal info.Ir.var_owner m && String.equal info.Ir.var_name var_name
        then found := Some v);
    match !found with
    | Some v -> v
    | None -> Alcotest.failf "no variable %s in %s.%s" var_name cls meth
  in
  Pta_solver.Intset.fold
    (fun heap acc ->
      let hi = Ir.Program.heap_info p (Ir.Heap_id.of_int heap) in
      let owner = Ir.Program.meth_info p hi.Ir.heap_owner in
      Printf.sprintf "%s.%s:%s"
        (Ir.Program.type_name p owner.Ir.meth_owner)
        owner.Ir.meth_name
        (Ir.Program.type_name p hi.Ir.heap_type)
      :: acc)
    (Pta_solver.Solver.ci_var_points_to solver var)
    []
  |> List.sort_uniq compare

let check_points_to ?strategy src cls meth arity var expected =
  let solver = run ?strategy src in
  Alcotest.(check (list string))
    (Printf.sprintf "%s.%s:%s" cls meth var)
    (List.sort_uniq compare expected)
    (points_to_names solver cls meth arity var)

(* Two engine paths that no preset exercises, kept under the
   differential and fuzz oracles as algebra expressions (they resolve
   like preset names):
   - [mixed_depth] dispatches callees to shapes of different depths:
     arity-1 methods get 2obj+H, except the [m*]-named ones, which get
     1obj like every other method.  The differential and fuzz suites
     check that these globs split their programs.
   - [if_site_table] is S-2obj+H whose Record inspects the incoming
     context's form: an allocation under a static-call context (an
     invocation site in second position) takes that site as its heap
     context. *)
let mixed_depth = {|per_method("*.m*/1": obj 1, "*/1": obj 2 1, obj 1)|}

let if_site_table =
  "raw(3, [if_site(1, caller 1, caller 0)], [recv, hctx 0, *], [caller 0, \
   site, caller 1])"

let extra_terms = [ mixed_depth; if_site_table ]

let resolve name =
  match Pta_context.Strategies.resolve name with
  | Ok f -> f
  | Error _ -> Alcotest.failf "unknown strategy %s" name

(* The depths of the callee contexts on a solve's call edges. *)
let callee_depths solver =
  let depths = ref [] in
  Pta_solver.Solver.iter_call_edges solver (fun _ _ _ ectx ->
      depths :=
        Array.length (Pta_solver.Solver.ctx_value solver ectx) :: !depths);
  List.sort_uniq compare !depths

(* The context depths a strategy picks over a program's non-entry
   methods, read off the shape of [merge_static] under the initial
   context. *)
let shape_depths program name =
  let s = resolve name program in
  let entries = Ir.Program.entries program in
  let depths = ref [] in
  Ir.Program.iter_meths program (fun m _ ->
      if not (List.exists (Ir.Meth_id.equal m) entries) then
        depths :=
          Array.length
            (s.Pta_context.Strategy.merge_static ~invo:(Ir.Invo_id.of_int 0)
               ~callee:m ~ctx:s.Pta_context.Strategy.initial_ctx)
          :: !depths);
  List.sort_uniq compare !depths
