module Ir = Pta_ir.Ir
module Hierarchy = Pta_ir.Hierarchy
module Solver = Pta_solver.Solver
module Intset = Pta_solver.Intset
open Ir

type verdict =
  | Safe
  | May_fail of Heap_id.t list

type site = {
  in_meth : Meth_id.t;
  cast_type : Type_id.t;
  source : Var_id.t;
  verdict : verdict;
}

let incompatible program hierarchy ~cast_type heaps =
  Intset.fold
    (fun heap acc ->
      let heap = Heap_id.of_int heap in
      let heap_type = (Program.heap_info program heap).heap_type in
      if Hierarchy.subtype hierarchy ~sub:heap_type ~sup:cast_type then acc
      else heap :: acc)
    heaps []
  |> List.rev

let analyze solver =
  let program = Solver.program solver in
  let hierarchy = Solver.hierarchy solver in
  let reachable = Solver.reachable_meths solver in
  let sites = ref [] in
  Meth_id.Set.iter
    (fun meth ->
      let mi = Program.meth_info program meth in
      iter_instrs
        (fun instr ->
          match instr with
          | Cast { source; cast_type; _ } ->
            let verdict =
              match
                incompatible program hierarchy ~cast_type
                  (Solver.ci_var_points_to solver source)
              with
              | [] -> Safe
              | ws -> May_fail ws
            in
            sites := { in_meth = meth; cast_type; source; verdict } :: !sites
          | Alloc _ | Move _ | Load _ | Store _ | Virtual_call _ | Static_call _
          | Static_load _ | Static_store _ | Throw _ -> ())
        mi.body)
    reachable;
  List.sort
    (fun a b ->
      match Meth_id.compare a.in_meth b.in_meth with
      | 0 -> Var_id.compare a.source b.source
      | c -> c)
    !sites

let may_fail_count sites =
  List.length
    (List.filter (fun s -> match s.verdict with May_fail _ -> true | _ -> false) sites)
