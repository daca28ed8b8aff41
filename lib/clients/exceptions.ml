module Ir = Pta_ir.Ir
module Solver = Pta_solver.Solver
module Intset = Pta_solver.Intset
open Ir

type escape = {
  meth : Meth_id.t;
  exceptions : Heap_id.t list;
}

let per_meth_heapsets solver =
  let acc : Intset.t Meth_id.Tbl.t = Meth_id.Tbl.create 64 in
  Solver.iter_throw_points_to solver (fun meth _ hobjs ->
      if not (Intset.is_empty hobjs) then begin
        let heaps =
          Intset.fold
            (fun hobj set -> Intset.add (Heap_id.to_int (Solver.hobj_heap solver hobj)) set)
            hobjs Intset.empty
        in
        let existing =
          Option.value ~default:Intset.empty (Meth_id.Tbl.find_opt acc meth)
        in
        (* Contexts of one method mostly rethrow the same objects; the
           fused growth test skips the table write when nothing is new. *)
        let merged, grew = Intset.union_stats existing heaps in
        if grew then Meth_id.Tbl.replace acc meth merged
      end);
  acc

let escapes solver =
  per_meth_heapsets solver |> fun tbl ->
  Meth_id.Tbl.fold
    (fun meth heaps out ->
      { meth; exceptions = List.map Heap_id.of_int (Intset.elements heaps) } :: out)
    tbl []
  |> List.sort (fun a b -> Meth_id.compare a.meth b.meth)

let uncaught_at_entries solver escapes =
  let entries = Program.entries (Solver.program solver) in
  List.fold_left
    (fun acc e ->
      if List.exists (Meth_id.equal e.meth) entries then
        List.fold_left (fun acc h -> Intset.add (Heap_id.to_int h) acc) acc
          e.exceptions
      else acc)
    Intset.empty escapes
  |> Intset.elements |> List.map Heap_id.of_int
