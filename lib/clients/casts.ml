module Ir = Pta_ir.Ir
module Hierarchy = Pta_ir.Hierarchy
module Intset = Pta_solver.Intset
open Ir

let incompatible program hierarchy ~cast_type heaps =
  Intset.fold
    (fun heap acc ->
      let heap = Heap_id.of_int heap in
      let heap_type = (Program.heap_info program heap).heap_type in
      if Hierarchy.subtype hierarchy ~sub:heap_type ~sup:cast_type then acc
      else heap :: acc)
    heaps []
  |> List.rev
