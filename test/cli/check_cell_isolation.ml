(* Checks that one cell reports the same iterations, supergraph nodes
   and peak heap in two snapshots, e.g. one where it ran alone and one
   where it ran after a larger cell.

   usage: check_cell_isolation A.json B.json BENCHMARK ANALYSIS *)

module Snapshot = Pta_report.Bench_snapshot

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let cell path benchmark analysis =
  match
    Snapshot.of_string (In_channel.with_open_bin path In_channel.input_all)
  with
  | Error e -> fail "%s: %s" path e
  | Ok t -> (
    match
      List.find_opt
        (fun (c : Snapshot.cell) ->
          c.benchmark = benchmark && c.analysis = analysis)
        t.Snapshot.cells
    with
    | Some c -> (c.iterations, c.nodes, c.peak_heap_words)
    | None -> fail "%s: no cell %s/%s" path benchmark analysis)

let () =
  match Sys.argv with
  | [| _; a; b; benchmark; analysis |] ->
    let show (i, n, p) =
      let opt = Option.fold ~none:"-" ~some:string_of_int in
      Printf.sprintf "iterations %d, nodes %s, peak heap %s words" i (opt n)
        (opt p)
    in
    let ca = cell a benchmark analysis and cb = cell b benchmark analysis in
    if ca <> cb then
      fail "%s/%s differs:\n  %s: %s\n  %s: %s" benchmark analysis a (show ca)
        b (show cb)
    else
      Printf.printf "%s/%s is order-independent: %s\n" benchmark analysis
        (show ca)
  | _ -> fail "usage: check_cell_isolation A.json B.json BENCHMARK ANALYSIS"
