(* Checks a `pointsto bench propbench --benchmarks tiny --analyses insens`
   run: the printed table and the written snapshot must each hold exactly
   one tiny/insens cell, proving both flags overrode the propagation
   grid's default cyclic x analysis spread.  The cell's census must be
   the one `pointsto heapmap --format json` writes for the same solve
   (HEAPMAP: gen tiny under insens): a grid cell measures the analysis
   the way every other reader does.

   usage: check_propbench STDOUT SNAPSHOT HEAPMAP *)

module Snapshot = Pta_report.Bench_snapshot
module Census = Pta_obs.Census
module Json = Pta_obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let () =
  let out_path, snap_path, heapmap_path =
    match Sys.argv with
    | [| _; o; s; h |] -> (o, s, h)
    | _ -> fail "usage: check_propbench STDOUT SNAPSHOT HEAPMAP"
  in
  (* Table rows sit between the dashed header rule and the next blank
     line. *)
  let rec rows acc in_table = function
    | [] -> List.rev acc
    | line :: rest ->
      if (not in_table) && String.length line > 0 && line.[0] = '-' then
        rows acc true rest
      else if in_table && String.trim line = "" then List.rev acc
      else if in_table then rows (line :: acc) true rest
      else rows acc false rest
  in
  (match rows [] false (String.split_on_char '\n' (read_file out_path)) with
  | [ row ] ->
    (match String.split_on_char ' ' row |> List.filter (( <> ) "") with
    | "tiny" :: "insens" :: _ -> ()
    | _ -> fail "%s: table row is not tiny/insens: %S" out_path row)
  | rs -> fail "%s: expected 1 table row, got %d" out_path (List.length rs));
  match Snapshot.of_string (read_file snap_path) with
  | Error e -> fail "%s: %s" snap_path e
  | Ok { Snapshot.cells = [ c ]; _ }
    when c.Snapshot.benchmark = "tiny" && c.Snapshot.analysis = "insens" ->
    let heapmap =
      match
        Result.map (Json.member "components")
          (Json.of_string (read_file heapmap_path))
      with
      | Ok (Some comps) -> (
        match Census.components_of_json_list comps with
        | Ok comps -> comps
        | Error e -> fail "%s: %s" heapmap_path e)
      | Ok None -> fail "%s: no \"components\"" heapmap_path
      | Error e -> fail "%s: %s" heapmap_path e
    in
    let show comps =
      String.concat ", "
        (List.map
           (fun (c : Census.component) ->
             Printf.sprintf "%s %d/%d" c.Census.comp_name
               c.Census.retained_words c.Census.unshared_words)
           comps)
    in
    if c.Snapshot.heap_components <> heapmap then
      fail
        "census (retained/unshared words) differs from heapmap's:\n\
         cell:    %s\n\
         heapmap: %s"
        (show c.Snapshot.heap_components) (show heapmap);
    print_endline
      "propbench honours --benchmarks and --analyses: 1 row, 1 cell, census = \
       heapmap"
  | Ok t ->
    fail "%s: expected the single cell tiny/insens, got %d cell(s)" snap_path
      (List.length t.Snapshot.cells)
