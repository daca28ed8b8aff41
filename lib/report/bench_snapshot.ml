module Json = Pta_obs.Json
module Census = Pta_obs.Census

let current_schema_version = 6

type cell = {
  benchmark : string;
  analysis : string;
  timed_out : bool;
  time_s : float;
  iterations : int;
  nodes : int option;
  peak_heap_words : int option;
  heap_components : Census.component list;
}

type t = {
  timeout_s : float;
  pointsto : Json.t option;
  cells : cell list;
}

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let cell_to_json c =
  Json.Obj
    ([
       ("benchmark", Json.String c.benchmark);
       ("analysis", Json.String c.analysis);
       ("timed_out", Json.Bool c.timed_out);
       ("time_s", Json.Float c.time_s);
       ("iterations", Json.Int c.iterations);
     ]
    @ (match c.nodes with None -> [] | Some n -> [ ("nodes", Json.Int n) ])
    @ (match c.peak_heap_words with
      | None -> []
      | Some w -> [ ("peak_heap_words", Json.Int w) ])
    @ (match c.heap_components with
      | [] -> []
      | cs -> [ ("heap_components", Census.components_to_json cs) ]))

let to_json t =
  Json.Obj
    ([
       ("schema_version", Json.Int current_schema_version);
       ("timeout_s", Json.Float t.timeout_s);
     ]
    @ (match t.pointsto with None -> [] | Some v -> [ ("pointsto", v) ])
    @ [ ("cells", Json.List (List.map cell_to_json t.cells)) ])

let ( let* ) r f = Result.bind r f

let field json name conv =
  match Option.bind (Json.member name json) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or mistyped %S" name)

let cell_of_json json =
  let* benchmark = field json "benchmark" Json.to_str in
  let* analysis = field json "analysis" Json.to_str in
  let* timed_out =
    field json "timed_out" (function Json.Bool b -> Some b | _ -> None)
  in
  let* time_s = field json "time_s" Json.to_float in
  let* iterations = field json "iterations" Json.to_int in
  let opt name conv = Option.bind (Json.member name json) conv in
  let* heap_components =
    match Json.member "heap_components" json with
    | None -> Ok []
    | Some j -> Census.components_of_json_list j
  in
  Ok
    {
      benchmark;
      analysis;
      timed_out;
      time_s;
      iterations;
      nodes = opt "nodes" Json.to_int;
      peak_heap_words = opt "peak_heap_words" Json.to_int;
      heap_components;
    }

let of_json json =
  Result.map_error
    (fun e -> "bench snapshot: " ^ e)
    (let* v = field json "schema_version" Json.to_int in
     let* () =
       if v = current_schema_version then Ok ()
       else
         Error
           (Printf.sprintf
              "unsupported schema_version %d (this build reads only %d; \
               regenerate the file)"
              v current_schema_version)
     in
     let* timeout_s = field json "timeout_s" Json.to_float in
     let* cell_list = field json "cells" Json.to_list in
     let* cells =
       List.fold_right
         (fun j acc ->
           let* acc = acc in
           let* c = cell_of_json j in
           Ok (c :: acc))
         cell_list (Ok [])
     in
     Ok { timeout_s; pointsto = Json.member "pointsto" json; cells })

let of_string s =
  match Json.of_string s with
  | Ok json -> of_json json
  | Error e -> Error (Printf.sprintf "bench snapshot: %s" e)

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

type thresholds = {
  time_tol_pct : float;
  heap_tol_pct : float;
  heap_component_tol_pct : float;
  min_time_s : float;
}

let default_thresholds =
  {
    time_tol_pct = 15.;
    heap_tol_pct = 10.;
    heap_component_tol_pct = 25.;
    min_time_s = 0.5;
  }

type verdict =
  | Time_regression of { base_s : float; cur_s : float; pct : float }
  | Heap_regression of { base_w : int; cur_w : int; pct : float }
  | Component_regression of Census.breach
  | New_timeout
  | Fixed_timeout
  | Missing_cell
  | New_cell

let verdict_is_regression = function
  | Time_regression _ | Heap_regression _ | Component_regression _
  | New_timeout | Missing_cell ->
    true
  | Fixed_timeout | New_cell -> false

type delta = {
  d_benchmark : string;
  d_analysis : string;
  d_base : cell option;
  d_cur : cell option;
  verdicts : verdict list;
}

type report = {
  thresholds : thresholds;
  deltas : delta list;  (** one per (benchmark, analysis), baseline order *)
}

let regressions r =
  List.filter (fun d -> List.exists verdict_is_regression d.verdicts) r.deltas

let has_regression r = regressions r <> []

let pct_change base cur =
  if base = 0. then if cur = 0. then 0. else infinity
  else (cur -. base) /. base *. 100.


let compare_cells th (base : cell) (cur : cell) =
  match (base.timed_out, cur.timed_out) with
  | false, true -> [ New_timeout ]
  | true, false -> [ Fixed_timeout ]
  | true, true -> []
  | false, false ->
    let time_v =
      (* Cells faster than [min_time_s] in the baseline are pure noise:
         skip the relative-time check on them. *)
      if base.time_s < th.min_time_s then []
      else
        let pct = pct_change base.time_s cur.time_s in
        if pct > th.time_tol_pct then
          [ Time_regression { base_s = base.time_s; cur_s = cur.time_s; pct } ]
        else []
    in
    let heap_v =
      match (base.peak_heap_words, cur.peak_heap_words) with
      | Some b, Some c when b > 0 ->
        let pct = pct_change (float_of_int b) (float_of_int c) in
        if pct > th.heap_tol_pct then
          [ Heap_regression { base_w = b; cur_w = c; pct } ]
        else []
      | _ -> []  (* a timed-out side has no peak: nothing to gate on *)
    in
    let comp_v =
      (* A cell without a census has an empty list, and the gate is
         silent — same lenient posture as the heap gate. *)
      List.map
        (fun b -> Component_regression b)
        (Census.compare_components ~tol_pct:th.heap_component_tol_pct
           ~baseline:base.heap_components ~current:cur.heap_components)
    in
    time_v @ heap_v @ comp_v

let compare ?(thresholds = default_thresholds) ~baseline ~current () =
  let key c = (c.benchmark, c.analysis) in
  let cur_tbl = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace cur_tbl (key c) c) current.cells;
  let seen = Hashtbl.create 64 in
  let from_base =
    List.map
      (fun b ->
        Hashtbl.replace seen (key b) ();
        let cur = Hashtbl.find_opt cur_tbl (key b) in
        let verdicts =
          match cur with
          | None -> [ Missing_cell ]
          | Some c -> compare_cells thresholds b c
        in
        {
          d_benchmark = b.benchmark;
          d_analysis = b.analysis;
          d_base = Some b;
          d_cur = cur;
          verdicts;
        })
      baseline.cells
  in
  let fresh =
    List.filter_map
      (fun c ->
        if Hashtbl.mem seen (key c) then None
        else
          Some
            {
              d_benchmark = c.benchmark;
              d_analysis = c.analysis;
              d_base = None;
              d_cur = Some c;
              verdicts = [ New_cell ];
            })
      current.cells
  in
  { thresholds; deltas = from_base @ fresh }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let verdict_label = function
  | Time_regression { pct; _ } -> Printf.sprintf "TIME +%.1f%%" pct
  | Heap_regression { pct; _ } -> Printf.sprintf "HEAP +%.1f%%" pct
  | Component_regression b ->
    Printf.sprintf "HEAP[%s] +%.1f%%" b.Census.b_name b.Census.b_pct
  | New_timeout -> "NEW TIMEOUT"
  | Fixed_timeout -> "fixed timeout"
  | Missing_cell -> "MISSING"
  | New_cell -> "new cell"

let cell_time = function
  | None -> "-"
  | Some c ->
    if c.timed_out then Printf.sprintf "T/O@%.1fs" c.time_s
    else Printf.sprintf "%.2f" c.time_s

let cell_iters = function None -> "-" | Some c -> string_of_int c.iterations

let cell_heap c =
  match Option.bind c (fun c -> c.peak_heap_words) with
  | None -> "-"
  | Some w -> Printf.sprintf "%.1fM" (float_of_int w /. 1e6)

let delta_status d =
  if d.verdicts = [] then "ok"
  else String.concat ", " (List.map verdict_label d.verdicts)

let pp_report ppf r =
  let th = r.thresholds in
  Format.fprintf ppf
    "thresholds: time +%.0f%%, peak heap +%.0f%%, heap component +%.0f%% \
     (cells under %.2fs skipped for time)@."
    th.time_tol_pct th.heap_tol_pct th.heap_component_tol_pct th.min_time_s;
  let t =
    Table.create
      ~headers:
        [ "cell"; "base s"; "cur s"; "base iters"; "cur iters"; "base heap";
          "cur heap"; "status" ]
  in
  List.iter
    (fun d ->
      Table.add_row t
        [
          d.d_benchmark ^ "/" ^ d.d_analysis; cell_time d.d_base;
          cell_time d.d_cur; cell_iters d.d_base; cell_iters d.d_cur;
          cell_heap d.d_base; cell_heap d.d_cur; delta_status d;
        ])
    r.deltas;
  Format.pp_print_string ppf (Table.render t);
  match regressions r with
  | [] -> Format.fprintf ppf "no regressions@."
  | reg ->
    Format.fprintf ppf "%d regression(s): %s@." (List.length reg)
      (String.concat ", "
         (List.map (fun d -> d.d_benchmark ^ "/" ^ d.d_analysis) reg))
