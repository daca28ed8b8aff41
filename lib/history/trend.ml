module Snapshot = Pta_report.Bench_snapshot
module Trend_page = Pta_report.Trend_page

type metric = Time | Heap | Heap_component of string

let metric_name = function
  | Time -> "time"
  | Heap -> "heap"
  | Heap_component name -> "heap:" ^ name

let metric_of_string = function
  | "time" -> Ok Time
  | "heap" -> Ok Heap
  | s when String.length s > 5 && String.sub s 0 5 = "heap:" ->
    Ok (Heap_component (String.sub s 5 (String.length s - 5)))
  | s ->
    Error
      (Printf.sprintf
         "unknown metric %S (expected time, heap or heap:<component>)" s)

type params = {
  window : int;
  min_points : int;
  mad_k : float;
  tolerances : Snapshot.thresholds;
}

let default_params =
  {
    window = 5;
    min_points = 3;
    mad_k = 4.0;
    tolerances = Snapshot.default_thresholds;
  }

type stats = { median : float; mad : float; threshold : float }

(* Components smaller than this (words) are skipped by the trend test:
   a bookkeeping table growing from 50 to 80 words is not a memory
   regression worth a red mark. *)
let heap_component_noise_words = 1024.

(* Consistency constant for the normal distribution: 1.4826 * MAD
   estimates the standard deviation. *)
let mad_scale = 1.4826

let median_of = function
  | [] -> invalid_arg "Trend.median_of: empty"
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let window_stats p metric values =
  if List.length values < p.min_points then None
  else
    let median = median_of values in
    let tol_pct, noise_floor =
      match metric with
      | Time -> (p.tolerances.Snapshot.time_tol_pct, p.tolerances.Snapshot.min_time_s)
      | Heap -> (p.tolerances.Snapshot.heap_tol_pct, 0.)
      | Heap_component _ ->
        ( p.tolerances.Snapshot.heap_component_tol_pct,
          heap_component_noise_words )
    in
    if median < noise_floor then None
    else
      let mad = median_of (List.map (fun v -> Float.abs (v -. median)) values) in
      let spread = p.mad_k *. mad_scale *. mad in
      let rel_floor = median *. tol_pct /. 100. in
      Some { median; mad; threshold = median +. Float.max spread rel_floor }

let cell_value metric (c : Snapshot.cell) =
  if c.Snapshot.timed_out then None
  else
    match metric with
    | Time -> Some c.Snapshot.time_s
    | Heap -> Option.map float_of_int c.Snapshot.peak_heap_words
    | Heap_component name ->
      Option.map
        (fun (comp : Pta_obs.Census.component) ->
          float_of_int comp.Pta_obs.Census.retained_words)
        (List.find_opt
           (fun (comp : Pta_obs.Census.component) ->
             String.equal comp.Pta_obs.Census.comp_name name)
           c.Snapshot.heap_components)

(* The up-to-[window] most recent finished observations among the
   records strictly before index [i] that were measured on its host. *)
let window_before p metric records ~benchmark ~analysis i =
  let host = records.(i).Record.host in
  let rec go j acc count =
    if j < 0 || count >= p.window then acc
    else if records.(j).Record.host <> host then go (j - 1) acc count
    else
      match
        Option.bind
          (Record.cell_find records.(j) ~benchmark ~analysis)
          (cell_value metric)
      with
      | Some v -> go (j - 1) (v :: acc) (count + 1)
      | None -> go (j - 1) acc count
  in
  go (i - 1) [] 0

type flag =
  | Breach of {
      benchmark : string;
      analysis : string;
      metric : metric;
      seq : int;
      value : float;
      stats : stats;
    }
  | Became_timeout of {
      benchmark : string;
      analysis : string;
      seq : int;
    }

let pp_flag ppf = function
  | Breach f ->
    Format.fprintf ppf "%s/%s: %s %.4g exceeds threshold %.4g (median %.4g, MAD %.4g) at seq %d"
      f.benchmark f.analysis
      (metric_name f.metric) f.value f.stats.threshold
      f.stats.median f.stats.mad f.seq
  | Became_timeout f ->
    Format.fprintf ppf "%s/%s: timed out at seq %d after finishing throughout its window"
      f.benchmark f.analysis f.seq

let check_cell p records i ~benchmark ~analysis =
  let r = records.(i) in
  match Record.cell_find r ~benchmark ~analysis with
  | None -> []
  | Some c ->
    if c.Snapshot.timed_out then
      (* A fresh timeout is a regression whenever the cell has enough
         finished history for the trend to have an opinion at all. *)
      let w = window_before p Time records ~benchmark ~analysis i in
      if List.length w >= p.min_points then
        [ Became_timeout { benchmark; analysis; seq = r.Record.seq } ]
      else []
    else
      List.filter_map
        (fun metric ->
          match cell_value metric c with
          | None -> None
          | Some value -> (
            let w = window_before p metric records ~benchmark ~analysis i in
            match window_stats p metric w with
            | Some stats when value > stats.threshold ->
              Some
                (Breach
                   {
                     benchmark;
                     analysis;
                     metric;
                     seq = r.Record.seq;
                     value;
                     stats;
                   })
            | _ -> None))
        (Time :: Heap
        :: List.map
             (fun (comp : Pta_obs.Census.component) ->
               Heap_component comp.Pta_obs.Census.comp_name)
             c.Snapshot.heap_components)

let check_latest ?(params = default_params) records =
  match records with
  | [] -> Error "empty ledger: nothing to check"
  | _ ->
    let arr = Array.of_list records in
    let last = Array.length arr - 1 in
    Ok
      (List.concat_map
         (fun (c : Snapshot.cell) ->
           check_cell params arr last ~benchmark:c.Snapshot.benchmark
             ~analysis:c.Snapshot.analysis)
         arr.(last).Record.cells)

let flag_mask p metric ~benchmark ~analysis records =
  let arr = Array.of_list records in
  Array.mapi
    (fun i _ ->
      List.exists
        (function
          | Breach f -> f.metric = metric
          | Became_timeout _ -> metric = Time)
        (check_cell p arr i ~benchmark ~analysis))
    arr

(* ------------------------------------------------------------------ *)
(* Trend-page model                                                    *)
(* ------------------------------------------------------------------ *)

let cell_universe records =
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (r : Record.t) ->
      List.iter
        (fun (c : Snapshot.cell) ->
          let key = (c.Snapshot.benchmark, c.Snapshot.analysis) in
          if not (Hashtbl.mem seen key) then (
            Hashtbl.add seen key ();
            order := key :: !order))
        r.Record.cells)
    records;
  List.rev !order

let point_label (r : Record.t) value_txt =
  Printf.sprintf "#%d %s: %s" r.Record.seq
    (Record.commit_label r.Record.build)
    value_txt

let series_of p metric ~fmt ~benchmark ~analysis records =
  let flags = flag_mask p metric ~benchmark ~analysis records in
  List.mapi
    (fun i (r : Record.t) ->
      let value, timed_out, txt =
        match Record.cell_find r ~benchmark ~analysis with
        | None -> (None, false, "absent")
        | Some c when c.Snapshot.timed_out ->
          (None, true, Printf.sprintf "timeout after %.0fs" c.Snapshot.time_s)
        | Some c -> (
          match cell_value metric c with
          | Some v -> (Some v, false, fmt v)
          | None -> (None, false, "absent"))
      in
      {
        Trend_page.value;
        timed_out;
        label = point_label r txt;
        dirty = r.Record.build.Record.dirty;
        (* a timeout flag belongs on the timeout cross itself *)
        flagged = flags.(i) && (value <> None || timed_out);
      })
    records

(* Unflagged informational column from an arbitrary extractor. *)
let plain_series ~fmt ~value_of ~benchmark ~analysis records =
  List.map
    (fun (r : Record.t) ->
      let value, timed_out, txt =
        match Record.cell_find r ~benchmark ~analysis with
        | None -> (None, false, "absent")
        | Some c when c.Snapshot.timed_out -> (None, true, "timeout")
        | Some c -> (
          match value_of c with
          | Some v -> (Some v, false, fmt v)
          | None -> (None, false, "absent"))
      in
      {
        Trend_page.value;
        timed_out;
        label = point_label r txt;
        dirty = r.Record.build.Record.dirty;
        flagged = false;
      })
    records

let fmt_time v = Printf.sprintf "%.2f" v
let fmt_nodes v = string_of_int (int_of_float v)
let fmt_heap_mw v = Printf.sprintf "%.1fM" (v /. 1_000_000.)

let fmt_heap_words v =
  if v >= 1e6 then Printf.sprintf "%.1fM" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.1fk" (v /. 1e3)
  else string_of_int (int_of_float v)

(* Census component names present anywhere in one cell's history, in
   first-appearance order — the page grows one column per component. *)
let component_universe ~benchmark ~analysis records =
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (r : Record.t) ->
      match Record.cell_find r ~benchmark ~analysis with
      | None -> ()
      | Some c ->
        List.iter
          (fun (comp : Pta_obs.Census.component) ->
            let name = comp.Pta_obs.Census.comp_name in
            if not (Hashtbl.mem seen name) then (
              Hashtbl.add seen name ();
              order := name :: !order))
          c.Snapshot.heap_components)
    records;
  List.rev !order

let subtitle ~ledger records =
  match (records, List.rev records) with
  | first :: _, last :: _ ->
    Printf.sprintf "%s — %d records, seq %d..%d, %s .. %s (host %s, profile %s)"
      ledger (List.length records) first.Record.seq last.Record.seq
      (Record.commit_label first.Record.build)
      (Record.commit_label last.Record.build)
      last.Record.host.Record.hostname last.Record.build.Record.profile
  | _ -> Printf.sprintf "%s — empty ledger" ledger

let page ?(params = default_params) ~ledger records =
  let cells =
    List.map
      (fun (benchmark, analysis) ->
        {
          Trend_page.c_benchmark = benchmark;
          c_analysis = analysis;
          c_metrics =
            [
              {
                Trend_page.m_name = "time (s)";
                m_fmt = fmt_time;
                m_series =
                  series_of params Time ~fmt:fmt_time ~benchmark ~analysis
                    records;
              };
              {
                Trend_page.m_name = "nodes";
                m_fmt = fmt_nodes;
                m_series =
                  plain_series ~fmt:fmt_nodes
                    ~value_of:(fun c ->
                      Option.map float_of_int c.Snapshot.nodes)
                    ~benchmark ~analysis records;
              };
              {
                Trend_page.m_name = "peak heap (words)";
                m_fmt = fmt_heap_mw;
                m_series =
                  series_of params Heap ~fmt:fmt_heap_mw ~benchmark ~analysis
                    records;
              };
            ]
            @ List.map
                (fun name ->
                  {
                    Trend_page.m_name =
                      Printf.sprintf "heap:%s (words)" name;
                    m_fmt = fmt_heap_words;
                    m_series =
                      series_of params (Heap_component name)
                        ~fmt:fmt_heap_words ~benchmark ~analysis
                        records;
                  })
                (component_universe ~benchmark ~analysis records);
        })
      (cell_universe records)
  in
  {
    Trend_page.p_title = "pointsto bench trend";
    p_subtitle = subtitle ~ledger records;
    p_cells = cells;
  }
