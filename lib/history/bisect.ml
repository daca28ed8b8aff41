module Snapshot = Pta_report.Bench_snapshot

type outcome = {
  benchmark : string;
  analysis : string;
  metric : Trend.metric;
  anchor : Trend.stats;
  first_bad : Record.t;
  last_good : Record.t option;
  probes : (int * bool) list;
}

(* The anchor window: the first [window] finished observations of the
   cell, scanning from the start of the ledger. *)
let anchor_values (p : Trend.params) metric ~benchmark ~analysis records =
  let rec go acc count = function
    | [] -> List.rev acc
    | _ when count >= p.Trend.window -> List.rev acc
    | (r : Record.t) :: rest -> (
      match
        Option.bind
          (Record.cell_find r ~benchmark ~analysis)
          (Trend.cell_value metric)
      with
      | Some v -> go (v :: acc) (count + 1) rest
      | None -> go acc count rest)
  in
  go [] 0 records

let run ?(params = Trend.default_params) ~metric ~benchmark ~analysis records =
  match List.rev records with
  | [] -> Error "empty ledger: nothing to bisect"
  | latest :: _ -> (
    let records =
      List.filter
        (fun (r : Record.t) -> r.Record.host = latest.Record.host)
        records
    in
    let anchor_vals =
      anchor_values params metric ~benchmark ~analysis records
    in
    match Trend.window_stats params metric anchor_vals with
    | None ->
      if List.length anchor_vals < params.Trend.min_points then
        Error
          (Printf.sprintf
             "%s/%s: only %d finished %s observation(s) to anchor on (need %d)"
             benchmark analysis (List.length anchor_vals)
             (Trend.metric_name metric) params.Trend.min_points)
      else
        Error
          (Printf.sprintf
             "%s/%s: anchor median sits below the %s noise floor; nothing \
              meaningful to bisect"
             benchmark analysis (Trend.metric_name metric))
    | Some anchor ->
      let arr = Array.of_list records in
      let probes = ref [] in
      (* Bad = crossed the anchor threshold, or timed out where the
         anchor finished.  An absent cell is treated as good: the cell
         did not exist yet, so the regression cannot predate it. *)
      let bad i =
        let r = arr.(i) in
        let verdict =
          match Record.cell_find r ~benchmark ~analysis with
          | None -> false
          | Some c when c.Snapshot.timed_out -> true
          | Some c -> (
            match Trend.cell_value metric c with
            | None -> false
            | Some v -> v > anchor.Trend.threshold)
        in
        probes := (r.Record.seq, verdict) :: !probes;
        verdict
      in
      let last = Array.length arr - 1 in
      if not (bad last) then Ok None
      else begin
        (* Invariant: pred at [lo] is false (or lo = -1, the before-
           history sentinel), pred at [hi] is true. *)
        let lo = ref (-1) and hi = ref last in
        while !hi - !lo > 1 do
          let mid = !lo + ((!hi - !lo) / 2) in
          if bad mid then hi := mid else lo := mid
        done;
        Ok
          (Some
             {
               benchmark;
               analysis;
               metric;
               anchor;
               first_bad = arr.(!hi);
               last_good = (if !lo >= 0 then Some arr.(!lo) else None);
               probes = List.rev !probes;
             })
      end)

let pp_outcome ppf o =
  let commit (r : Record.t) = Record.commit_label r.Record.build in
  Format.fprintf ppf "@[<v>%s/%s, metric %s:@," o.benchmark o.analysis
    (Trend.metric_name o.metric);
  Format.fprintf ppf "  anchor: median %.4g, threshold %.4g@,"
    o.anchor.Trend.median o.anchor.Trend.threshold;
  (match o.last_good with
  | Some g ->
    Format.fprintf ppf "  last good: seq %d (%s)@," g.Record.seq (commit g)
  | None ->
    Format.fprintf ppf "  last good: none — the ledger starts bad@,");
  Format.fprintf ppf "  first bad: seq %d (%s)@," o.first_bad.Record.seq
    (commit o.first_bad);
  Format.fprintf ppf "  probes: %s@]"
    (String.concat ", "
       (List.map
          (fun (seq, b) ->
            Printf.sprintf "#%d=%s" seq (if b then "bad" else "good"))
          o.probes))

(* ------------------------------------------------------------------ *)
(* git bisect handoff                                                  *)
(* ------------------------------------------------------------------ *)

let baseline_snapshot (r : Record.t) ~benchmark ~analysis =
  match Record.cell_find r ~benchmark ~analysis with
  | None ->
    Error
      (Printf.sprintf "record #%d has no cell %s/%s" r.Record.seq benchmark
         analysis)
  | Some c when c.Snapshot.timed_out ->
    Error
      (Printf.sprintf "record #%d: %s/%s timed out; cannot baseline on it"
         r.Record.seq benchmark analysis)
  | Some c ->
    Ok { Snapshot.timeout_s = r.Record.timeout_s; pointsto = None; cells = [ c ] }

(* The run command is nested two shells deep (`git bisect run sh -c`),
   so rather than double-quote we only accept names that need none. *)
let shell_safe s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '/' | '+' | '-' ->
           true
         | _ -> false)
       s

let git_script o ~ledger ~baseline_file =
  match o.last_good with
  | None ->
    Error
      "the whole ledger span is bad — there is no good commit to start `git \
       bisect` from"
  | Some good ->
    let gb = good.Record.build and bb = o.first_bad.Record.build in
    if gb.Record.commit = "unknown" || bb.Record.commit = "unknown" then
      Error "good or bad record carries no commit hash; cannot drive git bisect"
    else if gb.Record.dirty || bb.Record.dirty then
      Error
        "good or bad record was measured on a dirty worktree; its commit hash \
         does not name the measured tree, refusing to drive git bisect"
    else if
      not
        (shell_safe o.benchmark && shell_safe o.analysis
        && shell_safe baseline_file)
    then
      Error
        "benchmark, analysis or baseline path contains characters that would \
         need shell quoting; refusing to generate a script"
    else
      (* Gate only the bisected metric: the others get a tolerance
         wide enough to never fire. *)
      let rel_pct =
        ((o.anchor.Trend.threshold /. o.anchor.Trend.median) -. 1.) *. 100.
      in
      let wide = "1000000" in
      let time_tol, heap_tol, comp_tol =
        let pct = Printf.sprintf "%.1f" rel_pct in
        match o.metric with
        | Trend.Time -> (pct, wide, wide)
        | Trend.Heap -> (wide, pct, wide)
        | Trend.Heap_component _ -> (wide, wide, pct)
      in
      Ok
        (String.concat "\n"
           [
             "#!/bin/sh";
             Printf.sprintf
               "# Generated by `pointsto bench bisect` from %s." ledger;
             Printf.sprintf "# Cell %s/%s, metric %s." o.benchmark
               o.analysis (Trend.metric_name o.metric);
             Printf.sprintf "# Ledger span: last good #%d (%s), first bad #%d \
                             (%s)."
               good.Record.seq gb.Record.commit o.first_bad.Record.seq
               bb.Record.commit;
             Printf.sprintf
               "# Baseline snapshot (from the last-good record): %s"
               baseline_file;
             "# Each step rebuilds and re-measures just this cell; a build";
             "# failure skips the commit (exit 125) rather than misjudging it.";
             "set -e";
             Printf.sprintf "git bisect start %s %s" bb.Record.commit
               gb.Record.commit;
             Printf.sprintf
               "git bisect run sh -c 'dune build bin/pointsto.exe || exit 125; \
                dune exec bin/pointsto.exe -- bench compare --baseline %s \
                --benchmarks %s --analyses %s --time-tol %s --heap-tol %s \
                --heap-component-tol %s'"
               baseline_file o.benchmark o.analysis time_tol heap_tol comp_tol;
             "git bisect reset";
             "";
           ])
