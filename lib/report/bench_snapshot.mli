(** Codec and comparator for the benchmark snapshots
    ([BENCH_table1.json], [BENCH_prop.json]).

    A snapshot holds one {!cell} per (benchmark, analysis): the best of
    three timed solves, the instrumented solve's iterations,
    supergraph nodes and peak major heap, the distribution of the timed
    solves, and the census of the solved state.  Bench-history ledger
    records ({!Pta_bench_history.Record}) carry the same cells under the
    same {!current_schema_version}; {!of_json} and the record reader
    refuse every other version, naming it. *)

module Json := Pta_obs.Json

val current_schema_version : int
(** 6, shared by snapshots and ledger records. *)

type hist = {
  bounds : float list;  (** strictly increasing upper bounds, no +Inf *)
  counts : int list;  (** per-bucket, non-cumulative; last = overflow *)
  sum : float;
}
(** A serialised latency histogram, [le] bucket semantics. *)

type cell = {
  benchmark : string;
  analysis : string;
  timed_out : bool;
  time_s : float;  (** best wall time, or elapsed-at-abort for timeouts *)
  iterations : int;
  nodes : int option;  (** supergraph nodes (also at abort) *)
  peak_heap_words : int option;
      (** major-heap peak of the instrumented solve; [None] on timeouts *)
  time_hist : hist option;  (** per-run solve-time distribution *)
  heap_components : Pta_obs.Census.component list;
      (** reachable-heap census components; [[]] when absent *)
}

type t = {
  timeout_s : float;
  pointsto : Json.t option;  (** build stamp, held opaquely *)
  cells : cell list;
}

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
val of_string : string -> (t, string) result

(** {1 Shared with the ledger record codec} *)

val check_schema_version : Json.t -> (unit, string) result
(** [Error] naming the document's [schema_version] unless it is
    {!current_schema_version}. *)

val cell_to_json : cell -> Json.t

val cells_of_json : Json.t -> (cell list, string) result
(** The document's ["cells"] list. *)

(** {1 Histogram helpers} *)

val hist_to_json : hist -> Json.t

val hist_of_json : Json.t -> (hist, string) result
(** Validates shape: [length counts = length bounds + 1], non-negative
    counts, strictly increasing bounds. *)

val hist_of_times : float list -> hist
(** Bucket solve times on the fixed ladder of 24 bounds: 1 ms, then
    each bound twice the last, built by repeated multiplication so the
    bounds are bit-identical everywhere.  A time lands in the first
    bucket whose bound it does not exceed, or in the overflow bucket;
    non-finite times (timed-out runs) are skipped.  [sum] adds the
    finite times in list order. *)

val hist_count : hist -> int
(** Total observations. *)

(** {1 Regression comparison} *)

type thresholds = {
  time_tol_pct : float;  (** flag cells slower by more than this *)
  heap_tol_pct : float;  (** flag cells with a fatter peak heap *)
  heap_component_tol_pct : float;
      (** flag census components whose retained words grew by more than
          this (skipped when either side lacks census data) *)
  min_time_s : float;
      (** baseline cells faster than this skip the relative-time check
          (sub-noise-floor timings) *)
}

val default_thresholds : thresholds
(** +15% time, +10% peak heap, +25% per heap component, 0.5s floor. *)

type verdict =
  | Time_regression of { base_s : float; cur_s : float; pct : float }
  | Heap_regression of { base_w : int; cur_w : int; pct : float }
  | Component_regression of Pta_obs.Census.breach
      (** one census component's retained words grew past tolerance *)
  | New_timeout  (** finished in the baseline, times out now *)
  | Fixed_timeout  (** the reverse: an improvement, never a failure *)
  | Missing_cell  (** in the baseline but absent from the current run *)
  | New_cell  (** in the current run but absent from the baseline *)

val verdict_is_regression : verdict -> bool
(** [Time_regression], [Heap_regression], [Component_regression],
    [New_timeout] and [Missing_cell] fail the gate; the rest are
    informational. *)

type delta = {
  d_benchmark : string;
  d_analysis : string;
  d_base : cell option;
  d_cur : cell option;
  verdicts : verdict list;  (** empty = within thresholds *)
}

type report = {
  thresholds : thresholds;
  deltas : delta list;  (** baseline order, then new cells *)
}

val compare : ?thresholds:thresholds -> baseline:t -> current:t -> unit -> report
val regressions : report -> delta list
val has_regression : report -> bool

val to_markdown : report -> string
(** Full per-cell delta table (time, iterations, peak heap, status). *)

val pp_report : Format.formatter -> report -> unit
(** Terminal-friendly summary: one line per cell, regressions recapped
    last. *)
