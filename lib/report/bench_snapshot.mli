(** Codec and comparator for the benchmark snapshots
    ([BENCH_table1.json], [BENCH_prop.json]).

    A snapshot holds one {!cell} per (benchmark, analysis): the best of
    three timed solves, the instrumented solve's iterations,
    supergraph nodes and peak major heap, and the census of the solved
    state.  {!of_json} refuses every [schema_version] but
    {!current_schema_version}, naming it, and ignores fields it does not
    know. *)

module Json := Pta_obs.Json

val current_schema_version : int
(** 6. *)

type cell = {
  benchmark : string;
  analysis : string;
  timed_out : bool;
  time_s : float;  (** best wall time, or elapsed-at-abort for timeouts *)
  iterations : int;
  nodes : int option;  (** supergraph nodes (also at abort) *)
  peak_heap_words : int option;
      (** major-heap peak of the instrumented solve; [None] on timeouts *)
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
val has_regression : report -> bool

val pp_report : Format.formatter -> report -> unit
(** The thresholds, then one line per cell (base -> current time,
    iterations and peak heap, and the verdicts), regressions recapped
    last. *)
