(** Codec and comparator for the committed benchmark snapshot
    ([BENCH_table1.json]).

    Schema v2 extends v1 with per-cell [nodes] (the solver's supergraph
    size — also recorded for timeout cells, from the abort payload), a
    [memory] block (the {!Pta_obs.Memstats.delta} of the instrumented
    run), and a top-level [pointsto] build stamp.  Schema v3 (written by
    {!to_json}) adds an optional per-cell [time_hist] — the distribution
    of the individual timed solves behind the reported min, recorded on
    an exponential-bucket {!Pta_metrics.Registry} histogram and carried
    into bench-history ledger records.  Schema v4 adds an optional
    per-cell [heap_components] block — the retained/unshared word
    attribution of a {!Pta_obs.Census} walk over the solved state — and
    a per-component regression gate.  Schema v5 once added per-cell
    [jobs]/[domains] and a top-level core-count stamp for a parallel
    drain that has since been removed; sequential v5 cells are
    byte-identical to v4 ones.  {!of_json} reads all five versions and
    refuses a cell whose [jobs] or [domains] is not 1, naming the cell
    (it would otherwise load as a duplicate (benchmark, analysis) key);
    the core-count stamp is ignored.  Older cells simply come back with
    the newer fields absent, so a regression gate against an old
    baseline still checks time and iterations. *)

module Json := Pta_obs.Json

val current_schema_version : int
(** The version {!to_json} writes: 5. *)

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
  nodes : int option;  (** v2: supergraph nodes (also at abort) *)
  memory : Pta_obs.Memstats.delta option;  (** v2: instrumented-run GC profile *)
  time_hist : hist option;  (** v3: per-run solve-time distribution *)
  heap_components : Pta_obs.Census.component list;
      (** v4: reachable-heap census components; [[]] when absent *)
}

type t = {
  schema_version : int;  (** of the document as read; {!to_json} rewrites *)
  timeout_s : float;
  pointsto : Json.t option;  (** v2: build stamp, held opaquely *)
  cells : cell list;
}

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
val of_string : string -> (t, string) result

val refuse_parallel_cell :
  Json.t -> benchmark:string -> analysis:string -> (unit, string) result
(** [Error] naming the cell when its JSON object carries a [jobs] or
    [domains] other than 1 — a cell of the removed parallel drain.
    Shared with the ledger record reader. *)

(** {1 Histogram helpers} *)

val hist_to_json : hist -> Json.t

val hist_of_json : Json.t -> (hist, string) result
(** Validates shape: [length counts = length bounds + 1], non-negative
    counts, strictly increasing bounds. *)

val hist_of_buckets : sum:float -> (float * int) list -> hist
(** From {!Pta_metrics.Registry.histogram_buckets} output: the trailing
    [+Inf] bucket becomes the overflow count. *)

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
