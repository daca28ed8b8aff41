(** Statistical regression detection over the ledger, and the bridge
    from ledger records to the static trend page.

    The changepoint check is a sliding-window robust test: for a cell's
    latest value, take the up-to-[window] most recent {e finished}
    observations before it, and flag when the value exceeds

    {v median + max(mad_k * 1.4826 * MAD, median * tol_pct / 100) v}

    Median + MAD rather than mean + stddev because a perf history is
    exactly the signal that contains the outliers one is looking for —
    a single historical spike must not inflate the dispersion estimate
    enough to mask a genuine step.  The [tol_pct] floor (the {e same}
    tolerance configuration the one-shot [--compare] gate uses,
    {!Pta_report.Bench_snapshot.thresholds}) keeps a near-constant
    series (MAD ≈ 0) from flagging on measurement jitter, and the
    comparator's [min_time_s] noise floor suppresses the time check on
    sub-noise cells. *)

module Snapshot := Pta_report.Bench_snapshot

type metric =
  | Time
  | Heap
  | Heap_component of string
      (** one census component's retained words (v2 ledger records);
          tested with [heap_component_tol_pct] and a 1024-word noise
          floor *)

val metric_name : metric -> string
(** ["time"], ["heap"], or ["heap:<component>"]. *)

val metric_of_string : string -> (metric, string) result

type params = {
  window : int;  (** sliding-window length (finished observations) *)
  min_points : int;  (** observations required before the test fires *)
  mad_k : float;  (** MAD multiplier *)
  tolerances : Snapshot.thresholds;
      (** shared with the [--compare] gate: [time_tol_pct] /
          [heap_tol_pct] are the relative floors, [min_time_s] the time
          noise floor *)
}

val default_params : params
(** window 5, min_points 3, mad_k 4.0, {!Snapshot.default_thresholds}. *)

type stats = {
  median : float;
  mad : float;  (** raw (unscaled) median absolute deviation *)
  threshold : float;  (** flag values strictly above this *)
}

val window_stats : params -> metric -> float list -> stats option
(** [None] when there are fewer than [min_points] observations, or the
    time median sits below the noise floor. *)

type flag =
  | Breach of {
      benchmark : string;
      analysis : string;
      metric : metric;
      seq : int;  (** the flagged record *)
      value : float;
      stats : stats;
    }
  | Became_timeout of {
      benchmark : string;
      analysis : string;
      seq : int;
    }
      (** finished throughout the window, timed out in the flagged
          record *)

val pp_flag : Format.formatter -> flag -> unit

val check_latest : ?params:params -> Record.t list -> (flag list, string) result
(** Gate the ledger's {e latest} record: every cell it contains is
    tested against its own history.  Cells with no (or too little)
    history pass — a newly added analysis needs [min_points] runs
    before the trend can say anything about it.  Cells are keyed by
    (benchmark, analysis), and the window holds only records whose host
    equals the latest record's.  [Error] on an empty ledger. *)

val flag_mask :
  params -> metric -> benchmark:string -> analysis:string -> Record.t list ->
  bool array
(** Per-record breach marks for one cell's whole history (each record
    tested against the window of same-host records preceding it) —
    drives the red markers on the trend page. *)

val cell_value : metric -> Snapshot.cell -> float option
(** [None] for timeouts and for heap on histogram-less records. *)

val page : ?params:params -> ledger:string -> Record.t list -> Pta_report.Trend_page.page
(** The full trend-page model: one row per (benchmark, analysis) in
    first-appearance order, columns time / supergraph nodes / peak heap
    plus one column per census component seen in the cell's
    history, breach marks from {!flag_mask}, dirty builds marked from
    the records' build stamps. *)
