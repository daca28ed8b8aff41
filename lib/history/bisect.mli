(** Auto-bisect over the ledger: locate the {e first} record at which
    one cell's metric crossed its regression threshold.

    Only records measured on the latest record's host take part.  The
    anchor is the robust baseline of the cell's early history — the
    {!Trend.window_stats} of its first [window] finished observations —
    and a record is {e bad} when its value exceeds the anchor threshold
    (or it times out while the anchor finished).  Against a step
    regression this predicate is monotone along the ledger, so a plain
    binary search finds the boundary in O(log n) evaluations; each
    probe is reported so a noisy (non-monotone) history is visible in
    the probe log rather than silently misattributed.

    When the regression is newer than the ledger is dense — the
    boundary spans many commits — {!git_script} emits a [git bisect
    run] recipe that re-measures just the one cell per candidate
    commit, using the last-good record as the comparison baseline. *)

module Snapshot := Pta_report.Bench_snapshot

type outcome = {
  benchmark : string;
  analysis : string;
  metric : Trend.metric;
  anchor : Trend.stats;  (** baseline over the first finished window *)
  first_bad : Record.t;
  last_good : Record.t option;
      (** [None] when the very first record is already bad *)
  probes : (int * bool) list;  (** (seq, bad) in evaluation order *)
}

val run :
  ?params:Trend.params ->
  metric:Trend.metric ->
  benchmark:string ->
  analysis:string ->
  Record.t list ->
  (outcome option, string) result
(** [Ok None] when the latest record is within threshold (nothing to
    bisect).  [Error] when the cell is absent, never finished often
    enough to anchor, or the noise floor suppresses the metric. *)

val pp_outcome : Format.formatter -> outcome -> unit

val baseline_snapshot :
  Record.t ->
  benchmark:string ->
  analysis:string ->
  (Snapshot.t, string) result
(** The last-good record's cell as a single-cell snapshot, fit to
    serve as the [bench compare] baseline inside a [git bisect run]
    step. *)

val git_script :
  outcome -> ledger:string -> baseline_file:string -> (string, string) result
(** A commented, ready-to-run shell script driving [git bisect run]
    between the last-good and first-bad commits, re-measuring only the
    affected cell per step.  Emitted for the user to inspect and run —
    checking out arbitrary commits is not something a trend tool does
    behind anyone's back.  [Error] when there is no good commit to
    start from, a span endpoint has no usable commit hash (unknown or
    dirty), or a name would need shell quoting. *)
