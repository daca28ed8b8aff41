(** Typed, labelled metric registry with deterministic exposition.

    A registry holds counter, gauge, and histogram families keyed by
    metric name; each family holds one series per label set.  Base
    labels supplied at [create] time (benchmark, analysis, ...) are
    merged into every series.

    Follows the same zero-cost discipline as {!Pta_obs.Trace}: the
    distinguished {!null} registry hands out shared dummy handles, so
    instrumented code pays one physical-equality check and a dead store
    when metrics are off.  Hot-path updates ([incr], [add], [set],
    [observe]) never allocate and never search a table — resolve the
    handle once, outside the loop.

    Exposition is deterministic: families and label sets are emitted in
    sorted order, floats render via a fixed repr, and no wall-clock
    values are ever stored, so two identical runs produce byte-identical
    OpenMetrics text and JSON. *)

type t
type labels = (string * string) list

type counter
type gauge
type histogram

(** The no-op registry: registration returns dummy handles, exposition
    is empty. *)
val null : t

val is_null : t -> bool

(** [create ~labels ()] makes a live registry whose [labels] are merged
    into every series.  Raises [Invalid_argument] on malformed or
    duplicate label names. *)
val create : ?labels:labels -> unit -> t

(** {1 Registration}

    Registering the same name + label set twice returns the same
    handle.  Raises [Invalid_argument] on kind mismatch for an existing
    name, malformed names, or duplicate labels. *)

val counter : t -> ?help:string -> ?labels:labels -> string -> counter
val gauge : t -> ?help:string -> ?labels:labels -> string -> gauge

(** [histogram t ~buckets name] registers a fixed-bucket histogram.
    [buckets] are strictly increasing upper bounds; an implicit [+Inf]
    bucket is appended.  Raises [Invalid_argument] on an empty or
    non-increasing ladder, or if re-registered with different bounds. *)
val histogram :
  t -> ?help:string -> ?labels:labels -> buckets:float list -> string -> histogram

(** [pow2_buckets n] is the ladder [1; 2; 4; ...; 2^(n-1)]. *)
val pow2_buckets : int -> float list

(** [exp_buckets ~start ~factor count] is the geometric ladder
    [start; start*factor; ...; start*factor^(count-1)] — the natural
    shape for latency distributions, whose mass spans orders of
    magnitude (a linear ladder wastes every bucket past the mode).
    Bounds are produced by repeated multiplication, so the ladder is
    bit-identical across platforms and safe to commit into ledger
    records.  Raises [Invalid_argument] unless [start > 0],
    [factor > 1] and [count >= 1]. *)
val exp_buckets : start:float -> factor:float -> int -> float list

(** The registry-wide ladder for wall-clock seconds:
    [exp_buckets ~start:0.001 ~factor:2. 24] — 1ms to ~2.3h.  Used for
    the per-cell solve-time distributions recorded into the bench
    ledger; sharing one ladder keeps histograms mergeable across
    records. *)
val time_buckets : float list

(** {1 Updates} *)

val incr : counter -> unit

(** [add c n] bumps a counter by [n >= 0]; raises [Invalid_argument] on
    a negative delta (counters are monotone). *)
val add : counter -> int -> unit

val counter_value : counter -> int
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** [observe h v] records [v] into the first bucket whose upper bound is
    [>= v] ([le] semantics, matching Prometheus). *)
val observe : histogram -> float -> unit

val observe_int : histogram -> int -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

(** [(upper_bound, count)] per bucket, {e non}-cumulative, ending with
    the implicit [(infinity, overflow)] bucket.  This is the raw shape
    recorded into bench-ledger records (the OpenMetrics exposition
    stays cumulative). *)
val histogram_buckets : histogram -> (float * int) list

(** {1 Exposition} *)

(** OpenMetrics / Prometheus text format, terminated by [# EOF].
    Deterministic: sorted families, sorted series, cumulative
    [_bucket{le=...}] lines plus [_sum] and [_count]. *)
val to_openmetrics : t -> string

(** Stable JSON: an object keyed by family name, each with [kind],
    [help], and a [series] list carrying labels and values (cumulative
    bucket counts for histograms). *)
val to_json : t -> Pta_obs.Json.t
