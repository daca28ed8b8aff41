(** Span-based tracing and profiling for the analysis engines.

    A trace sink collects begin/end spans, complete (pre-timed) spans
    and counter samples into a growable ring buffer, and
    exports them as Chrome trace-event JSON — the format Perfetto
    ([ui.perfetto.dev]) and [chrome://tracing] load directly.

    The sink is zero-cost when off: every emitter is guarded by a
    physical-equality check against {!null}, so an untraced run reads
    no clocks and allocates nothing.  Timestamps come from a per-sink epoch and are clamped to
    be monotone non-decreasing, so spans never appear to end before
    they begin even if the wall clock steps backwards.

    Alongside the event timeline the sink keeps {e exact} per-name
    aggregates (event count, cumulative time, cumulative delta) updated
    on every span completion.  The ring buffer may drop its oldest
    events once full ({!dropped} tells how many); the aggregates never
    lose anything, so {!profile} stays accurate on arbitrarily long
    runs — this is what the hot-rule tables are built from.

    Category conventions used by the engines:
    - ["phase"]  — coarse structure: the CLI session's [load] and
      [client], the solver's [setup] and [fixpoint] ({!phase}), the
      datalog engine's [fixpoint] and per-round spans;
    - ["rule"]   — one Datalog rule evaluation (complete span; [delta] =
      facts it derived);
    - ["solver"] — one native-solver propagation batch, named by edge
      kind ([move], [load], [store], [vcall], [scall]; [delta] = objects
      propagated);
    - ["gauge"]  — precision counters sampled at fixpoint (Table-1
      metric names). *)

type t

val null : t
(** The no-op sink; compared against {e physically}. *)

val is_null : t -> bool

val create : ?limit:int -> ?alloc:bool -> unit -> t
(** A fresh sink whose ring buffer retains at most [limit] events
    (default [262144]); beyond that the oldest events are overwritten
    and counted by {!dropped}.  Aggregates are unaffected by drops.

    [alloc] (default [false]) turns on span-scoped allocation
    accounting: every [begin_span]/[end_span] pair additionally captures
    a GC-counter delta (minor/promoted/major allocated words) into the
    span's aggregate and into the Chrome-trace args of its closing
    event.  The minor component reads [Gc.minor_words] — the allocation
    pointer, exact even when no minor collection ran inside the span.
    Caller-timed {!complete} spans participate by passing an
    {!alloc_mark}.  Reading GC counters itself perturbs nothing, but an
    alloc-enabled sink is for profiling runs: it reads the counters
    twice per span. *)

val alloc_enabled : t -> bool

type alloc_mark
(** A GC-counter reading taken at span begin.  On a sink without
    allocation accounting (and on {!null}) {!alloc_mark} returns a
    shared static mark that makes every later accounting step a no-op,
    so guarded hot paths stay allocation-free. *)

val alloc_mark : t -> alloc_mark

val now_us : t -> float
(** Microseconds since the sink's epoch, clamped monotone.  Only for
    call sites that time a region themselves before calling
    {!complete}; guarded call sites must not read it on {!null}. *)

(** {1 Emitters}

    All no-ops (a single pointer comparison) on {!null}. *)

val begin_span : t -> cat:string -> string -> unit
val end_span : ?delta:int -> t -> unit
(** Close the innermost open span.  [delta] accumulates into the span
    name's aggregate (e.g. facts derived).  Ignored if no span is
    open. *)

val span : t -> cat:string -> string -> (unit -> 'a) -> 'a
(** [span t ~cat name f] runs [f ()] inside a [begin_span]/[end_span]
    pair; the span is closed even if [f] raises.  On {!null} this is
    exactly [f ()]. *)

val complete :
  ?delta:int -> ?alloc:alloc_mark -> t -> cat:string -> name:string ->
  t0_us:float -> dur_us:float -> unit
(** A span timed by the caller (one ["X"] trace event).  For hot paths
    that avoid closure allocation: guard on {!is_null}, read {!now_us}
    twice, then report.  Pass the {!alloc_mark} taken before the region
    to attach its allocation delta; the mark from an accounting-off sink
    degrades to a no-op. *)

val phase : t -> string -> float -> unit
(** [phase t name s] reports a ["phase"] of [s] seconds that ends now,
    as one complete span whose [dur] is exactly [s] (in microseconds):
    the caller's own clock reading, so a trace and a stats document that
    both report the phase agree. *)

val counter : t -> cat:string -> string -> float -> unit
(** A sampled value; rendered by trace viewers as a counter track. *)

(** {1 Aggregates} *)

type stat = {
  stat_cat : string;
  stat_name : string;
  events : int;  (** completed spans with this (cat, name) *)
  delta : int;  (** cumulative [delta] across them *)
  seconds : float;  (** cumulative time across them *)
  minor_words : float;  (** cumulative minor-heap allocation, if captured *)
  promoted_words : float;
      (** cumulative minor-to-major promotion, each span's capped at its
          own [major_words] *)
  major_words : float;  (** cumulative major-heap allocation *)
}

val stat_alloc_words : stat -> float
(** Fresh words allocated: [minor + major - promoted] (promotions would
    otherwise be counted on both sides).  Because each span's promotion
    is capped at its major words, a span is never charged less than its
    exact minor words. *)

val profile : t -> stat list
(** Per-(category, name) aggregates over {e all} spans ever completed
    (drops included), sorted by cumulative time, largest first. *)

val n_events : t -> int
(** Events currently retained in the ring. *)

val dropped : t -> int
(** Events evicted by the ring since creation. *)

(** {1 Export} *)

val to_chrome_json : t -> Json.t
(** The retained events as a Chrome trace-event JSON array (oldest
    first): objects with ["name"], ["cat"], ["ph"] (["B"]/["E"]/["X"]/
    ["C"]), ["ts"]/["dur"] in microseconds, ["pid"]/["tid"], and
    ["args"] carrying [delta] or counter values.  Load the serialized
    form in Perfetto or [chrome://tracing]. *)
