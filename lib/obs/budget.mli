(** Deadline / cancellation tokens for the analysis engines.

    A budget replaces ad-hoc [Unix.gettimeofday] polling: the engine
    calls {!tick} once per worklist (or semi-naive) iteration, and the
    token raises {!Exhausted} — carrying a populated {!abort} payload —
    when the wall-clock deadline passes or {!cancel} was called.

    The cancellation flag is checked on {e every} tick, so an external
    [cancel] aborts within one iteration; the clock is only polled every
    few thousand ticks, keeping the per-iteration cost of an unlimited
    budget to a couple of branches. *)

type abort = {
  elapsed_s : float;  (** wall-clock seconds since the engine started *)
  iterations : int;  (** worklist iterations completed at abort *)
  nodes : int;
      (** the engine's monotone work measure at abort: supergraph nodes
          created (native solver) or total facts derived (Datalog) *)
}

exception Exhausted of abort
(** The analogue of the paper's 90-minute cutoff (Table 1's "-"
    entries), now carrying where the budget ran out. *)

type t

val unlimited : unit -> t
(** No deadline; still cancellable. *)

val of_seconds : float -> t
(** Deadline [s] seconds after the engine calls {!start}. *)

val of_seconds_opt : float option -> t
(** [None] is {!unlimited} — the shape of the old [?timeout_s]. *)

val start : t -> probe:(unit -> int) -> unit
(** Called by the engine when its run begins: stamps the start time,
    arms the deadline, resets the iteration count, and installs [probe]
    as the work-measure reading for {!abort} payloads.  A token may be
    reused by sequential runs; each [start] rearms it and clears any
    pending cancellation. *)

val stop : t -> unit
(** Called by the engine when its run ends, completed or aborted:
    replaces the probe with a constant holding its final reading, so a
    long-lived token (e.g. a default configuration's) no longer keeps
    the engine's state reachable.  Iterations and elapsed time are
    kept. *)

val tick : t -> unit
(** One engine iteration: counts it, runs the {!on_tick} callback, then
    polls.  @raise Exhausted when out of budget. *)

val check : t -> unit
(** Like {!tick}, but polls the clock unconditionally.  For engines
    whose iterations are few and heavy (the semi-naive Datalog rounds),
    where the every-[0xFFF]-ticks cadence of {!tick} would never reach a
    clock poll.  @raise Exhausted when out of budget. *)

val cancel : t -> unit
(** Abort the run from outside (e.g. a signal handler or an {!on_tick}
    callback): the next {!tick} raises {!Exhausted}. *)

val on_tick : t -> (int -> unit) -> unit
(** [on_tick b f] makes every {!tick} and {!check} call [f n], [n] being
    the iteration count including this one — for progress reports, peak
    sampling and tests that cancel at a given iteration.  [f] runs after
    the callbacks installed before it, which it keeps.  Survives
    {!start}.  Without a callback a tick pays one pointer comparison for
    it. *)

val with_tick : t -> (int -> unit) -> (unit -> 'a) -> 'a
(** [with_tick b f k] installs [f] as {!on_tick} does, runs [k ()], and
    then restores the callbacks installed before, also when [k] raises:
    a budget shared between runs does not pile up per-run callbacks.
    Callbacks installed inside [k] go with [f]. *)

val iterations : t -> int
(** Ticks since the last {!start}. *)

val elapsed_s : t -> float
(** Wall-clock seconds since the last {!start}. *)

val is_limited : t -> bool
(** Whether a deadline is armed (not whether it has expired). *)
