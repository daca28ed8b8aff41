(** GC / memory profiling for the analysis engines.

    Snapshots of the OCaml GC counters ([Gc.quick_stat] — no heap
    traversal, cheap enough to take around every phase), deltas between
    two snapshots, and a [Gc.alarm]-based tracker that records the
    major-heap peak {e during} a run.  The peak matters because
    [top_heap_words] is a process-global high-water mark: it never
    resets, so in a harness running many cells in one process only an
    alarm sampled per cell attributes the peak to the right cell.

    Word counts are per-process and deterministic for a deterministic
    program, so they diff cleanly across runs of the same binary; only
    wall-clock readings (which live elsewhere) are not. *)

type snapshot = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;
  top_heap_words : int;
}

val snapshot : unit -> snapshot

type delta = {
  minor_allocated_words : float;  (** words allocated in the minor heap *)
  promoted_delta_words : float;  (** words promoted minor -> major *)
  major_allocated_words : float;
      (** words allocated in the major heap, including promotions *)
  minor_collections_delta : int;
  major_collections_delta : int;
  compactions_delta : int;
  heap_words_after : int;  (** major heap size at the end snapshot *)
  peak_heap_words : int;
      (** major-heap peak over the interval when tracked; otherwise
          [heap_words_after] *)
}

val diff : ?peak:int -> before:snapshot -> after:snapshot -> unit -> delta
(** [peak] is clamped up to at least the heap size at both endpoints —
    a sampled peak can lag (no alarm fired in the interval) but never
    legitimately undercut what the endpoints saw. *)

(** {1 Peak tracking} *)

type tracker

val start_tracking : unit -> tracker
(** Take the "before" snapshot and install a [Gc.alarm] that samples
    the major heap size at the end of every major collection. *)

val sample : tracker -> unit
(** Fold the current heap size into the peak (for long alarm-free
    stretches). *)

val finish : tracker -> delta
(** Remove the alarm and return the interval's delta, peak included. *)

val tracked : (unit -> 'a) -> 'a * delta
(** [tracked f] runs [f] under a tracker.  If [f] raises, the alarm is
    removed and the exception re-raised. *)

(** {1 Serialisation} *)

val to_json : delta -> Json.t
val of_json : Json.t -> (delta, string) result
val pp : Format.formatter -> delta -> unit
