(** GC / memory profiling for the analysis engines.

    Snapshots of the OCaml GC counters ([Gc.quick_stat] — no heap
    traversal — and [Gc.minor_words], which counts to the word, where
    [quick_stat]'s count moves only at a minor collection) and the
    process's peak resident set (one read of /proc/self/status), taken
    at a run's two ends, deltas between two snapshots, and a tracker
    that records the major-heap peak {e during} a run.  The peak
    matters because [top_heap_words] is a process-global high-water
    mark: it never resets, so in a harness running many cells in one
    process only a peak sampled per cell attributes it to the right
    cell.

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
  minor_heap_words : int;  (** the minor heap's size, not its use *)
  peak_rss_kb : int option;
      (** the process's resident-set high-water mark ([VmHWM] in
          /proc/self/status); [None] where that cannot be read *)
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
  minor_heap_words : int;  (** minor heap size at the end snapshot *)
  peak_rss_kb : int option;
      (** process resident-set high-water mark at the end snapshot: the
          memory the process holds, minor heap included, which
          [peak_heap_words] leaves out *)
}

val diff : ?peak:int -> before:snapshot -> after:snapshot -> unit -> delta
(** [peak] is clamped up to at least the heap size at both endpoints —
    a sampled peak can lag (no sample in the interval) but never
    legitimately undercut what the endpoints saw. *)

(** {1 Peak tracking} *)

type tracker

val start_tracking : unit -> tracker
(** Take the "before" snapshot.  Only {!sampling} and {!finish} read
    the heap after it. *)

val sampling : tracker -> Budget.t -> (unit -> 'a) -> 'a
(** [sampling t b k] runs [k ()] (an engine run on [b]) with the
    current major-heap size folded into [t]'s peak on every 1024th tick
    of [b] — frequent enough to catch allocation spikes, cheap enough
    ([Gc.quick_stat] reads no heap) to leave timings unchanged, and
    allocating the same on every run.  The hook is gone when [k]
    returns or raises ({!Budget.with_tick}). *)

val finish : tracker -> delta
(** Sample the peak once more and return the interval's delta. *)

(** {1 Serialisation} *)

val to_json : delta -> Json.t
