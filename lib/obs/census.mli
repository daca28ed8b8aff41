(** Reachable-heap census: exact live-word attribution to named
    components of an engine's state.

    A census walks the heap from a list of named {e component} root sets
    (declaration order matters) and reports, per component:

    - {e retained} words — every reachable block charged exactly once,
      to the {e first} component that reaches it.  The per-component
      retained figures therefore sum to one deduplicated walk over all
      roots, which is bounded by the process's major heap at walk
      time.
    - {e unshared} words — the per-root walks summed, i.e. what the same
      state would cost if every cross-root reference were a private
      copy.  [unshared >= retained] always; their ratio is the
      component's {!sharing_factor}, the baseline any hash-consing or
      set-sharing optimisation must beat.

    The walk is [Obj.reachable_words] underneath: physical-identity
    aware, cycle safe, and identical across runs of a deterministic
    program — census output is byte-stable JSON.  {!survey} runs
    [Gc.full_major] first so minor-heap blocks are promoted and the
    retained-vs-[heap_words] invariant is meaningful.

    Ownership rules for root sets: put the structures whose cost you
    want attributed {e first} (e.g. points-to sets before the node
    tables that also reach them); a later component is charged only for
    blocks no earlier component reached.  Do not put closures in root
    sets — a closure's environment can reach arbitrary engine state and
    would take ownership away from every later component. *)

type component = {
  comp_name : string;
  retained_words : int;
  unshared_words : int;
}

type hist = {
  h_bounds : int list;  (** strictly increasing upper bounds *)
  h_counts : int list;  (** one more than bounds; last = overflow *)
}

type t = {
  word_bytes : int;  (** [Sys.word_size / 8] of the measuring process *)
  process_heap_words : int;
      (** the whole process's major heap ([Gc.heap_words]) at walk time,
          post-[full_major]: free space and everything outside the
          components included.  Its JSON key is ["live_heap_words"]. *)
  components : component list;  (** in declaration order *)
  set_hist : hist option;  (** points-to set population histogram *)
}

val survey : ?set_hist:hist -> (string * Obj.t list) list -> t
(** [survey comps] walks the heap from each [(name, roots)] component.
    Triggers a full major collection before walking. *)

val sharing_factor : component -> float
(** [unshared / retained]; [1.] for an empty component. *)

val total_retained_words : t -> int
val find : t -> string -> component option
val bytes_of_words : t -> int -> int

(** {1 Histograms} *)

val pow2_bounds : int -> int list
(** [pow2_bounds n] = [[1; 2; 4; ...; 2^(n-1)]]. *)

val hist_of_values : bounds:int list -> int list -> hist
(** Bucket by first upper bound [>= v]; larger values overflow into the
    trailing bucket. *)

val hist_total : hist -> int

(** {1 Serialisation}

    [to_json] output is byte-deterministic for a deterministic state
    (fixed key order, integer words, no wall-clock values). *)

val to_json : t -> Json.t

val components_to_json : component list -> Json.t
(** Just the component list — the per-cell embedding used by bench
    snapshots. *)

val components_of_json_list : Json.t -> (component list, string) result

val pp : Format.formatter -> t -> unit
(** Text table: per-component retained/unshared/sharing/share plus the
    set-population histogram. *)

(** {1 Comparison} *)

type breach = {
  b_name : string;
  b_base_words : int;
  b_cur_words : int;
  b_pct : float;
}

val compare_components :
  tol_pct:float -> baseline:component list -> current:component list ->
  breach list
(** Components of [baseline] whose retained words grew by more than
    [tol_pct] percent in [current].  Components absent from [current]
    or empty in [baseline] are skipped. *)
