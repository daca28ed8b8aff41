(** Hot-spot tables over trace profiles.

    Renders the per-name aggregates of a {!Pta_obs.Trace.t} profile
    (rule firings for the Datalog engine, edge-kind batches for the
    native solver) as a top-K table sorted by cumulative time or
    allocation, with a share column and a crude bar — the per-rule
    hot-spot view of the paper's Table 1 cells. *)

type row = {
  name : string;  (** rule or edge-kind name *)
  events : int;  (** completed spans (firings / batches) *)
  delta : int;  (** cumulative delta (facts derived / objects moved) *)
  seconds : float;  (** cumulative wall time *)
  alloc_words : float;
      (** cumulative allocation (fresh words), when the sink captured
          it; [0.] renders as ["-"] *)
}

type sort = By_time | By_alloc

val sort_of_string : string -> (sort, string) result
(** ["time"] or ["alloc"]. *)

val render : ?top:int -> ?sort:sort -> title:string -> row list -> string
(** [render ~title rows] sorts [rows] by [seconds] (or [alloc_words]
    under [~sort:By_alloc]) descending, keeps the first [top] (default
    10), and renders a column-aligned table headed by [title].  The
    share column is always time share, relative to the sum over {e all}
    rows (so truncation never hides time: the footer reports how much
    the dropped rows account for). *)
