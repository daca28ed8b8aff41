(** One bench-history ledger record: the per-cell measurements of one
    benchmark run, keyed by the build stamp of the binary that produced
    them.

    Records are schema-versioned independently of the snapshot codec
    ({!Pta_report.Bench_snapshot}): snapshots are the working files a
    bench run overwrites in place, the ledger is the append-only
    archive those runs accumulate into ([bench/history.jsonl]), and the
    two evolve at different speeds.  {!of_json} is strict — a record
    from a future schema, or with a missing/mistyped field, is rejected
    rather than half-read, because a silently misparsed ledger line
    poisons every trend computed over it. *)

module Json := Pta_obs.Json
module Snapshot := Pta_report.Bench_snapshot

val current_schema_version : int
(** 3.  v2 adds the optional per-cell [heap_components] census block.
    v3 once added per-cell [jobs]/[domains] and the host's [cores] for
    a parallel drain that has since been removed; sequential v3 records
    are unchanged.  {!of_json} ignores a [cores] stamp and refuses a
    cell whose [jobs] or [domains] is not 1. *)

type build = {
  semver : string;
  commit : string;  (** bare short hash, or ["unknown"] *)
  dirty : bool;  (** built from a worktree with uncommitted changes *)
  ocaml : string;
  profile : string;  (** dune profile *)
}

val commit_label : build -> string
(** [commit] with the ["-dirty"] suffix restored when [dirty]. *)

type host = {
  os_type : string;  (** [Sys.os_type] *)
  word_size : int;  (** [Sys.word_size] *)
  hostname : string;
}
(** A coarse host fingerprint, recorded so a reader can see where a
    record was measured.  Trend and bisect do not filter by host: a
    ledger that mixes machines mixes their timings in windows and
    anchors, so keep one ledger per machine.  [hostname] honours
    [$PTA_BENCH_HOST] so CI and tests can pin a stable name. *)

val current_host : unit -> host

type cell = {
  benchmark : string;
  analysis : string;
  timed_out : bool;
  time_s : float;  (** best wall time, or elapsed-at-abort for timeouts *)
  iterations : int;
  nodes : int option;
  peak_heap_words : int option;
  time_hist : Snapshot.hist option;
      (** distribution of the individual timed solves (exponential
          buckets, {!Pta_metrics.Registry.time_buckets} ladder) *)
  heap_components : Pta_obs.Census.component list;
      (** v2: reachable-heap census of the solved state; [[]] when the
          run (or a v1 record) carried none *)
}

type t = {
  schema_version : int;
  seq : int;  (** position in the ledger; assigned by {!Ledger.append} *)
  timestamp : float option;  (** unix seconds; [None] on synthetic records *)
  note : string option;  (** free-form provenance, e.g. ["ci"] *)
  timeout_s : float;
  build : build;
  host : host;
  cells : cell list;
}

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
(** Strict: rejects unsupported schema versions, missing or mistyped
    fields (including malformed [time_hist] blocks), and parallel
    cells. *)

val of_snapshot :
  seq:int ->
  ?timestamp:float ->
  ?note:string ->
  host:host ->
  Snapshot.t ->
  (t, string) result
(** Build a record from a bench snapshot ([BENCH_table1.json] /
    [BENCH_prop.json]).  The build stamp is taken from the snapshot's
    own [pointsto] field — the binary that {e measured}, not the one
    appending — and is required: a stamp-less (v1) snapshot is refused,
    because an untraceable ledger record is worse than none.  A
    ["-dirty"]-suffixed commit or an explicit [dirty] flag in the stamp
    both mark the record dirty. *)

val cell_find : t -> benchmark:string -> analysis:string -> cell option
