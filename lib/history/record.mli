(** One bench-history ledger record: the per-cell measurements of one
    benchmark run, keyed by the build stamp of the binary that produced
    them.

    A record is a benchmark snapshot ({!Pta_report.Bench_snapshot})
    plus provenance: its cells are the snapshot's cells verbatim, under
    the snapshot's [schema_version].  Snapshots are the working files a
    bench run overwrites in place; the ledger is the append-only archive
    those runs accumulate into ([bench/history.jsonl]).  {!of_json} is
    strict — a record of another schema version, or with a
    missing/mistyped field, is rejected rather than half-read, because a
    silently misparsed ledger line poisons every trend computed over
    it. *)

module Json := Pta_obs.Json
module Snapshot := Pta_report.Bench_snapshot

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
(** A coarse host fingerprint.  Trend and bisect judge a record only
    against earlier records with an equal host, so a ledger may mix
    machines (CI appends [github-hosted] records to a copy of the dev
    ledger).  [hostname] honours [$PTA_BENCH_HOST] so CI and tests can
    pin a stable name. *)

val current_host : unit -> host

type t = {
  seq : int;  (** position in the ledger; assigned by {!Ledger.append} *)
  timestamp : float option;  (** unix seconds; [None] on synthetic records *)
  note : string option;  (** free-form provenance, e.g. ["ci"] *)
  timeout_s : float;
  build : build;
  host : host;
  cells : Snapshot.cell list;
}

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
(** Strict: rejects every schema version but
    {!Snapshot.current_schema_version} (naming it), and missing or
    mistyped fields (including malformed [time_hist] blocks). *)

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
    appending — and is required: a stamp-less snapshot is refused,
    because an untraceable ledger record is worse than none.  A
    ["-dirty"]-suffixed commit or an explicit [dirty] flag in the stamp
    both mark the record dirty. *)

val cell_find :
  t -> benchmark:string -> analysis:string -> Snapshot.cell option
