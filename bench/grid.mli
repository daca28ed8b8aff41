(** The paper's evaluation grids behind [pointsto bench].

    Every grid cell — one (benchmark, analysis) pair, solved three
    times — is measured in a fresh [pointsto bench cell] process
    ({!child}) that marshals its outcome back, so a cell's figures, its
    peak heap included, do not depend on the cells run before it.  The
    commands print to stdout; [table1] and [propbench] also write files
    to the working directory. *)

module Profile := Pta_workloads.Profile
module Snapshot := Pta_report.Bench_snapshot

val table1_analyses : string list
(** The Table-1 columns: the paper's 12 analyses plus [CS],
    [CS-2obj+H] and [AD-2obj+H]. *)

val prop_analyses : string list
(** The propagation grid's analysis spread. *)

type t
(** One grid run: the per-cell cutoff and the cells measured so far,
    shared by every command run on it. *)

val create : timeout_s:float -> t

val child : unit -> unit
(** The body of [pointsto bench cell]: read one request on stdin,
    measure it, write the outcome on stdout. *)

(** {1 Commands} *)

val table1 : t -> benchmarks:Profile.t list -> analyses:string list -> unit
(** Table 1; writes [table1.csv], [table1_stats.json] and
    [BENCH_table1.json]. *)

val propbench : t -> benchmarks:Profile.t list -> analyses:string list -> unit
(** The propagation grid; writes [BENCH_prop.json]. *)

val figure3 : t -> benchmarks:Profile.t list -> unit
val summary : t -> benchmarks:Profile.t list -> unit
val ablation : t -> unit
val futurework : t -> unit
val scaling : t -> unit

val micro : unit -> unit
(** Bechamel micro-benchmarks, run in this process. *)

val compare :
  t ->
  baseline_name:string ->
  baseline:Snapshot.t ->
  benchmarks:Profile.t list ->
  analyses:string list ->
  thresholds:Snapshot.thresholds ->
  delta_md:string option ->
  bool
(** Measure [benchmarks] x [analyses], gate them against the same cells
    of [baseline], print the report (and write it as Markdown to
    [delta_md]), and return whether any cell regressed. *)
