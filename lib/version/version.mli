(** Build identity: semantic version plus the git commit, a dirty-worktree
    flag, the OCaml compiler version, and the dune profile the binary was
    built with.  Stamped into [--stats-json] documents and benchmark
    snapshots so a recorded number can always be traced back to the
    build that produced it. *)

(** Short git commit hash, or ["unknown"] outside a checkout.  Carries a
    ["-dirty"] suffix when the worktree had uncommitted changes to
    tracked files at build time — such numbers are not reproducible from
    the hash alone. *)
val commit : string

(** True when tracked files differed from HEAD at build time. *)
val dirty : bool

(** Dune build profile (["release"], ["dev"], ...). *)
val profile : string

val ocaml : string

(** [{"version"; "commit"; "dirty"; "ocaml"; "profile"}] — the stamp
    embedded in snapshots and stats documents.  [commit] carries the
    dirty suffix; [dirty] repeats it as a boolean for machine readers. *)
val to_json : unit -> Pta_obs.Json.t

val to_string : unit -> string
