(** The monotone-clamped wall clock shared by every timing site in the
    observability stack.

    A clock owns an epoch (its creation instant) and clamps readings to
    be monotone non-decreasing, so durations never come out negative
    even if the wall clock steps backwards mid-run.  {!Trace},
    {!Budget}, the solver's phase timings and the driver all read
    through this module instead of carrying their own
    [Unix.gettimeofday] + clamp logic. *)

type t

val create : unit -> t
(** A fresh clock whose epoch is now. *)

val now_us : t -> float
(** Microseconds since the clock's epoch, clamped monotone. *)

val elapsed_s : t -> float
(** Seconds since the clock's epoch, clamped monotone (never
    negative). *)

val timed : (unit -> 'a) -> 'a * float
(** [timed f] runs [f] under a fresh clock and returns its result with
    the elapsed seconds. *)
