type abort = {
  elapsed_s : float;
  iterations : int;
  nodes : int;
}

exception Exhausted of abort

type t = {
  timeout_s : float option;
  mutable deadline : float;  (* vs the clock's elapsed_s; infinity = none *)
  mutable clock : Clock.t;
  mutable ticks : int;
  mutable cancelled : bool;
  mutable probe : unit -> int;
  mutable on_tick : int -> unit;
}

(* Poll the clock every [mask + 1] ticks; cancellation is checked on
   every tick regardless. *)
let mask = 0xFFF

let no_tick (_ : int) = ()

let make timeout_s =
  {
    timeout_s;
    deadline = infinity;
    clock = Clock.create ();
    ticks = 0;
    cancelled = false;
    probe = (fun () -> 0);
    on_tick = no_tick;
  }

let unlimited () = make None
let of_seconds s = make (Some s)
let of_seconds_opt = make

let start b ~probe =
  b.clock <- Clock.create ();
  b.deadline <- (match b.timeout_s with Some s -> s | None -> infinity);
  b.ticks <- 0;
  b.cancelled <- false;
  b.probe <- probe

let stop b =
  let n = b.probe () in
  b.probe <- (fun () -> n)

let elapsed_s b = Clock.elapsed_s b.clock
let iterations b = b.ticks

let abort_info b =
  { elapsed_s = elapsed_s b; iterations = b.ticks; nodes = b.probe () }

let exhaust b = raise (Exhausted (abort_info b))

let tick b =
  if b.cancelled then exhaust b;
  let n = b.ticks + 1 in
  b.ticks <- n;
  if b.on_tick != no_tick then b.on_tick n;
  if
    b.deadline < infinity && n land mask = 0
    && Clock.elapsed_s b.clock > b.deadline
  then exhaust b

let check b =
  if b.cancelled then exhaust b;
  b.ticks <- b.ticks + 1;
  if b.on_tick != no_tick then b.on_tick b.ticks;
  if b.deadline < infinity && Clock.elapsed_s b.clock > b.deadline then
    exhaust b

let cancel b = b.cancelled <- true

let on_tick b f =
  let installed = b.on_tick in
  b.on_tick <-
    (if installed == no_tick then f
     else fun n ->
       installed n;
       f n)

let with_tick b f k =
  let installed = b.on_tick in
  on_tick b f;
  match k () with
  | v ->
    b.on_tick <- installed;
    v
  | exception e ->
    b.on_tick <- installed;
    raise e

let is_limited b = b.timeout_s <> None
