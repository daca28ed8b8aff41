(* An array of LIFO buckets indexed by priority, with a cursor tracking
   a lower bound on the lowest nonempty bucket.  [push] below the cursor
   pulls it back; [pop] advances it over empty buckets.  Since the
   solver's priorities only shift at (rare) reprioritization points —
   which rebuild the queue from scratch — the cursor scans each bucket
   index O(1) times between rebuilds. *)

type t = {
  mutable buckets : int list array;
  mutable cursor : int;  (* no nonempty bucket strictly below this *)
  mutable len : int;
}

let create () = { buckets = Array.make 16 []; cursor = 0; len = 0 }

let grow t want =
  let cap = Array.length t.buckets in
  let cap' = ref (2 * cap) in
  while want >= !cap' do
    cap' := 2 * !cap'
  done;
  let b = Array.make !cap' [] in
  Array.blit t.buckets 0 b 0 cap;
  t.buckets <- b

let push t ~prio nid =
  let prio = if prio < 0 then 0 else prio in
  if prio >= Array.length t.buckets then grow t prio;
  t.buckets.(prio) <- nid :: t.buckets.(prio);
  if prio < t.cursor then t.cursor <- prio;
  t.len <- t.len + 1

let is_empty t = t.len = 0
let length t = t.len

let pop t =
  if t.len = 0 then invalid_arg "Pqueue.pop: empty";
  while t.buckets.(t.cursor) == [] do
    t.cursor <- t.cursor + 1
  done;
  match t.buckets.(t.cursor) with
  | nid :: rest ->
    t.buckets.(t.cursor) <- rest;
    t.len <- t.len - 1;
    nid
  | [] -> assert false

let clear t =
  Array.fill t.buckets 0 (Array.length t.buckets) [];
  t.cursor <- 0;
  t.len <- 0
