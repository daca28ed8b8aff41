(* Order statistics, computed the way Python's
   [statistics.quantiles(data, n=k)] computes them (its default
   "exclusive" method), so the spreads printed here are the ones a
   reader recomputes from the per-pass values. *)

let sorted xs = List.sort Float.compare xs |> Array.of_list

(* The [k - 1] cut points dividing [xs] into [k] groups.  Needs at least
   two values; a single value is its own every cut point. *)
let cut_points k xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.cut_points: no values"
  else if n = 1 then List.init (k - 1) (fun _ -> a.(0))
  else
    List.init (k - 1) (fun i ->
        let i = i + 1 in
        let m = n + 1 in
        let j = max 1 (min (n - 1) (i * m / k)) in
        let delta = (i * m) - (j * k) in
        ((a.(j - 1) *. float_of_int (k - delta)) +. (a.(j) *. float_of_int delta))
        /. float_of_int k)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no values"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* 0 for no values, so a run whose requests all failed still reports. *)
let geomean = function
  | [] -> 0.
  | xs -> exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

let quartiles xs =
  match cut_points 4 xs with
  | [ q1; _; q3 ] -> (q1, median xs, q3)
  | _ -> assert false

(* Interquartile distance as a share of the median: the run-to-run
   spread the benchmark's bounds are compared against. *)
let spread xs =
  let q1, m, q3 = quartiles xs in
  if m = 0. then 0. else (q3 -. q1) /. m

(* The highest integer percentile with at least ten samples above it,
   once there are twenty samples. *)
let tail xs =
  let n = List.length xs in
  if n < 20 then None
  else
    let p = 100 * (n - 10) / n in
    Some (p, List.nth (cut_points 100 xs) (p - 1))
