(* The host-speed reference: a fixed kernel, timed in a fresh process
   that links none of the analysis's code, so no change to the program
   can change its speed.  [run] starts one after every few untraced
   requests and scales the requests' times by how fast the host ran it.

   Usage: calib SECONDS — repeat the kernel until SECONDS have passed,
   at least once, and reply with the mean CPU time of one repetition,
   marshalled like a child's reply. *)

(* The kernel mixes three kinds of work the analysis does, each taking
   about a third of it.  Alone, each tracked some workloads' slowdowns
   and not others'. *)

(* Hashing: string keys into a table, sorted and looked up again. *)
let hashing () =
  let n = 4000 in
  let key i = string_of_int (i * 7919 mod 100_003) in
  let h = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    Hashtbl.replace h (key i) [ i; i + 1 ]
  done;
  let sorted = List.sort compare (List.init n key) in
  List.fold_left (fun hits k -> if Hashtbl.mem h k then hits + 1 else hits) 0 sorted

(* Memory: a fresh 2 MiB array, then a dependent walk over it, each
   step to an address the walk cannot predict. *)
let chasing () =
  let n = 1 lsl 18 in
  let next = Array.init n (fun i -> ((i * 1103515245) + 12345) land (n - 1)) in
  let p = ref 0 in
  for _ = 1 to 1 lsl 14 do
    p := next.(!p)
  done;
  !p

(* Allocation: a persistent map grown one binding at a time. *)
module Int_map = Map.Make (Int)

let mapping () =
  let m = ref Int_map.empty in
  for i = 0 to 5000 do
    m := Int_map.add (i * 7919 mod 1_000_003) [ i ] !m
  done;
  Int_map.fold (fun k _ acc -> acc + k) !m 0

let kernel () = hashing () + chasing () + mapping ()

(* Process CPU time, which leaves out the time the hypervisor takes the
   CPU away: that is measured on its own, around each request. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let () =
  let seconds = float_of_string Sys.argv.(1) in
  let t0 = Unix.gettimeofday () and cpu0 = cpu_now () in
  let rec repeat reps =
    ignore (Sys.opaque_identity (kernel ()));
    if Unix.gettimeofday () -. t0 >= seconds then reps else repeat (reps + 1)
  in
  let reps = repeat 1 in
  let per_rep = (cpu_now () -. cpu0) /. float_of_int reps in
  Marshal.to_channel stdout (Ok per_rep : (float, string) result) [];
  flush stdout
