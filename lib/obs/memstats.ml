type snapshot = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;
  top_heap_words : int;
  minor_heap_words : int;
  peak_rss_kb : int option;
}

(* [VmHWM] of /proc/self/status: the process's resident-set high-water
   mark, minor heap and runtime included.  [None] off Linux, or wherever
   the file cannot be read. *)
let peak_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> None
      | line ->
        (* "VmHWM:\t   12345 kB" *)
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          let value = String.trim (String.sub line 6 (String.length line - 6)) in
          match String.index_opt value ' ' with
          | Some i -> int_of_string_opt (String.sub value 0 i)
          | None -> int_of_string_opt value
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* Minor words are read last, after the rest of the snapshot has
   allocated, so an interval that starts with a snapshot counts none of
   it: the /proc read allocates by the lengths of its lines. *)
let snapshot () =
  let s = Gc.quick_stat () in
  let minor_heap_words = (Gc.get ()).Gc.minor_heap_size in
  let peak_rss_kb = peak_rss_kb () in
  {
    minor_words = Gc.minor_words ();
    promoted_words = s.Gc.promoted_words;
    major_words = s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    compactions = s.Gc.compactions;
    heap_words = s.Gc.heap_words;
    top_heap_words = s.Gc.top_heap_words;
    minor_heap_words;
    peak_rss_kb;
  }

type delta = {
  minor_allocated_words : float;
  promoted_delta_words : float;
  major_allocated_words : float;
  minor_collections_delta : int;
  major_collections_delta : int;
  compactions_delta : int;
  heap_words_after : int;
  peak_heap_words : int;
  minor_heap_words : int;
  peak_rss_kb : int option;
}

let diff ?peak ~before ~after () =
  {
    minor_allocated_words = after.minor_words -. before.minor_words;
    promoted_delta_words = after.promoted_words -. before.promoted_words;
    major_allocated_words = after.major_words -. before.major_words;
    minor_collections_delta = after.minor_collections - before.minor_collections;
    major_collections_delta = after.major_collections - before.major_collections;
    compactions_delta = after.compactions - before.compactions;
    heap_words_after = after.heap_words;
    (* An interval's peak can never be below the heap at either of its
       endpoints: a stale sampled peak (e.g. no tick in the interval)
       is clamped up rather than reported as an impossible value. *)
    peak_heap_words =
      max
        (Option.value ~default:after.heap_words peak)
        (max before.heap_words after.heap_words);
    minor_heap_words = after.minor_heap_words;
    peak_rss_kb = after.peak_rss_kb;
  }

(* ------------------------------------------------------------------ *)
(* Peak tracking                                                       *)
(* ------------------------------------------------------------------ *)

type tracker = { t_before : snapshot; t_peak : int ref }

(* The peak is sampled on budget ticks and at the end.  [top_heap_words]
   cannot serve: it is a process-global high-water mark that never
   resets between benchmark cells. *)
let start_tracking () =
  let before = snapshot () in
  { t_before = before; t_peak = ref before.heap_words }

let sample t =
  let h = (Gc.quick_stat ()).Gc.heap_words in
  if h > !(t.t_peak) then t.t_peak := h

let sampling t budget k =
  Budget.with_tick budget (fun n -> if n land 1023 = 0 then sample t) k

(* The end's minor words are read before anything here allocates. *)
let finish t =
  let minor_words = Gc.minor_words () in
  sample t;
  let after = { (snapshot ()) with minor_words } in
  diff ~peak:!(t.t_peak) ~before:t.t_before ~after ()

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let to_json ?load_minor_words d =
  Json.Obj
    (Option.fold load_minor_words ~none:[] ~some:(fun w ->
         [ ("load_minor_words", Json.Float w) ])
    @ [
        ("minor_allocated_words", Json.Float d.minor_allocated_words);
        ("promoted_words", Json.Float d.promoted_delta_words);
        ("major_allocated_words", Json.Float d.major_allocated_words);
        ("minor_collections", Json.Int d.minor_collections_delta);
        ("major_collections", Json.Int d.major_collections_delta);
        ("compactions", Json.Int d.compactions_delta);
        ("heap_words", Json.Int d.heap_words_after);
        ("peak_heap_words", Json.Int d.peak_heap_words);
        ("minor_heap_words", Json.Int d.minor_heap_words);
        ( "peak_rss_kb",
          match d.peak_rss_kb with Some kb -> Json.Int kb | None -> Json.Null );
      ])
