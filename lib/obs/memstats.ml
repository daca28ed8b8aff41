type snapshot = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;
  top_heap_words : int;
}

let snapshot () =
  let s = Gc.quick_stat () in
  {
    minor_words = s.Gc.minor_words;
    promoted_words = s.Gc.promoted_words;
    major_words = s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
    compactions = s.Gc.compactions;
    heap_words = s.Gc.heap_words;
    top_heap_words = s.Gc.top_heap_words;
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
       endpoints: a stale sampled peak (e.g. an alarm that never fired)
       is clamped up rather than reported as an impossible value. *)
    peak_heap_words =
      max
        (Option.value ~default:after.heap_words peak)
        (max before.heap_words after.heap_words);
  }

(* ------------------------------------------------------------------ *)
(* Peak tracking                                                       *)
(* ------------------------------------------------------------------ *)

type tracker = {
  t_before : snapshot;
  t_peak : int ref;
  alarm : Gc.alarm;
}

(* The alarm fires at the end of every major collection cycle — exactly
   the instants where the live major heap peaks before being trimmed —
   so sampling [heap_words] there catches the per-run major-heap peak
   that a before/after diff misses.  [top_heap_words] cannot serve: it
   is a process-global high-water mark that never resets between
   benchmark cells. *)
let start_tracking () =
  let before = snapshot () in
  let peak = ref before.heap_words in
  let alarm =
    Gc.create_alarm (fun () ->
        let h = (Gc.quick_stat ()).Gc.heap_words in
        if h > !peak then peak := h)
  in
  { t_before = before; t_peak = peak; alarm }

let sample t =
  let h = (Gc.quick_stat ()).Gc.heap_words in
  if h > !(t.t_peak) then t.t_peak := h

let finish t =
  Gc.delete_alarm t.alarm;
  sample t;
  diff ~peak:!(t.t_peak) ~before:t.t_before ~after:(snapshot ()) ()

let tracked f =
  let t = start_tracking () in
  match f () with
  | v -> (v, finish t)
  | exception exn ->
    let (_ : delta) = finish t in
    raise exn

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let to_json d =
  Json.Obj
    [
      ("minor_allocated_words", Json.Float d.minor_allocated_words);
      ("promoted_words", Json.Float d.promoted_delta_words);
      ("major_allocated_words", Json.Float d.major_allocated_words);
      ("minor_collections", Json.Int d.minor_collections_delta);
      ("major_collections", Json.Int d.major_collections_delta);
      ("compactions", Json.Int d.compactions_delta);
      ("heap_words", Json.Int d.heap_words_after);
      ("peak_heap_words", Json.Int d.peak_heap_words);
    ]

let of_json json =
  let ( let* ) r f = Result.bind r f in
  let field name conv =
    match Option.bind (Json.member name json) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "memory JSON: missing or mistyped %S" name)
  in
  let* minor_allocated_words = field "minor_allocated_words" Json.to_float in
  let* promoted_delta_words = field "promoted_words" Json.to_float in
  let* major_allocated_words = field "major_allocated_words" Json.to_float in
  let* minor_collections_delta = field "minor_collections" Json.to_int in
  let* major_collections_delta = field "major_collections" Json.to_int in
  let* compactions_delta = field "compactions" Json.to_int in
  let* heap_words_after = field "heap_words" Json.to_int in
  let* peak_heap_words = field "peak_heap_words" Json.to_int in
  Ok
    {
      minor_allocated_words;
      promoted_delta_words;
      major_allocated_words;
      minor_collections_delta;
      major_collections_delta;
      compactions_delta;
      heap_words_after;
      peak_heap_words;
    }

let pp ppf d =
  let line fmt = Format.fprintf ppf fmt in
  line "@[<v>memory:@,";
  line "  %-22s %12.0f@," "minor alloc (words)" d.minor_allocated_words;
  line "  %-22s %12.0f@," "major alloc (words)" d.major_allocated_words;
  line "  %-22s %12.0f@," "promoted (words)" d.promoted_delta_words;
  line "  %-22s %12d@," "minor collections" d.minor_collections_delta;
  line "  %-22s %12d@," "major collections" d.major_collections_delta;
  line "  %-22s %12d@," "compactions" d.compactions_delta;
  line "  %-22s %12d@," "peak heap (words)" d.peak_heap_words;
  line "@]"
