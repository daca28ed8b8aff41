(* Allocation marks: a [Gc.quick_stat] reading taken at span begin when
   the sink was created with [~alloc:true].  The distinguished
   [null_mark] (compared physically) means "not captured" — sinks with
   allocation accounting off, and the null sink, hand it out so the
   close path can skip the second reading without a flag argument. *)
type alloc_mark = {
  am_minor : float;
  am_promoted : float;
  am_major : float;
}

let null_mark = { am_minor = 0.; am_promoted = 0.; am_major = 0. }

type ev =
  | Begin of { cat : string; name : string; ts : float }
  | End of { name : string; ts : float; alloc : (float * float) option }
  | Complete of {
      cat : string;
      name : string;
      ts : float;
      dur : float;
      delta : int option;
      alloc : (float * float) option;  (* minor, major allocated words *)
    }
  | Instant of { cat : string; name : string; ts : float }
  | Counter of { cat : string; name : string; ts : float; value : float }

type agg = {
  mutable a_events : int;
  mutable a_us : float;
  mutable a_delta : int;
  mutable a_minor_w : float;
  mutable a_promoted_w : float;
  mutable a_major_w : float;
}

type t = {
  mutable buf : ev array;
  mutable head : int;  (* index of the oldest retained event *)
  mutable len : int;
  limit : int;  (* ring capacity ceiling; [buf] grows up to it *)
  mutable dropped : int;
  clock : Clock.t;  (* per-sink epoch, monotone-clamped *)
  alloc : bool;  (* capture GC allocation deltas per span *)
  open_spans : (string * string * float * alloc_mark) Stack.t;
      (* cat, name, t0, allocation mark at begin *)
  aggs : (string * string, agg) Hashtbl.t;
}

let dummy = Instant { cat = ""; name = ""; ts = 0. }

let null =
  {
    buf = [||];
    head = 0;
    len = 0;
    limit = 0;
    dropped = 0;
    clock = Clock.create ();
    alloc = false;
    open_spans = Stack.create ();
    aggs = Hashtbl.create 1;
  }

let is_null t = t == null

let default_limit = 1 lsl 18

let create ?(limit = default_limit) ?(alloc = false) () =
  let limit = max 16 limit in
  {
    buf = Array.make (min 1024 limit) dummy;
    head = 0;
    len = 0;
    limit;
    dropped = 0;
    clock = Clock.create ();
    alloc;
    open_spans = Stack.create ();
    aggs = Hashtbl.create 64;
  }

let now_us t = Clock.now_us t.clock

let alloc_enabled t = t.alloc

(* [Gc.quick_stat]'s [minor_words] is only flushed at minor collections;
   [Gc.minor_words ()] reads the allocation pointer, so short spans that
   never cross a minor GC still get an exact figure. *)
let alloc_mark t =
  if t.alloc then begin
    let s = Gc.quick_stat () in
    {
      am_minor = Gc.minor_words ();
      am_promoted = s.Gc.promoted_words;
      am_major = s.Gc.major_words;
    }
  end
  else null_mark

(* Allocation since [mark]: [None] when the mark is the shared null
   (accounting off at begin time). *)
let alloc_since mark =
  if mark == null_mark then None
  else
    let s = Gc.quick_stat () in
    Some
      ( Gc.minor_words () -. mark.am_minor,
        s.Gc.promoted_words -. mark.am_promoted,
        s.Gc.major_words -. mark.am_major )

let push t ev =
  let cap = Array.length t.buf in
  if t.len = cap && cap < t.limit then begin
    (* Grow: unroll the ring into a larger flat array. *)
    let ncap = min t.limit (cap * 2) in
    let nbuf = Array.make ncap dummy in
    for i = 0 to t.len - 1 do
      nbuf.(i) <- t.buf.((t.head + i) mod cap)
    done;
    t.buf <- nbuf;
    t.head <- 0
  end;
  let cap = Array.length t.buf in
  if t.len = cap then begin
    (* At the ceiling: overwrite the oldest event. *)
    t.buf.(t.head) <- ev;
    t.head <- (t.head + 1) mod cap;
    t.dropped <- t.dropped + 1
  end
  else begin
    t.buf.((t.head + t.len) mod cap) <- ev;
    t.len <- t.len + 1
  end

let agg t cat name =
  match Hashtbl.find_opt t.aggs (cat, name) with
  | Some a -> a
  | None ->
    let a =
      {
        a_events = 0;
        a_us = 0.;
        a_delta = 0;
        a_minor_w = 0.;
        a_promoted_w = 0.;
        a_major_w = 0.;
      }
    in
    Hashtbl.add t.aggs (cat, name) a;
    a

let bump t cat name ~us ~delta alloc =
  let a = agg t cat name in
  a.a_events <- a.a_events + 1;
  a.a_us <- a.a_us +. us;
  a.a_delta <- a.a_delta + delta;
  match alloc with
  | None -> ()
  | Some (minor, promoted, major) ->
    a.a_minor_w <- a.a_minor_w +. minor;
    (* Promotion is charged against the span's own major words, never
       more: on OCaml 5 a minor collection inside the span can report
       promoted words before they show up in [major_words], and the
       surplus would take fresh words off the span — below its exact
       minor count, even below 0.  So a span's direct-major term,
       [major - promoted], is clamped at 0 per span. *)
    a.a_promoted_w <- a.a_promoted_w +. Float.min promoted major;
    a.a_major_w <- a.a_major_w +. major

let begin_span t ~cat name =
  if t != null then begin
    let ts = now_us t in
    Stack.push (cat, name, ts, alloc_mark t) t.open_spans;
    push t (Begin { cat; name; ts })
  end

let end_span ?(delta = 0) t =
  if t != null then
    match Stack.pop_opt t.open_spans with
    | None -> ()
    | Some (cat, name, t0, mark) ->
      let ts = now_us t in
      let alloc = alloc_since mark in
      push t
        (End
           {
             name;
             ts;
             alloc = Option.map (fun (mi, _, ma) -> (mi, ma)) alloc;
           });
      bump t cat name ~us:(ts -. t0) ~delta alloc

let span t ~cat name f =
  if t == null then f ()
  else begin
    begin_span t ~cat name;
    Fun.protect ~finally:(fun () -> end_span t) f
  end

let complete ?delta ?(alloc = null_mark) t ~cat ~name ~t0_us ~dur_us =
  if t != null then begin
    let alloc = alloc_since alloc in
    push t
      (Complete
         {
           cat;
           name;
           ts = t0_us;
           dur = dur_us;
           delta;
           alloc = Option.map (fun (mi, _, ma) -> (mi, ma)) alloc;
         });
    bump t cat name ~us:dur_us ~delta:(Option.value ~default:0 delta) alloc
  end

let instant t ~cat name =
  if t != null then push t (Instant { cat; name; ts = now_us t })

let counter t ~cat name value =
  if t != null then push t (Counter { cat; name; ts = now_us t; value })

type stat = {
  stat_cat : string;
  stat_name : string;
  events : int;
  delta : int;
  seconds : float;
  minor_words : float;
  promoted_words : float;
  major_words : float;
}

let stat_alloc_words s = s.minor_words +. s.major_words -. s.promoted_words

let profile t =
  Hashtbl.fold
    (fun (cat, name) a acc ->
      {
        stat_cat = cat;
        stat_name = name;
        events = a.a_events;
        delta = a.a_delta;
        seconds = a.a_us /. 1e6;
        minor_words = a.a_minor_w;
        promoted_words = a.a_promoted_w;
        major_words = a.a_major_w;
      }
      :: acc)
    t.aggs []
  |> List.sort (fun a b ->
         match compare b.seconds a.seconds with
         | 0 -> compare (a.stat_cat, a.stat_name) (b.stat_cat, b.stat_name)
         | c -> c)

let n_events t = t.len
let dropped t = t.dropped

let iter t f =
  let cap = Array.length t.buf in
  for i = 0 to t.len - 1 do
    f t.buf.((t.head + i) mod cap)
  done

let to_chrome_json t =
  let common ~name ~ph ~ts rest =
    Json.Obj
      (("name", Json.String name)
      :: ("ph", Json.String ph)
      :: ("ts", Json.Float ts)
      :: ("pid", Json.Int 1)
      :: ("tid", Json.Int 1)
      :: rest)
  in
  let cat c = ("cat", Json.String c) in
  let alloc_args = function
    | None -> []
    | Some (minor, major) ->
      [
        ("alloc_minor_w", Json.Float minor); ("alloc_major_w", Json.Float major);
      ]
  in
  let args = function
    | [] -> []
    | fields -> [ ("args", Json.Obj fields) ]
  in
  let events = ref [] in
  iter t (fun ev ->
      let j =
        match ev with
        | Begin { cat = c; name; ts } -> common ~name ~ph:"B" ~ts [ cat c ]
        | End { name; ts; alloc } ->
          common ~name ~ph:"E" ~ts (args (alloc_args alloc))
        | Complete { cat = c; name; ts; dur; delta; alloc } ->
          let fields =
            (match delta with
            | None -> []
            | Some d -> [ ("delta", Json.Int d) ])
            @ alloc_args alloc
          in
          common ~name ~ph:"X" ~ts
            (cat c :: ("dur", Json.Float dur) :: args fields)
        | Instant { cat = c; name; ts } ->
          common ~name ~ph:"i" ~ts [ cat c; ("s", Json.String "t") ]
        | Counter { cat = c; name; ts; value } ->
          common ~name ~ph:"C" ~ts
            [ cat c; ("args", Json.Obj [ ("value", Json.Float value) ]) ]
      in
      events := j :: !events);
  Json.List (List.rev !events)
