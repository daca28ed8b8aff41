(* Reachable-heap census: attribute live heap words to named components.

   The walk itself is delegated to [Obj.reachable_words], the runtime's
   physical-identity-aware traversal (shared blocks counted once per
   call).  Two aggregations on top of it give the two cost views:

   - retained: one cumulative-prefix walk per component boundary; the
     difference between consecutive prefixes is the words first reached
     through that component, so a block shared between components is
     charged exactly once, to the earliest owner in declaration order.
   - unshared: the per-root walks summed, so a block referenced from k
     roots is charged k times — the cost the same state would have if
     nothing were shared.

   [retained <= unshared] holds per component (every retained block is
   reachable from at least one of the component's roots), and the
   retained total equals one walk over all roots, which is at most the
   process's major heap at walk time. *)

type component = {
  comp_name : string;
  retained_words : int;
  unshared_words : int;
}

type hist = {
  h_bounds : int list;
  h_counts : int list;  (* one more than bounds; last = overflow *)
}

type t = {
  word_bytes : int;
  process_heap_words : int;
  components : component list;
  set_hist : hist option;
}

let current_schema_version = 1

let sharing_factor c =
  if c.retained_words <= 0 then 1.
  else float_of_int c.unshared_words /. float_of_int c.retained_words

let total_retained_words t =
  List.fold_left (fun acc c -> acc + c.retained_words) 0 t.components

let find t name =
  List.find_opt (fun c -> String.equal c.comp_name name) t.components

let bytes_of_words t w = w * t.word_bytes

(* ------------------------------------------------------------------ *)
(* Survey                                                              *)
(* ------------------------------------------------------------------ *)

(* Words of a root array of [n] live roots: [Obj.reachable_words]
   includes the array block itself (header + [n] fields); the empty
   array is the static atom and counts zero. *)
let prefix_words arr =
  let n = Array.length arr in
  if n = 0 then 0 else Obj.reachable_words (Obj.repr arr) - (n + 1)

let survey ?set_hist comps =
  (* Promote everything live out of the minor heap so the retained total
     is comparable to [heap_words] (major-heap words) at walk time. *)
  Gc.full_major ();
  let process_heap_words = (Gc.quick_stat ()).Gc.heap_words in
  let rec go prefix prev rev = function
    | [] -> List.rev rev
    | (comp_name, roots) :: rest ->
      let unshared_words =
        List.fold_left (fun acc r -> acc + Obj.reachable_words r) 0 roots
      in
      let prefix = List.rev_append roots prefix in
      (* Prefix order inside the array is irrelevant: only membership
         decides what a cumulative walk reaches. *)
      let acc = prefix_words (Array.of_list prefix) in
      let c = { comp_name; retained_words = acc - prev; unshared_words } in
      go prefix acc (c :: rev) rest
  in
  {
    word_bytes = Sys.word_size / 8;
    process_heap_words;
    components = go [] 0 [] comps;
    set_hist;
  }

(* ------------------------------------------------------------------ *)
(* Histogram helper                                                    *)
(* ------------------------------------------------------------------ *)

let pow2_bounds n = List.init n (fun i -> 1 lsl i)

let hist_of_values ~bounds values =
  let counts = Array.make (List.length bounds + 1) 0 in
  let barr = Array.of_list bounds in
  List.iter
    (fun v ->
      let rec slot i =
        if i >= Array.length barr then Array.length barr
        else if v <= barr.(i) then i
        else slot (i + 1)
      in
      let i = slot 0 in
      counts.(i) <- counts.(i) + 1)
    values;
  { h_bounds = bounds; h_counts = Array.to_list counts }

let hist_total h = List.fold_left ( + ) 0 h.h_counts

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let component_to_json c =
  Json.Obj
    [
      ("name", Json.String c.comp_name);
      ("retained_words", Json.Int c.retained_words);
      ("unshared_words", Json.Int c.unshared_words);
    ]

let hist_to_json h =
  Json.Obj
    [
      ("bounds", Json.List (List.map (fun b -> Json.Int b) h.h_bounds));
      ("counts", Json.List (List.map (fun n -> Json.Int n) h.h_counts));
    ]

let to_json t =
  Json.Obj
    ([
       ("schema_version", Json.Int current_schema_version);
       ("word_bytes", Json.Int t.word_bytes);
       ("live_heap_words", Json.Int t.process_heap_words);
       ("components", Json.List (List.map component_to_json t.components));
     ]
    @
    match t.set_hist with
    | None -> []
    | Some h -> [ ("intset_hist", hist_to_json h) ])

let ( let* ) r f = Result.bind r f

let field json name conv =
  match Option.bind (Json.member name json) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "census: missing or mistyped %S" name)

let component_of_json json =
  let* comp_name = field json "name" Json.to_str in
  let* retained_words = field json "retained_words" Json.to_int in
  let* unshared_words = field json "unshared_words" Json.to_int in
  if retained_words < 0 || unshared_words < 0 then
    Error (Printf.sprintf "census: negative words in component %S" comp_name)
  else Ok { comp_name; retained_words; unshared_words }

let hist_of_json json =
  let* h_bounds =
    field json "bounds" (fun j ->
        Option.map (List.filter_map Json.to_int) (Json.to_list j))
  in
  let* h_counts =
    field json "counts" (fun j ->
        Option.map (List.filter_map Json.to_int) (Json.to_list j))
  in
  if List.length h_counts <> List.length h_bounds + 1 then
    Error "census: intset_hist counts must have one more entry than bounds"
  else Ok { h_bounds; h_counts }

let components_of_json json =
  let* l = field json "components" Json.to_list in
  List.fold_left
    (fun acc j ->
      let* acc = acc in
      let* c = component_of_json j in
      Ok (c :: acc))
    (Ok []) l
  |> Result.map List.rev

let of_json json =
  let* v = field json "schema_version" Json.to_int in
  if v < 1 || v > current_schema_version then
    Error
      (Printf.sprintf "census: unsupported schema_version %d (max %d)" v
         current_schema_version)
  else
    let* word_bytes = field json "word_bytes" Json.to_int in
    let* process_heap_words = field json "live_heap_words" Json.to_int in
    let* components = components_of_json json in
    let* set_hist =
      match Json.member "intset_hist" json with
      | None -> Ok None
      | Some j -> Result.map Option.some (hist_of_json j)
    in
    Ok { word_bytes; process_heap_words; components; set_hist }

(* The snapshot embedding carries only the component list (the
   process-global context of a walk does not belong in a per-cell
   record). *)
let components_to_json cs = Json.List (List.map component_to_json cs)

let components_of_json_list json =
  match Json.to_list json with
  | None -> Error "census: components must be a list"
  | Some l ->
    List.fold_left
      (fun acc j ->
        let* acc = acc in
        let* c = component_of_json j in
        Ok (c :: acc))
      (Ok []) l
    |> Result.map List.rev

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp ppf t =
  let line fmt = Format.fprintf ppf fmt in
  let total = total_retained_words t in
  line "@[<v>heap census (words; %d-byte words):@," t.word_bytes;
  line "  %-20s %12s %12s %8s %7s@," "component" "retained" "unshared"
    "sharing" "share";
  List.iter
    (fun c ->
      line "  %-20s %12d %12d %7.2fx %6.1f%%@," c.comp_name c.retained_words
        c.unshared_words (sharing_factor c)
        (if total = 0 then 0.
         else 100. *. float_of_int c.retained_words /. float_of_int total))
    t.components;
  line "  %-20s %12d@," "total" total;
  (* The whole process's major heap, free space included: the
     "outside solver" row is what no component reaches, such as the
     program, the caller's own state, the cons table and free blocks. *)
  line "  %-20s %12d@," "outside solver" (t.process_heap_words - total);
  line "  %-20s %12d@," "process heap" t.process_heap_words;
  (match t.set_hist with
  | None -> ()
  | Some h ->
    line "  points-to set populations (%d sets):@," (hist_total h);
    let rec rows lo bounds counts =
      match (bounds, counts) with
      | b :: bs, n :: ns ->
        if n > 0 then line "    %7d..%-7d %9d@," lo b n;
        rows (b + 1) bs ns
      | [], [ n ] -> if n > 0 then line "    %7d..%-7s %9d@," lo "inf" n
      | _ -> ()
    in
    rows 0 h.h_bounds h.h_counts);
  line "@]"

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

type breach = {
  b_name : string;
  b_base_words : int;
  b_cur_words : int;
  b_pct : float;
}

let compare_components ~tol_pct ~baseline ~current =
  List.filter_map
    (fun (b : component) ->
      match
        List.find_opt
          (fun c -> String.equal c.comp_name b.comp_name)
          current
      with
      | None -> None
      | Some c ->
        if b.retained_words <= 0 then None
        else
          let pct =
            (float_of_int c.retained_words -. float_of_int b.retained_words)
            /. float_of_int b.retained_words *. 100.
          in
          if pct > tol_pct then
            Some
              {
                b_name = b.comp_name;
                b_base_words = b.retained_words;
                b_cur_words = c.retained_words;
                b_pct = pct;
              }
          else None)
    baseline
