type row = {
  name : string;
  events : int;
  delta : int;
  seconds : float;
  alloc_words : float;
}

type sort = By_time | By_alloc

let sort_of_string = function
  | "time" -> Ok By_time
  | "alloc" -> Ok By_alloc
  | s -> Error (Printf.sprintf "unknown sort %S (expected time or alloc)" s)

let bar_width = 20

let bar share =
  let n = int_of_float ((share *. float_of_int bar_width) +. 0.5) in
  String.make (max 0 (min bar_width n)) '#'

(* Allocation is words (not bytes): the number [Gc.quick_stat] deals
   in, and the unit the census tables use. *)
let fmt_alloc w =
  if w <= 0. then "-"
  else if w >= 1e6 then Printf.sprintf "%.1fMw" (w /. 1e6)
  else if w >= 1e3 then Printf.sprintf "%.1fkw" (w /. 1e3)
  else Printf.sprintf "%.0fw" w

let render ?(top = 10) ?(sort = By_time) ~title rows =
  let key r = match sort with By_time -> r.seconds | By_alloc -> r.alloc_words in
  let rows =
    List.sort
      (fun a b ->
        match compare (key b) (key a) with
        | 0 -> compare a.name b.name
        | c -> c)
      rows
  in
  let total = List.fold_left (fun acc r -> acc +. r.seconds) 0. rows in
  let shown, hidden =
    if List.length rows <= top then (rows, [])
    else (List.filteri (fun i _ -> i < top) rows, List.filteri (fun i _ -> i >= top) rows)
  in
  let share r = if total > 0. then r.seconds /. total else 0. in
  let table =
    Table.create
      ~headers:[ title; "events"; "delta"; "time (s)"; "alloc"; "share"; "" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.name;
          string_of_int r.events;
          string_of_int r.delta;
          Printf.sprintf "%.4f" r.seconds;
          fmt_alloc r.alloc_words;
          Printf.sprintf "%5.1f%%" (100. *. share r);
          bar (share r);
        ])
    shown;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Table.render table);
  (match hidden with
  | [] -> ()
  | _ ->
    let rest = List.fold_left (fun acc r -> acc +. r.seconds) 0. hidden in
    Buffer.add_string buf
      (Printf.sprintf "... %d more (%.4f s, %.1f%%)\n" (List.length hidden)
         rest
         (if total > 0. then 100. *. rest /. total else 0.)));
  Buffer.contents buf
