(* The option matrix of the pointsto CLI: for every subcommand but
   [bench], one line with its sorted long options, read off its
   `--help=plain` page.  `cli_flags POINTSTO` prints the matrix; the
   golden diff in this directory turns any added, removed or renamed
   option into a visible test change. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let help exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let rec lines acc =
    match input_line ic with
    | line -> lines (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> fail "%s %s failed" exe (String.concat " " args)

(* The lines of one man-page section: from its all-caps title to the
   next unindented line. *)
let section title lines =
  let rec skip = function
    | [] -> []
    | l :: rest -> if String.equal l title then take [] rest else skip rest
  and take acc = function
    | l :: rest when l = "" || l.[0] = ' ' -> take (l :: acc) rest
    | _ -> List.rev acc
  in
  skip lines

(* Entry headings sit at a seven-space indent; their prose at eleven. *)
let headings lines =
  List.filter
    (fun l ->
      String.length l > 7
      && String.equal (String.sub l 0 7) (String.make 7 ' ')
      && l.[7] <> ' ')
    lines

let long_options line =
  let n = String.length line in
  let is_opt_char c = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' in
  let rec scan i acc =
    if i + 2 >= n then acc
    else if line.[i] = '-' && line.[i + 1] = '-' && (i = 0 || line.[i - 1] = ' ')
    then begin
      let j = ref (i + 2) in
      while !j < n && is_opt_char line.[!j] do incr j done;
      scan !j (String.sub line i (!j - i) :: acc)
    end
    else scan (i + 1) acc
  in
  scan 0 []

let () =
  let exe =
    match Sys.argv with
    | [| _; exe |] -> exe
    | _ -> fail "usage: cli_flags POINTSTO"
  in
  let commands =
    help exe [ "--help=plain" ]
    |> section "COMMANDS" |> headings
    |> List.map (fun l -> List.hd (String.split_on_char ' ' (String.trim l)))
    |> List.filter (fun c -> not (String.equal c "bench"))
  in
  List.iter
    (fun cmd ->
      let opts =
        help exe [ cmd; "--help=plain" ]
        |> section "OPTIONS" |> headings
        |> List.concat_map long_options
        |> List.sort_uniq String.compare
      in
      Printf.printf "%s: %s\n" cmd (String.concat " " opts))
    commands
