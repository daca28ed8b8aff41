type term =
  | V of int
  | C of int

type atom = { rel : Relation.t; args : term array }

type head_term =
  | Hv of int
  | Hc of int
  | Hf of (int array -> int)

type head = { hrel : Relation.t; hargs : head_term array }

type rule = {
  rname : string;
  n_vars : int;
  heads : head list;
  body : atom list;
}

let rule rname ~n_vars heads body = { rname; n_vars; heads; body }

(* ------------------------------------------------------------------ *)
(* Matching                                                            *)
(* ------------------------------------------------------------------ *)

(* Try to extend [env] so that [atom]'s args match [fact]; returns the
   variables newly bound (for backtracking) or None. *)
let match_fact env (atom : atom) fact =
  let bound = ref [] in
  let ok = ref true in
  let n = Array.length atom.args in
  let i = ref 0 in
  while !ok && !i < n do
    (match atom.args.(!i) with
    | C c -> if fact.(!i) <> c then ok := false
    | V v ->
      if env.(v) = -1 then begin
        env.(v) <- fact.(!i);
        bound := v :: !bound
      end
      else if env.(v) <> fact.(!i) then ok := false);
    incr i
  done;
  if !ok then Some !bound
  else begin
    List.iter (fun v -> env.(v) <- -1) !bound;
    None
  end

let undo env bound = List.iter (fun v -> env.(v) <- -1) bound

let selection_pattern env (atom : atom) =
  Array.map
    (fun t ->
      match t with
      | C c -> c
      | V v -> env.(v) (* -1 when unbound = wildcard *))
    atom.args

(* Solve the remaining body atoms left to right, calling [emit] on every
   complete binding. *)
let rec solve env atoms emit =
  match atoms with
  | [] -> emit ()
  | atom :: rest ->
    Relation.select atom.rel
      ~pattern:(selection_pattern env atom)
      (fun fact ->
        match match_fact env atom fact with
        | None -> ()
        | Some bound ->
          solve env rest emit;
          undo env bound)

let head_fact env head =
  Array.map
    (fun t ->
      match t with
      | Hc c -> c
      | Hv v ->
        if env.(v) = -1 then invalid_arg "Engine: unbound head variable";
        env.(v)
      | Hf f -> f env)
    head.hargs

(* ------------------------------------------------------------------ *)
(* Linter                                                              *)
(* ------------------------------------------------------------------ *)

type lint_kind =
  | Unbound_head_var
  | Bad_arity
  | Var_out_of_range
  | Never_fires
  | Unused_relation
  | Duplicate_rule

type lint_error = {
  lint_rule : string;
  lint_kind : lint_kind;
  lint_message : string;
}

let lint_is_hard = function
  | Unbound_head_var | Bad_arity | Var_out_of_range -> true
  | Never_fires | Unused_relation | Duplicate_rule -> false

let lint rules =
  let errors = ref [] in
  let err rule lint_kind fmt =
    Printf.ksprintf
      (fun lint_message ->
        errors := { lint_rule = rule.rname; lint_kind; lint_message } :: !errors)
      fmt
  in
  let derived = Hashtbl.create 16 in
  List.iter
    (fun rule ->
      List.iter
        (fun h -> Hashtbl.replace derived (Relation.name h.hrel) ())
        rule.heads)
    rules;
  List.iter
    (fun rule ->
      (* Arity consistency and variable ranges, body side. *)
      List.iteri
        (fun i atom ->
          let arity = Relation.arity atom.rel in
          if Array.length atom.args <> arity then
            err rule Bad_arity
              "body atom %d of rule %s has %d arguments but relation %s has \
               arity %d"
              i rule.rname (Array.length atom.args) (Relation.name atom.rel)
              arity;
          Array.iter
            (function
              | V v ->
                if v < 0 || v >= rule.n_vars then
                  err rule Var_out_of_range
                    "body atom %d of rule %s uses variable %d outside [0, \
                     n_vars=%d)"
                    i rule.rname v rule.n_vars
              | C _ -> ())
            atom.args)
        rule.body;
      (* Head side. *)
      let bound = Array.make (max rule.n_vars 0) false in
      List.iter
        (fun atom ->
          Array.iter
            (function
              | V v -> if v >= 0 && v < rule.n_vars then bound.(v) <- true
              | C _ -> ())
            atom.args)
        rule.body;
      List.iteri
        (fun i head ->
          let arity = Relation.arity head.hrel in
          if Array.length head.hargs <> arity then
            err rule Bad_arity
              "head %d of rule %s has %d arguments but relation %s has arity \
               %d"
              i rule.rname (Array.length head.hargs) (Relation.name head.hrel)
              arity;
          Array.iter
            (function
              | Hv v ->
                if v < 0 || v >= rule.n_vars then
                  err rule Var_out_of_range
                    "head %d of rule %s uses variable %d outside [0, \
                     n_vars=%d)"
                    i rule.rname v rule.n_vars
                else if not bound.(v) then
                  (* The runtime counterpart is the [invalid_arg] in
                     [head_fact]; the linter rejects the rule before it
                     can ever fire. *)
                  err rule Unbound_head_var
                    "head %d of rule %s (relation %s) uses variable %d which \
                     no body atom binds: the rule violates range restriction"
                    i rule.rname (Relation.name head.hrel) v
              | Hc _ | Hf _ -> ())
            head.hargs)
        rule.heads;
      (* Never-fires: a body atom over a relation that is empty now and
         that no rule derives can never match, so the rule is dead. *)
      List.iteri
        (fun i atom ->
          let name = Relation.name atom.rel in
          if (not (Hashtbl.mem derived name)) && Relation.cardinal atom.rel = 0
          then
            err rule Never_fires
              "body atom %d of rule %s reads relation %s, which is empty and \
               derived by no rule: the rule can never fire"
              i rule.rname name)
        rule.body)
    rules;
  (* Program-level informational checks, after the per-rule ones. *)
  (* Unused relation: derived by some rule but read by no body — the
     facts are write-only.  Fine for an output relation, suspicious for
     anything else; reported once, on the first deriving rule. *)
  let read_rels = Hashtbl.create 16 in
  List.iter
    (fun rule ->
      List.iter
        (fun atom -> Hashtbl.replace read_rels (Relation.name atom.rel) ())
        rule.body)
    rules;
  let unused_reported = Hashtbl.create 16 in
  List.iter
    (fun rule ->
      List.iter
        (fun head ->
          let name = Relation.name head.hrel in
          if
            (not (Hashtbl.mem read_rels name))
            && not (Hashtbl.mem unused_reported name)
          then begin
            Hashtbl.replace unused_reported name ();
            err rule Unused_relation
              "relation %s is derived by rule %s but read by no rule body: \
               its facts are write-only (expected for an output relation, \
               suspicious otherwise)"
              name rule.rname
          end)
        rule.heads)
    rules;
  (* Duplicate rule: structurally identical heads and body (same
     n_vars, relations, and argument terms).  Rules with computed
     ([Hf]) head terms are skipped — closures cannot be compared. *)
  let has_hf rule =
    List.exists
      (fun h ->
        Array.exists
          (function
            | Hf _ -> true
            | Hv _ | Hc _ -> false)
          h.hargs)
      rule.heads
  in
  let shape rule =
    ( rule.n_vars,
      List.map
        (fun h ->
          ( Relation.name h.hrel,
            Array.to_list
              (Array.map
                 (function
                   | Hv v -> `Var v
                   | Hc c -> `Const c
                   | Hf _ -> assert false)
                 h.hargs) ))
        rule.heads,
      List.map
        (fun atom ->
          ( Relation.name atom.rel,
            Array.to_list
              (Array.map
                 (function
                   | V v -> `Var v
                   | C c -> `Const c)
                 atom.args) ))
        rule.body )
  in
  let seen_shapes = Hashtbl.create 16 in
  List.iter
    (fun rule ->
      if not (has_hf rule) then
        let s = shape rule in
        match Hashtbl.find_opt seen_shapes s with
        | Some earlier ->
          err rule Duplicate_rule
            "rule %s duplicates rule %s: identical heads and body"
            rule.rname earlier
        | None -> Hashtbl.add seen_shapes s rule.rname)
    rules;
  List.rev !errors

(* ------------------------------------------------------------------ *)
(* Semi-naive driver                                                   *)
(* ------------------------------------------------------------------ *)

let relations_of rules =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let note r =
    if not (Hashtbl.mem seen (Relation.name r)) then begin
      Hashtbl.add seen (Relation.name r) ();
      out := r :: !out
    end
  in
  List.iter
    (fun rule ->
      List.iter (fun h -> note h.hrel) rule.heads;
      List.iter (fun a -> note a.rel) rule.body)
    rules;
  !out

let run ?(budget = Pta_obs.Budget.unlimited ()) ?(trace = Pta_obs.Trace.null)
    rules =
  let module Budget = Pta_obs.Budget in
  let module Trace = Pta_obs.Trace in
  let rels = relations_of rules in
  let total_facts () =
    List.fold_left (fun acc r -> acc + Relation.cardinal r) 0 rels
  in
  Budget.start budget ~probe:total_facts;
  Trace.span trace ~cat:"phase" "fixpoint" @@ fun () ->
  (* delta = facts with index in [low, high) *)
  let low = Hashtbl.create 16 and high = Hashtbl.create 16 in
  List.iter
    (fun r ->
      Hashtbl.replace low (Relation.name r) 0;
      Hashtbl.replace high (Relation.name r) (Relation.cardinal r))
    rels;
  let changed = ref true in
  while !changed do
    changed := false;
    (* One semi-naive round is one budget iteration.  Rounds are few
       and heavy, so poll the clock on every one. *)
    Budget.check budget;
    Trace.begin_span trace ~cat:"phase" "round";
    let traced = not (Trace.is_null trace) in
    let facts_before = if traced then total_facts () else 0 in
    (* Evaluate every rule once per body position, with that position
       restricted to the previous round's delta. *)
    List.iter
      (fun rule ->
        let eval () =
          let env = Array.make rule.n_vars (-1) in
          List.iteri
            (fun p atom ->
              let lo = Hashtbl.find low (Relation.name atom.rel) in
              let hi = Hashtbl.find high (Relation.name atom.rel) in
              if hi > lo then
                for i = lo to hi - 1 do
                  let fact = Relation.nth atom.rel i in
                  match match_fact env atom fact with
                  | None -> ()
                  | Some bound ->
                    let rest = List.filteri (fun q _ -> q <> p) rule.body in
                    solve env rest (fun () ->
                        List.iter
                          (fun h ->
                            if Relation.add h.hrel (head_fact env h) then
                              changed := true)
                          rule.heads);
                    undo env bound
                done)
            rule.body
        in
        if not traced then eval ()
        else begin
          (* One complete span per rule per round: its wall time and the
             facts it alone derived (rules fire in sequence, so the
             fact-count difference is attributable). *)
          let before = total_facts () in
          let t0 = Trace.now_us trace in
          let a0 = Trace.alloc_mark trace in
          eval ();
          Trace.complete trace ~alloc:a0 ~delta:(total_facts () - before)
            ~cat:"rule" ~name:rule.rname ~t0_us:t0
            ~dur_us:(Trace.now_us trace -. t0)
        end)
      rules;
    (* Advance the delta windows. *)
    List.iter
      (fun r ->
        let name = Relation.name r in
        Hashtbl.replace low name (Hashtbl.find high name);
        Hashtbl.replace high name (Relation.cardinal r))
      rels;
    let fresh = if traced then total_facts () - facts_before else 0 in
    Trace.end_span ~delta:fresh trace
    (* A final catch-up round: facts derived this round become the next
       delta; loop continues while any rule fired. *)
  done
