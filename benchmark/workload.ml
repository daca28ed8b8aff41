(* The benchmark's workloads: the requests one pass sends, and how a
   seed turns each request's program into generated MJ source. *)

module Profile = Pta_workloads.Profile
module Rng = Pta_workloads.Rng

type kind =
  | Analyze  (** [pointsto analyze FILE -a A] *)
  | Check  (** [pointsto check FILE -a A --format sarif --taint-spec SPEC] *)

(* A request before a seed is applied: which profile, which variant of
   it at seed 0 (variant 0 is the committed profile seed, so the program
   is byte-identical to [pointsto gen NAME]), and the command. *)
type slot = { profile : string; variant : int; kind : kind; analysis : string }

type t = {
  name : string;
  slots : slot list;  (** one pass, in sending order *)
  seeded : bool;
      (** a seed other than 0 draws fresh programs.  Only where a pass
          holds hundreds of programs: with five to thirty large ones, a
          fresh draw moves a pass's cost by more than the bounds allow. *)
}

let slot ?(variant = 0) kind profile analysis =
  { profile; variant; kind; analysis }

let table1_analyses =
  [ "1obj"; "SB-1obj"; "2obj+H"; "S-2obj+H"; "2type+H"; "S-2type+H" ]

(* [check] runs under the CLI's default strategy. *)
let check_analysis = "S-2obj+H"

let all =
  [
    {
      (* The paper's Table-1 traffic; solver and clients dominate. *)
      name = "analyze-table1";
      slots =
        List.concat_map
          (fun p -> List.map (slot Analyze p) table1_analyses)
          [ "antlr"; "hsqldb"; "jython"; "luindex"; "pmd" ];
      seeded = false;
    };
    {
      (* What a CI user runs; the may-fail-cast checker dominates. *)
      name = "check-sarif";
      slots =
        List.map
          (fun p -> slot Check p check_analysis)
          [ "luindex"; "lusearch"; "antlr"; "eclipse"; "pmd" ];
      seeded = false;
    };
    {
      (* Million-fact sets, copy cycles, a heap of hundreds of MiB. *)
      name = "analyze-bigsets";
      slots =
        List.map (slot Analyze "cyclic") [ "insens"; "1call"; "1obj"; "S-2obj+H" ]
        @ List.map (slot Analyze "bloat") [ "insens"; "1obj" ];
      seeded = false;
    };
    {
      (* The fixed cost of every invocation: load is a large share. *)
      name = "check-small";
      slots =
        List.init 300 (fun variant ->
            slot ~variant Check "tiny" check_analysis);
      seeded = true;
    };
  ]

(* Two quick requests for the test suite; one of them runs long enough
   (about 0.3 s) for a 0.1 s deadline to kill it. *)
let smoke =
  {
    name = "smoke";
    slots = [ slot Check "tiny" check_analysis; slot Analyze "antlr" "1obj" ];
    seeded = false;
  }

let find name = List.find_opt (fun w -> w.name = name) (smoke :: all)

(* A concrete request: the slot with its program fixed by the seed. *)
type request = {
  key : string;  (** [program/analysis], unique within a pass *)
  program : string;  (** file stem of the generated source *)
  profile : Profile.t;  (** with the generator seed applied *)
  kind : kind;
  analysis : string;
}

(* A 64-bit seed derived from the run's seed, a profile and a position. *)
let derive ~seed (p : Profile.t) i =
  let rng =
    Rng.create (Int64.add p.seed (Int64.mul (Int64.of_int seed) 0x9E3779B97F4A7C15L))
  in
  for _ = 1 to i do
    ignore (Rng.next64 rng)
  done;
  Rng.next64 rng

let requests ~seed w =
  List.mapi
    (fun i (s : slot) ->
      let base =
        match Profile.by_name s.profile with
        | Some p -> p
        | None -> invalid_arg ("Workload: unknown profile " ^ s.profile)
      in
      (* A drawn program's name carries the seed, so its key never
         matches a committed program's digest in expected.json. *)
      let program, profile =
        if seed = 0 || not w.seeded then
          ( (if s.variant = 0 then s.profile
             else Printf.sprintf "%s-%03d" s.profile s.variant),
            { base with Profile.seed = Int64.add base.seed (Int64.of_int s.variant) } )
        else
          ( Printf.sprintf "%s-s%d-%03d" s.profile seed i,
            { base with Profile.seed = derive ~seed base i } )
      in
      { key = program ^ "/" ^ s.analysis; program; profile; kind = s.kind;
        analysis = s.analysis })
    w.slots

(* Distinct programs of a request list, in first-use order. *)
let programs requests =
  List.rev
    (List.fold_left
       (fun acc r -> if List.exists (fun p -> p.program = r.program) acc then acc else r :: acc)
       [] requests)

let source (r : request) = Pta_workloads.Gen.generate r.profile
