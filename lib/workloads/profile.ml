(** Shape parameters for a synthetic benchmark.

    Each preset mirrors one DaCapo 2006 program's *feature mix* — the mix
    of virtual-dispatch density, static utility chains, container churn,
    allocation-in-virtual-method density, visitors/listeners/wrappers —
    which is what drives the relative precision and cost of the analyses
    (the absolute program sizes are necessarily smaller than DaCapo). *)

type t = {
  name : string;
  seed : int64;
  hierarchies : int;  (** independent class families *)
  subclasses : int;  (** direct subclasses per family *)
  depth2_fraction : float;  (** fraction of subclasses with a sub-subclass *)
  methods_per_class : int;  (** virtual methods on each base class *)
  stmts_per_method : int;
  factories_per_hierarchy : int;  (** static factory methods *)
  util_classes : int;
  util_chain_depth : int;  (** static pass-through chain length *)
  driver_units : int;  (** driver classes, each with one [run] *)
  unit_ops : int;  (** operations per driver unit *)
  helper_meths : int;  (** static helpers per driver class *)
  alloc_in_virtual : float;
      (** probability that a virtual-method statement allocates — the
          knob that makes deep object-sensitive analyses expensive *)
  risky_cast : float;  (** probability a generated cast targets a subclass *)
  throw_density : float;
      (** probability that a virtual method gets a conditional throw *)
  wrappers : bool;  (** delegating wrapper subclass per family *)
  visitors : bool;
  listeners : bool;
  copy_chain_depth : int;
      (** length of straight local copy chains ([var b = a; var c = b;
          ...]) the drivers emit; 0 disables them *)
  copy_cycles : int;
      (** static mutual-recursion rings (and matching local copy
          cycles) — the workload knob that exercises the solver's
          online cycle elimination; 0 disables *)
  copy_cycle_len : int;  (** nodes per copy cycle / ring *)
  taint_units : int;
      (** source/sink annotation blocks for the taint client: each unit
          wires one tainted and one clean value through its own static
          pass-through into a sink, plus a sanitized path — exactly one
          true flow per unit; 0 disables (and keeps generated programs
          byte-identical to before the knob existed) *)
}

let make ~name ~seed ?(hierarchies = 5) ?(subclasses = 4)
    ?(depth2_fraction = 0.3) ?(methods_per_class = 4) ?(stmts_per_method = 3)
    ?(factories_per_hierarchy = 3) ?(util_classes = 2) ?(util_chain_depth = 2)
    ?(driver_units = 8) ?(unit_ops = 14) ?(helper_meths = 3)
    ?(alloc_in_virtual = 0.25) ?(risky_cast = 0.3) ?(throw_density = 0.12)
    ?(wrappers = false) ?(visitors = false) ?(listeners = false)
    ?(copy_chain_depth = 0) ?(copy_cycles = 0) ?(copy_cycle_len = 0)
    ?(taint_units = 0) () =
  {
    name;
    seed;
    hierarchies;
    subclasses;
    depth2_fraction;
    methods_per_class;
    stmts_per_method;
    factories_per_hierarchy;
    util_classes;
    util_chain_depth;
    driver_units;
    unit_ops;
    helper_meths;
    alloc_in_virtual;
    risky_cast;
    throw_density;
    wrappers;
    visitors;
    listeners;
    copy_chain_depth;
    copy_cycles;
    copy_cycle_len;
    taint_units;
  }

(* The DaCapo 2006 profiles analyzed in the paper's Table 1. *)

let antlr =
  (* Parser generator: long static helper chains (grammar analysis
     passes), many casts on tree nodes, moderate dispatch. *)
  make ~name:"antlr" ~seed:0xDA0C0DE_001L ~hierarchies:14 ~subclasses:7 ~methods_per_class:6 ~util_classes:5 ~util_chain_depth:4 ~driver_units:40 ~unit_ops:40 ~helper_meths:6 ~factories_per_hierarchy:4 ~risky_cast:0.45 ~alloc_in_virtual:0.2 ~taint_units:4 ()

let bloat =
  (* Bytecode optimizer: the largest and most dispatch-heavy benchmark;
     visitor-based passes over a deep class-file IR, lots of allocation
     inside virtual methods. *)
  make ~name:"bloat" ~seed:0xDA0C0DE_002L ~hierarchies:20 ~subclasses:10 ~depth2_fraction:0.5 ~methods_per_class:7 ~stmts_per_method:4 ~factories_per_hierarchy:5 ~util_classes:5 ~driver_units:56 ~unit_ops:44 ~helper_meths:6 ~alloc_in_virtual:0.45 ~visitors:true ~wrappers:true ~risky_cast:0.35 ~taint_units:6 ()

let chart =
  (* Plotting: many renderer/axis/dataset families, listeners, large
     drivers. *)
  make ~name:"chart" ~seed:0xDA0C0DE_003L ~hierarchies:20 ~subclasses:8 ~methods_per_class:6 ~factories_per_hierarchy:4 ~util_classes:4 ~driver_units:50 ~unit_ops:40 ~helper_meths:5 ~listeners:true ~alloc_in_virtual:0.3 ~wrappers:true ~taint_units:5 ()

let eclipse =
  (* IDE core: plugin-ish listeners + visitors, moderate size. *)
  make ~name:"eclipse" ~seed:0xDA0C0DE_004L ~hierarchies:14 ~subclasses:7 ~methods_per_class:5 ~driver_units:36 ~unit_ops:36 ~helper_meths:5 ~listeners:true ~visitors:true ~alloc_in_virtual:0.25 ~taint_units:4 ()

let hsqldb =
  (* Database engine: session/statement/result factories, very high
     allocation-in-virtual density — the profile that makes deep
     object-sensitive analyses blow up in the paper. *)
  make ~name:"hsqldb" ~seed:0xDA0C0DE_005L ~hierarchies:14 ~subclasses:9 ~methods_per_class:7 ~stmts_per_method:4 ~driver_units:38 ~unit_ops:38 ~helper_meths:5 ~alloc_in_virtual:0.6 ~wrappers:true ~util_chain_depth:3 ~taint_units:4 ()

let jython =
  (* Python interpreter: interpreter-style dispatch where nearly every
     virtual method allocates (frames, boxed values), plus deep static
     helper chains. Pathological for 2obj+H, as in the paper. *)
  make ~name:"jython" ~seed:0xDA0C0DE_006L ~hierarchies:14 ~subclasses:9 ~methods_per_class:7 ~stmts_per_method:5 ~util_classes:5 ~util_chain_depth:5 ~driver_units:34 ~unit_ops:36 ~helper_meths:6 ~alloc_in_virtual:0.65 ~wrappers:true ~taint_units:4 ()

let luindex =
  (* Text indexing: the smallest benchmark; token/document containers. *)
  make ~name:"luindex" ~seed:0xDA0C0DE_007L ~hierarchies:10 ~subclasses:6 ~methods_per_class:5 ~driver_units:26 ~unit_ops:32 ~helper_meths:4 ~alloc_in_virtual:0.2 ~taint_units:3 ()

let lusearch =
  (* Text search: small; query/scorer families, a few static utils. *)
  make ~name:"lusearch" ~seed:0xDA0C0DE_008L ~hierarchies:10 ~subclasses:7 ~methods_per_class:5 ~driver_units:26 ~unit_ops:32 ~helper_meths:4 ~util_chain_depth:3 ~alloc_in_virtual:0.2 ~taint_units:3 ()

let pmd =
  (* Source analyzer: AST visitors with downcasts everywhere. *)
  make ~name:"pmd" ~seed:0xDA0C0DE_009L ~hierarchies:14 ~subclasses:8 ~methods_per_class:6 ~driver_units:36 ~unit_ops:36 ~helper_meths:5 ~visitors:true ~risky_cast:0.5 ~alloc_in_virtual:0.25 ~taint_units:4 ()

let xalan =
  (* XSLT processor: DOM adapter/wrapper chains, high churn. *)
  make ~name:"xalan" ~seed:0xDA0C0DE_010L ~hierarchies:17 ~subclasses:8 ~methods_per_class:6 ~stmts_per_method:4 ~driver_units:44 ~unit_ops:38 ~helper_meths:5 ~wrappers:true ~alloc_in_virtual:0.4 ~util_chain_depth:3 ~taint_units:5 ()

let dacapo = [ antlr; bloat; chart; eclipse; hsqldb; jython; luindex; lusearch; pmd; xalan ]

(* A small profile for tests and quick CLI runs. *)
let tiny =
  make ~name:"tiny" ~seed:0xDA0C0DE_0FFL ~hierarchies:2 ~subclasses:2
    ~methods_per_class:3 ~driver_units:2 ~unit_ops:8 ~util_classes:1
    ~util_chain_depth:3 ()

(* Deep copy chains, local copy cycles, and static mutual-recursion
   rings: a stress profile for the solver's propagation core (cycle
   elimination + topological worklist ordering).  Not part of the
   paper's Table 1 set; used by the propagation micro-benchmark and the
   cyclic differential test. *)
let cyclic =
  make ~name:"cyclic" ~seed:0xDA0C0DE_0C1L ~hierarchies:12 ~subclasses:6
    ~methods_per_class:5 ~util_classes:3 ~util_chain_depth:5 ~driver_units:48
    ~unit_ops:44 ~helper_meths:5 ~alloc_in_virtual:0.35 ~risky_cast:0.25
    ~copy_chain_depth:20 ~copy_cycles:10 ~copy_cycle_len:12 ()

let by_name name =
  List.find_opt (fun p -> String.equal p.name name) (tiny :: cyclic :: dacapo)

(* Uniform scaling of a profile's size knobs, for scalability studies. *)
let scale factor p =
  let s x = max 1 (int_of_float (float_of_int x *. factor)) in
  {
    p with
    hierarchies = s p.hierarchies;
    subclasses = s p.subclasses;
    driver_units = s p.driver_units;
    unit_ops = s p.unit_ops;
  }
