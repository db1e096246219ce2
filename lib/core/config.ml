type level = Local | Useful | Speculative

let pp_level ppf l =
  Fmt.string ppf
    (match l with
    | Local -> "local"
    | Useful -> "useful"
    | Speculative -> "speculative")

type t = {
  level : level;
  rename : bool;
  prune_transitive : bool;
  rules : Priority_rule.t list;
  max_region_blocks : int;
  max_region_instrs : int;
  max_nesting_levels : int;
  unroll_small_loops : bool;
  rotate_small_loops : bool;
  small_loop_blocks : int;
  local_post_pass : bool;
  disambiguate : bool;
  split_webs : bool;
  max_speculation_degree : int;
  profile : (Gis_ir.Label.t -> int) option;
  min_speculation_probability : float;
  local_machine : Gis_machine.Machine.t option;
  allow_duplication : bool;
  pressure_aware : bool;
  regalloc : bool;
  regs : int option;
  obs : Gis_obs.Sink.t;
  prov : Gis_obs.Provenance.t option;
  prof : Gis_obs.Prof.t option;
  check :
    (stage:string -> pre:Gis_ir.Cfg.t -> post:Gis_ir.Cfg.t -> unit) option;
}

let default =
  {
    level = Speculative;
    rename = true;
    prune_transitive = true;
    rules = Priority_rule.paper_order;
    max_region_blocks = 64;
    max_region_instrs = 256;
    max_nesting_levels = 2;
    unroll_small_loops = true;
    rotate_small_loops = true;
    small_loop_blocks = 4;
    local_post_pass = true;
    disambiguate = true;
    split_webs = false;
    max_speculation_degree = 1;
    profile = None;
    min_speculation_probability = 0.0;
    local_machine = None;
    allow_duplication = false;
    pressure_aware = false;
    regalloc = false;
    regs = None;
    obs = Gis_obs.Sink.null;
    prov = None;
    prof = None;
    check = None;
  }

let base =
  {
    default with
    level = Local;
    unroll_small_loops = false;
    rotate_small_loops = false;
  }

let useful_only = { default with level = Useful }
let speculative = default

let of_level = function
  | Local -> base
  | Useful -> useful_only
  | Speculative -> speculative

let pp ppf c =
  Fmt.pf ppf
    "level=%a rename=%b prune=%b rules=[%a] limits=%db/%di nesting<=%d \
     unroll=%b rotate=%b post=%b"
    pp_level c.level c.rename c.prune_transitive
    Fmt.(list ~sep:comma Priority_rule.pp)
    c.rules c.max_region_blocks c.max_region_instrs c.max_nesting_levels
    c.unroll_small_loops c.rotate_small_loops c.local_post_pass

let emit c e =
  c.obs.Gis_obs.Sink.emit e;
  Gis_obs.Provenance.observe c.prov e
