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

(* Every field that can change a run, so that two configurations print
   alike only if they compile alike: the bench keys its cell store on
   this text. The record pattern names every field, so a new field does
   not compile until it is placed here. The observers only watch a run;
   [profile] is a closure and prints as present or absent. *)
let pp ppf
    { level; rename; prune_transitive; rules; max_region_blocks;
      max_region_instrs; max_nesting_levels; unroll_small_loops;
      rotate_small_loops; small_loop_blocks; local_post_pass; disambiguate;
      split_webs; max_speculation_degree; profile; min_speculation_probability;
      local_machine; allow_duplication; pressure_aware; regalloc; regs;
      obs = _; prov = _; prof = _; check = _ } =
  let opt pp = Fmt.(option ~none:(any "-") pp) in
  Fmt.pf ppf
    "level=%a rename=%b prune=%b rules=[%a] limits=%db/%di nesting<=%d \
     unroll=%b rotate=%b small=%d post=%b disambig=%b webs=%b degree=%d \
     profile=%b min_prob=%h local_machine=%a dup=%b pressure=%b regalloc=%b \
     regs=%a"
    pp_level level rename prune_transitive
    Fmt.(list ~sep:comma Priority_rule.pp)
    rules max_region_blocks max_region_instrs max_nesting_levels
    unroll_small_loops rotate_small_loops small_loop_blocks local_post_pass
    disambiguate split_webs max_speculation_degree (Option.is_some profile)
    min_speculation_probability
    (opt (Fmt.of_to_string Gis_machine.Machine.name))
    local_machine allow_duplication pressure_aware regalloc (opt Fmt.int) regs

let emit c e =
  c.obs.Gis_obs.Sink.emit e;
  Gis_obs.Provenance.observe c.prov e
