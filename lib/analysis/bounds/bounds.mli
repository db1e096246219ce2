(** Schedule-quality lower bounds, slack, and cycle-gap attribution.

    From the checker's trusted {!Gis_check.Deps.reconstruct} graph —
    never the scheduler's own DDG — compute, per scheduling region of
    the final scheduled program:

    - static Estart/Lstart per instruction under the machine's
      latencies, a critical-path lower bound on one pass through the
      region, per-instruction slack (Lstart - Estart), the top-k
      binding dependence edges, and a resource lower bound
      (ceil(class count / unit width) - 1 per functional unit);
    - a dynamic lower bound on the achieved issue span: every full
      execution of a block must spend at least the block's longest
      weighted dependence chain in issue-cycle gaps, so
      [entries(b) * chain_lb(b)] summed over a region's blocks bounds
      the gap cycles the simulator attributed to those blocks.

    The program-level bound is [max(cp_lb, res_lb)] where [res_lb]
    comes from the scheduled run's own per-unit issue counts. The
    distance between achieved cycles and the bound is attributed per
    stall category from the run's stall-attributed telemetry with
    largest-remainder rounding, so integer credits satisfy the exact
    identity: achieved = lower bound + sum of attributed gap — at the
    program level and per region. *)

open Gis_ir

type credit = { category : string; cycles : int }
(** One stall category's share of a gap; categories are the
    simulator's: "interlock", "mem_interlock", "call_interlock",
    "unit_busy". Shares always sum exactly to the gap. *)

type instr_bound = {
  uid : int;
  block : Label.t;
  estart : int;  (** earliest issue offset within one region pass *)
  lstart : int;  (** latest issue offset that keeps the pass at cp_lb *)
  slack : int;  (** lstart - estart; 0 marks the critical path *)
}

type binding_edge = {
  e_src : int;  (** producer uid *)
  e_dst : int;  (** consumer uid *)
  e_kind : Gis_check.Deps.kind;
  e_weight : int;  (** issue-to-issue cycles the edge forces *)
  e_rank : int;  (** Estart(src) + weight + tail(dst); = cp_lb when critical *)
}

type region_bound = {
  region_id : int;
  header : Label.t;  (** the region's entry block *)
  nesting : int;  (** 0 for the top-level region *)
  blocks : Label.t list;  (** own blocks (nested loops excluded) *)
  instr_count : int;
  static_cp_lb : int;  (** critical path of one pass through the region *)
  static_res_lb : int;  (** unit-capacity bound on one pass *)
  instrs : instr_bound list;  (** per-instruction Estart/Lstart/slack *)
  binding : binding_edge list;  (** top-k edges by rank *)
  entries : int;  (** dynamic entries summed over own blocks *)
  achieved : int;  (** gap cycles the simulator charged to own blocks *)
  chain_lb : int;  (** sum of entries(b) * chain_lb(b) over own blocks *)
  gap : int;  (** achieved - chain_lb; >= 0 when the bound is sound *)
  credits : credit list;  (** gap split per stall category; sums to gap *)
}

type t = {
  achieved : int;  (** the scheduled run's last issue cycle *)
  cp_lb : int;  (** dynamic critical-path bound (sum over regions) *)
  res_lb : int;  (** dynamic resource bound from per-unit issue counts *)
  lower_bound : int;  (** max cp_lb res_lb *)
  gap : int;  (** achieved - lower_bound *)
  credits : credit list;  (** gap split per stall category; sums to gap *)
  regions : region_bound list;  (** innermost first, top level last *)
  partial : bool;
      (** the run did not halt (trap or fuel), so one block execution
          may be incomplete; chain bounds were conservatively reduced *)
}

val compute :
  ?top_k:int ->
  ?disambig:bool ->
  machine:Gis_machine.Machine.t ->
  halted:bool ->
  Cfg.t ->
  Gis_obs.Trace.summary ->
  t
(** [compute ~machine ~halted cfg summary] bounds the run described by
    [summary] (the scheduled run's telemetry) for the final scheduled
    [cfg] it executed. [top_k] caps the binding edges kept per region
    (default 5). [disambig] (default [true]) is forwarded to
    {!Gis_check.Deps.of_cfg}: with symbolic memory disambiguation off
    the dependence chains keep every syntactic Mem edge and the lower
    bound can only rise. [halted] must be false unless the run stopped
    at a halt terminator. *)

val identity_holds : t -> bool
(** The exact accounting identity, checked at both levels: the bound
    is sound (no negative gap), program credits sum to the program
    gap, each region's credits sum to its gap, and the regions'
    achieved gap cycles telescope to the program's last issue. *)

val slack_of_uid : t -> int -> int option
(** Static slack of the instruction with the given uid, if bounded. *)

val pp : t Fmt.t
(** Tree rendering: program totals, then one node per region with its
    bounds, slack range, and binding edges. *)

val to_json : t -> Gis_obs.Json.t
