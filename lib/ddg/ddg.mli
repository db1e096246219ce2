(** The data dependence subgraph of the PDG (paper Section 4.2).

    Built per scheduling region over a {!Gis_analysis.Regions.view}:
    nodes are the instructions of the region's own blocks plus one
    *summary node* per collapsed inner loop (so that nothing is ever
    moved across a loop it depends on); edges are flow, anti, output and
    memory dependences. Intra-block dependences relate instructions of
    one block; inter-block dependences relate instructions of blocks
    [A], [B] such that [B] is reachable from [A] in the region's forward
    flow graph. Only definition-to-use (flow) edges carry a machine
    delay. The graph is acyclic because the view is. *)

type dep_kind = Flow | Anti | Output | Mem

val pp_dep_kind : dep_kind Fmt.t

type node = {
  idx : int;
      (** dense node index; a block's nodes are numbered consecutively
          in position order *)
  uid : int;  (** instruction uid; negative for loop summaries *)
  instr : Gis_ir.Instr.t option;  (** [None] for loop summaries *)
  view_node : int;  (** region-view node containing this instruction *)
  pos : int;  (** position within its block; the terminator is last *)
  defs : Gis_ir.Reg.t array;  (** in [Reg.compare] order, no repeats *)
  uses : Gis_ir.Reg.t array;  (** in [Reg.compare] order, no repeats *)
}

type edge = {
  src : int;
  dst : int;
  kind : dep_kind;
  reg : Gis_ir.Reg.t option;  (** register carrying the dependence *)
  delay : int;
}

type t

val build :
  ?sym:Gis_analysis.Symaddr.t ->
  ?reach:Gis_analysis.Reaching.Query.t ->
  Gis_ir.Cfg.t ->
  Gis_machine.Machine.t ->
  Gis_analysis.Regions.t ->
  Gis_analysis.Regions.view ->
  t
(** All edges are materialised (the transitive-closure shortcut of
    Section 4.2 is off); use {!prune_transitive} to drop edges implied
    by longer paths. Within a block one ordered scan finds each node's
    dependences on earlier ones. Across blocks only node pairs that can
    carry an edge are visited: pairs sharing a register one of them
    defines, found through per-register occurrence lists, and pairs of
    memory accesses of which at least one is not a load. Each pair keeps
    one edge: the first candidate of the longest delay.

    When [sym] (the whole-procedure symbolic address analysis of the
    same CFG) is supplied, Mem edges between accesses with provably
    equal-origin bases and disjoint ranges are pruned; without it only
    the version/family and reaching-definition rules apply. Legal code
    motion preserves every address computation, so facts computed once
    per scheduling pass stay valid as regions are scheduled.

    [reach], a query on the same CFG, answers the cross-block base
    proof's reaching definitions; a scheduling pass shares one across
    its builds. Without it the build makes its own. *)

val build_single_block :
  ?sym:Gis_analysis.Symaddr.t -> Gis_machine.Machine.t -> Gis_ir.Block.t -> t
(** Intra-block dependences of one basic block only (view node 0) — the
    input to the local (basic block) scheduler applied after global
    scheduling, Section 5.1. [sym] as in {!build}. *)

val mem_kept : t -> int
(** Mem edges this build materialised. *)

val mem_pruned : t -> int
(** Conflicting access pairs whose Mem edge the family or
    symbolic-address refinement proved unnecessary. *)

type tally
(** A running sum of builds' memory-disambiguation counts. Each run
    keeps its own and adds every graph it builds. *)

val new_tally : unit -> tally
val add_tally : tally -> t -> unit

val tally_kept : tally -> int
(** {!mem_kept}, summed. *)

val tally_pruned : tally -> int
(** {!mem_pruned}, summed. *)

val tally_counts : tally -> Gis_obs.Counts.t
(** The sums under their report keys: [alias.queries_total] (every
    conflict query between two memory accesses),
    [alias.mem_edges_kept_total], [alias.mem_edges_pruned_total.intra]
    and [.inter] (within a block and across blocks), and one
    [alias.fallback_total.<reason>] per kept edge, where the reason is
    [top] (an address the symbolic analysis cannot follow),
    [origin-mismatch], [overlap], [call] or [disabled] (no symbolic
    analysis). *)

val num_nodes : t -> int

(** [exec_time t i] is the machine execution time of node [i]'s
    instruction (1 for loop summaries). *)
val exec_time : t -> int -> int
val node : t -> int -> node
val nodes_of_view_node : t -> int -> int list
(** Node indices in block order (position order). *)

val node_of_uid : t -> int -> int option
(** The node of an instruction uid; [None] for loop summaries. *)

(** Edges are stored flat, grouped by source and by destination, so
    reading them allocates nothing. [succ t i k] is the [k]-th of the
    [num_succs t i] edges leaving node [i]; [pred] likewise for edges
    entering it. The order within a group is unspecified. *)

val num_succs : t -> int -> int
val succ : t -> int -> int -> edge
val num_preds : t -> int -> int
val pred : t -> int -> int -> edge
val num_edges : t -> int

val prune_transitive : t -> t
(** Remove an edge [a -> c] when some intermediate [b] with edges
    [a -> b -> c] already enforces at least as strong a timing
    constraint: [delay(a,b) + exec(b) + delay(b,c) >= delay(a,c)].
    Scheduling results are unchanged; the graph just gets smaller
    (the paper's compile-time optimisation). *)

val is_acyclic : t -> bool

val iter_edges : (edge -> unit) -> t -> unit

val drop_mem_edges_for_testing : bool ref
(** Fault injection for the fuzzer's self-test ONLY: while [true], the
    builders omit every memory dependence edge, letting the scheduler
    reorder conflicting stores and loads. [false] by default; tests that
    set it must restore it ([Fun.protect]). *)

val cross_check_reach_for_testing : bool ref
(** For tests ONLY: while [true], {!build} repeats each [reach] query
    on a fresh query and raises [Failure] if the answers differ.
    Tests that set it must restore it ([Fun.protect]). *)

val pp : t Fmt.t
