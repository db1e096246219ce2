(** Flow-graph views.

    Analyses (dominance, control dependence, reachability) run over a
    *view* of a CFG: a subset of its blocks with some edges masked, all
    renumbered to dense local indices. Views let the same algorithms
    serve the whole procedure, a loop body with its back edges masked
    (the paper's forward control dependence graph, Section 4.1), and an
    outer region with inner loops collapsed. *)

type t = {
  num_nodes : int;
  entry : int;  (** local index *)
  succ : int list array;
  pred : int list array;
  to_block : int array;  (** local index -> CFG block id; [-1] for synthetic nodes *)
  extra_exits : int list;
      (** nodes with an edge that leaves the view (a dropped loop exit
          or a masked back edge). Control may leave the view there, so
          postdominance must treat them as connected to EXIT — otherwise
          a loop body would spuriously postdominate a header whose exit
          edge was dropped, and the scheduler would treat them as
          equivalent. *)
}

val local_of_block : t -> int Gis_util.Ints.Int_map.t
(** Inverse of [to_block], ignoring synthetic nodes. *)

val of_cfg :
  ?blocks:Gis_util.Ints.Int_set.t ->
  ?masked_edges:(int * int) list ->
  entry:int ->
  Gis_ir.Cfg.t ->
  t
(** View of [cfg] restricted to [blocks] (default: all), with the given
    CFG edges (pairs of block ids) removed. Edges leaving the subset are
    dropped. *)

val make :
  ?extra_exits:int list -> entry:int -> to_block:int array -> int list array -> t
(** Build a view from an explicit successor structure (predecessors are
    derived). Used for synthetic graphs in tests and for region graphs
    with collapsed loops. *)

val exit_nodes : t -> int list
(** Sinks (no successors) plus {!field-extra_exits}: every node from
    which control can leave the view. *)

val reverse : t -> exit_nodes:int list -> t
(** The reversed graph with a fresh virtual entry node (index
    [num_nodes]) whose successors are [exit_nodes] — the standard
    construction for postdominators. Nodes unreachable backwards from
    the exits keep empty edges. *)

val reverse_postorder : t -> int list

val reachable_matrix : t -> bool array array
(** [m.(a).(b)] iff [b] is reachable from [a] following view edges
    ([a] reaches itself). O(V·E) — views are small by the paper's
    region-size limits. *)

val reachable_rows : t -> Gis_util.Bitset.t array
(** {!reachable_matrix} with each row a bitset: [Bitset.mem r.(a) b]
    iff [b] is reachable from [a]. One bit a cell instead of a word, for
    views as large as a whole procedure. *)

val is_acyclic : t -> bool

val pp : t Fmt.t
