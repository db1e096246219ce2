(** Natural-loop detection and loop nesting.

    A back edge is a CFG edge whose target dominates its source; the
    natural loop of a back edge [(t, h)] is [h] plus every block that
    reaches [t] without passing through [h]. Loops sharing a header are
    merged. The CFG is *reducible* when every retreating edge (w.r.t. a
    DFS) is a back edge — the paper's precondition for treating strongly
    connected regions as single-entry loops (Section 4.1). *)

type loop = {
  index : int;
  header : int;  (** CFG block id; the loop's single entry *)
  blocks : Gis_util.Ints.Int_set.t;  (** including nested loops' blocks *)
  back_edges : (int * int) list;  (** (tail, header) pairs *)
  parent : int option;  (** index of the immediately enclosing loop *)
  children : int list;  (** indices of immediately nested loops *)
  depth : int;  (** 1 for outermost loops *)
}

type t

val compute : Gis_ir.Cfg.t -> t

val loops : t -> loop array
(** Indexed by [loop.index]; topologically ordered so children follow
    parents is NOT guaranteed — use [depth] or [children]. *)

val reducible : t -> bool

val innermost_first : t -> loop list
(** Loops sorted by decreasing depth — the scheduling order of
    Section 5.1 ("innermost regions are scheduled first"). *)

val small_innermost : max_blocks:int -> Gis_ir.Cfg.t -> loop list
(** The innermost loops of [cfg] with at most [max_blocks] blocks,
    innermost first, from one loop forest; none when [cfg] is
    irreducible. The targets of unrolling and rotation. *)

val last_block : rank:int array -> loop -> int
(** The loop's block placed last in the layout, given each block's
    layout position [rank] ({!Gis_ir.Cfg.layout_rank}). *)

val pp : t Fmt.t
