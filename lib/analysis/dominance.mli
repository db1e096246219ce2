(** Dominator and postdominator trees (paper Definitions 1–3).

    Computed with the Cooper–Harvey–Kennedy iterative algorithm over a
    {!Flow.t} view. A node unreachable from the view entry has no
    dominator information and dominates nothing. *)

type t

val compute : Flow.t -> t

val idom : t -> int -> int option
(** Immediate dominator; [None] for the entry and for unreachable
    nodes. *)

val dominates : t -> int -> int -> bool
(** [dominates t a b]: [a] appears on every path from the entry to [b].
    Reflexive. False when either node is unreachable (unless equal and
    reachable). O(1) after preprocessing. *)

val dom_tree_depth : t -> int -> int
(** Depth of a node in the dominator tree (entry = 0); [-1] when
    unreachable. *)

(** Postdominators: [b] postdominates [a] iff [b] appears on every path
    from [a] to EXIT (paper Definition 2). Computed as dominance on the
    reversed graph with a virtual exit that gathers every node without
    successors. *)
module Post : sig
  type post

  val compute : Flow.t -> post

  val postdominates : post -> int -> int -> bool
  (** [postdominates p b a]: [b] appears on every path from [a] to the
      (virtual) exit. Reflexive on reachable-to-exit nodes. *)

  val ipostdom : post -> int -> int option
  (** Immediate postdominator within the view; [None] when it is the
      virtual exit or the node cannot reach an exit. *)

  val virtual_exit : post -> int
  (** Index of the virtual exit in the reversed graph (= [num_nodes]). *)

  val ipostdom_raw : post -> int -> int option
  (** Immediate postdominator, possibly the virtual exit node. *)
end

val equivalent : t -> Post.post -> int -> int -> bool
(** Paper Definition 3: [equivalent dom post a b] iff [a] dominates [b]
    and [b] postdominates [a] — the nodes execute under exactly the same
    conditions, with [a] first. *)

val naive_dominators : Flow.t -> Gis_util.Ints.Int_set.t array
(** Reference implementation by set intersection over all paths
    (iterative dataflow with explicit sets), used to cross-check
    {!compute} in property tests. [result.(v)] is the full dominator set
    of [v]; empty for unreachable nodes. *)
