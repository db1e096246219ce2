(** Forward control dependence graph — the control subgraph of the PDG
    (CSPDG, paper Section 4.1).

    Node [b] is control dependent on [a] under label [l] when [a]'s
    branch decides whether [b] executes: there is an edge [a -> x]
    labelled [l] such that [b] postdominates [x] (or is [x]) but [b]
    does not postdominate [a] (Ferrante–Ottenstein–Warren). Computed on
    a {!Flow.t} view with back edges masked, so the graph is acyclic
    (forward control dependences only, after [CHH89]). *)

type label = Gis_ir.Cfg.edge_kind

type t

val compute : ?edge_label:(int -> int -> label) -> Flow.t -> t
(** [edge_label a b] gives the branch condition of the flow edge
    [a -> b]; it defaults to calling the view's underlying structure
    positionally — first successor [Fallthru], second [Taken], single
    successor [Always]. Pass an explicit function when the view does not
    follow that convention. *)

val parents : t -> int -> (int * label) list
(** The nodes controlling [v] (its control dependences), without
    duplicates. *)

val immediate_successors : t -> int -> int list
(** Distinct CSPDG successors of [v] — the blocks reachable by gambling
    on exactly one branch of [v] (used for 1-branch speculative
    candidate sets, Section 5.1 level 2b). *)

val identically_dependent : t -> int -> int -> bool
(** Same controlling nodes under the same labels — the paper's test for
    locating equivalent nodes in the CSPDG. *)

val speculation_degree : t -> src:int -> dst:int -> int option
(** Length of the shortest CSPDG path from [src] to [dst] — the number
    of branches gambled on when moving instructions from [dst] up to
    [src] (paper Definition 7). [Some 0] when [src = dst]; [None] when
    no path exists. *)

val pp : t Fmt.t
