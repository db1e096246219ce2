(** Loop unrolling (paper Section 6, preparation step).

    "Inner regions that represent loops with up to 4 basic blocks are
    unrolled once (i.e., after unrolling they include two iterations of
    a loop instead of one)." The copy keeps both exit tests — the
    transformation is pure block duplication with back edges routed
    through the copy, so it is valid for any loop shape, counted or
    not. *)

val unroll_small_inner_loops :
  ?prov:Gis_obs.Provenance.t -> max_blocks:int -> Gis_ir.Cfg.t -> int
(** Unroll every innermost loop with at most [max_blocks] blocks;
    returns how many loops were unrolled. The loop forest is computed
    once, before the first unroll, and the targets are fixed from it.
    With [prov], every fresh copy is recorded one copy generation deeper
    than its source. *)
