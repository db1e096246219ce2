(** Loop rotation (paper Section 6).

    "Such regions that represent loops with up to 4 basic blocks are
    rotated, by copying their first basic block after the end of the
    loop." The original header becomes a once-executed entry peel; the
    copy sits at the bottom of the loop, so a second global scheduling
    pass can pull the next iteration's leading instructions up into the
    body — the partial software-pipelining effect. *)

val rotate_small_inner_loops :
  ?prov:Gis_obs.Provenance.t -> max_blocks:int -> Gis_ir.Cfg.t -> int
(** Rotate every innermost loop with at most [max_blocks] blocks;
    returns how many loops were rotated. With [prov], header copies are
    recorded one copy generation deeper than their source. *)
