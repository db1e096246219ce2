(** Reference all-pairs dependence-graph builder, for differential
    tests of {!Gis_ddg.Ddg}. Nodes are numbered as [Ddg] numbers them. *)

type t

val build :
  ?sym:Gis_analysis.Symaddr.t ->
  Gis_ir.Cfg.t ->
  Gis_machine.Machine.t ->
  Gis_analysis.Regions.t ->
  Gis_analysis.Regions.view ->
  t

val build_single_block :
  ?sym:Gis_analysis.Symaddr.t -> Gis_machine.Machine.t -> Gis_ir.Block.t -> t

val prune_transitive : t -> t

val uids : t -> int array
(** Each node's instruction uid, by node index (negative for loop
    summaries). *)

val edges : t -> (int * int * Gis_ddg.Ddg.dep_kind * Gis_ir.Reg.t option * int) list
(** Every edge as (src, dst, kind, reg, delay), sorted. *)

val counts : t -> Gis_obs.Counts.t
(** The build's disambiguation counts under {!Gis_ddg.Ddg.tally_counts}'
    keys. *)
