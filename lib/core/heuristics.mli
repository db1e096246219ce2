(** The two priority functions of paper Section 5.2, computed per basic
    block over intra-block dependence edges only.

    - [D(I)] ("delay heuristic"): the maximum total edge delay on any
      dependence path from [I] to the end of its block — how many delay
      slots may have to be covered after issuing [I].
    - [CP(I)] ("critical path"): how long completing [I] and everything
      depending on it within the block takes with unbounded units.

    Both satisfy the paper's recurrences:
    [D(I)  = max_J (D(J) + d(I,J))], 0 at sinks;
    [CP(I) = max_J (CP(J) + d(I,J)) + E(I)], [E(I)] at sinks. *)

type t

val compute : Gis_ddg.Ddg.t -> t
(** Heuristics for every node of the dependence graph, each relative to
    its own block (view node). Loop-summary nodes get [D = 0],
    [CP = E]. *)

val d : t -> int -> int
(** Delay heuristic of the node with the given DDG index. *)

val cp : t -> int -> int
(** Critical path heuristic of the node with the given DDG index. *)

val import_pressure :
  live:(Gis_ir.Reg.t -> bool) ->
  count:(Gis_ir.Reg.cls -> int) ->
  budget:(Gis_ir.Reg.cls -> int) ->
  Gis_ir.Instr.t ->
  int
(** Pressure penalty of importing [inst] into a block where [live]
    tells which registers are live and [count] how many of a class are:
    for each register the instruction defines that is not already live
    there, how far past the class [budget] the motion would push the
    live count. 0 when everything fits — the [Min_pressure] rank rule
    is a no-op then. *)

val pp : t Fmt.t
