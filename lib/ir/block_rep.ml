(* The representation of [Block.t], visible only inside this library:
   [Block] re-exports it as a private record, so [Cfg], which creates
   blocks and writes their terminators, is the one writer of a
   terminator. *)
type t = {
  id : int;
  label : Label.t;
  body : Instr.t Gis_util.Vec.t;
  mutable term : Instr.t;
}
