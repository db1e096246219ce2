(** Lowering Tiny-C to the machine IR.

    Scalars live in symbolic general-purpose registers (scheduling runs
    before register allocation, so the supply is unbounded). Arrays are
    laid out in static memory starting at address 1024; each
    array's base address is materialised into a register in the entry
    block. Conditions become compare + conditional-branch pairs with
    short-circuit control flow, producing exactly the small-basic-block
    shape the paper targets. *)

type compiled = {
  cfg : Gis_ir.Cfg.t;
  vars : (string * Gis_ir.Reg.t) list;  (** scalar name -> register *)
  arrays : (string * int * int) list;
      (** array name, base byte address, length in 4-byte words *)
}

exception Error of string
(** Undeclared variables, name clashes, using an array as a scalar... *)

val compile : Ast.program -> compiled
(** The result has been validated ({!Gis_ir.Validate.check_exn}) and
    contains only reachable blocks. *)

val compile_string : string -> compiled
(** Parse then compile. *)

val array_input :
  compiled -> (string * int list) list -> (int * int) list
(** Build a simulator memory image that initialises the named arrays
    with the given contents: [(address, value)] pairs. Raises {!Error}
    for unknown arrays or oversized contents. *)

val var_reg : compiled -> string -> Gis_ir.Reg.t
