(** Convenient CFG construction.

    Two layers: smart constructors for {!Instr.kind} values (mnemonics
    close to the paper's pseudo-code), and {!func}, which assembles a
    whole procedure from [(label, body, terminator)] triples. *)

val load : dst:Reg.t -> base:Reg.t -> offset:int -> Instr.kind
val load_update : dst:Reg.t -> base:Reg.t -> offset:int -> Instr.kind
val store : src:Reg.t -> base:Reg.t -> offset:int -> Instr.kind
val store_update : src:Reg.t -> base:Reg.t -> offset:int -> Instr.kind
val li : dst:Reg.t -> int -> Instr.kind
val mr : dst:Reg.t -> src:Reg.t -> Instr.kind

val binop : Instr.binop -> dst:Reg.t -> lhs:Reg.t -> rhs:Instr.operand -> Instr.kind
val add : dst:Reg.t -> lhs:Reg.t -> rhs:Reg.t -> Instr.kind
val addi : dst:Reg.t -> lhs:Reg.t -> int -> Instr.kind
val sub : dst:Reg.t -> lhs:Reg.t -> rhs:Reg.t -> Instr.kind
val mul : dst:Reg.t -> lhs:Reg.t -> rhs:Reg.t -> Instr.kind

val fbinop : Instr.fbinop -> dst:Reg.t -> lhs:Reg.t -> rhs:Reg.t -> Instr.kind

val cmp : dst:Reg.t -> lhs:Reg.t -> rhs:Reg.t -> Instr.kind
val cmpi : dst:Reg.t -> lhs:Reg.t -> int -> Instr.kind
val fcmp : dst:Reg.t -> lhs:Reg.t -> rhs:Reg.t -> Instr.kind

val bt :
  cr:Reg.t -> cond:Instr.cond -> taken:Label.t -> fallthru:Label.t -> Instr.kind
(** Branch if the condition holds (paper's BT). *)

val bf :
  cr:Reg.t -> cond:Instr.cond -> taken:Label.t -> fallthru:Label.t -> Instr.kind
(** Branch if the condition does {e not} hold (paper's BF): [bf ~cond:Gt]
    branches to [taken] when the compare result is not [Gt]. *)

val jmp : Label.t -> Instr.kind
val call : ?ret:Reg.t -> string -> Reg.t list -> Instr.kind
val halt : Instr.kind

val func :
  ?reg_gen:Reg.Gen.t ->
  (Label.t * Instr.kind list * Instr.kind) list ->
  Cfg.t
(** Build a procedure; the first triple is the entry block. The
    terminator kind must be a branch kind ({!bt}, {!bf}, {!jmp},
    {!halt}); anything else raises [Invalid_argument]. *)
