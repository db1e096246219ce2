let load ~dst ~base ~offset = Instr.Load { dst; base; offset; update = false }
let load_update ~dst ~base ~offset = Instr.Load { dst; base; offset; update = true }
let store ~src ~base ~offset = Instr.Store { src; base; offset; update = false }

let store_update ~src ~base ~offset =
  Instr.Store { src; base; offset; update = true }

let li ~dst value = Instr.Load_imm { dst; value }
let mr ~dst ~src = Instr.Move { dst; src }
let binop op ~dst ~lhs ~rhs = Instr.Binop { op; dst; lhs; rhs }
let add ~dst ~lhs ~rhs = binop Instr.Add ~dst ~lhs ~rhs:(Instr.Reg rhs)
let addi ~dst ~lhs n = binop Instr.Add ~dst ~lhs ~rhs:(Instr.Imm n)
let sub ~dst ~lhs ~rhs = binop Instr.Sub ~dst ~lhs ~rhs:(Instr.Reg rhs)
let mul ~dst ~lhs ~rhs = binop Instr.Mul ~dst ~lhs ~rhs:(Instr.Reg rhs)
let fbinop op ~dst ~lhs ~rhs = Instr.Fbinop { op; dst; lhs; rhs }
let cmp ~dst ~lhs ~rhs = Instr.Compare { dst; lhs; rhs = Instr.Reg rhs }
let cmpi ~dst ~lhs n = Instr.Compare { dst; lhs; rhs = Instr.Imm n }
let fcmp ~dst ~lhs ~rhs = Instr.Fcompare { dst; lhs; rhs }

let bt ~cr ~cond ~taken ~fallthru =
  Instr.Branch_cond { cr; cond; expect = true; taken; fallthru }

let bf ~cr ~cond ~taken ~fallthru =
  Instr.Branch_cond { cr; cond; expect = false; taken; fallthru }

let jmp target = Instr.Jump { target }
let call ?ret name args = Instr.Call { name; args; ret }
let halt = Instr.Halt

let is_terminator_kind = function
  | Instr.Branch_cond _ | Instr.Jump _ | Instr.Halt -> true
  | Instr.Load _ | Instr.Store _ | Instr.Load_imm _ | Instr.Move _
  | Instr.Binop _ | Instr.Fbinop _ | Instr.Compare _ | Instr.Fcompare _
  | Instr.Call _ ->
      false

let func ?reg_gen blocks =
  let cfg = Cfg.create ?reg_gen () in
  (* Create all blocks first so forward branch targets resolve. *)
  List.iter (fun (label, _, _) -> ignore (Cfg.add_block cfg ~label)) blocks;
  List.iter
    (fun (label, body, term) ->
      if not (is_terminator_kind term) then
        invalid_arg
          (Fmt.str "Builder.func: block %a has a non-branch terminator"
             Label.pp label);
      let b = Cfg.block_of_label cfg label in
      List.iter
        (fun kind ->
          if is_terminator_kind kind then
            invalid_arg
              (Fmt.str "Builder.func: branch in the body of block %a" Label.pp
                 label);
          Gis_util.Vec.push b.Block.body (Cfg.make_instr cfg kind))
        body;
      Cfg.set_term cfg b.Block.id (Cfg.make_instr cfg term))
    blocks;
  (match blocks with
  | [] -> invalid_arg "Builder.func: no blocks"
  | (entry, _, _) :: _ ->
      Cfg.set_entry cfg (Cfg.block_of_label cfg entry).Block.id);
  cfg
