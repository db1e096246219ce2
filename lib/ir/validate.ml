open Gis_util

let reg_is cls (r : Reg.t) = r.Reg.cls = cls

let check_kind ~err ~where kind =
  let expect what ok =
    if not ok then err (Fmt.str "%s: %s" (where ()) what)
  in
  match kind with
  | Instr.Load { dst; base; update; _ } ->
      expect "load destination must be gpr or fpr" (not (reg_is Reg.Cr dst));
      expect "load base must be gpr" (reg_is Reg.Gpr base);
      if update then begin
        expect "update load destination must be gpr" (reg_is Reg.Gpr dst);
        expect "update load with dst = base is ambiguous"
          (not (Reg.equal dst base))
      end
  | Instr.Store { src; base; _ } ->
      expect "store source must be gpr or fpr" (not (reg_is Reg.Cr src));
      expect "store base must be gpr" (reg_is Reg.Gpr base)
  | Instr.Load_imm { dst; _ } -> expect "li destination must be gpr" (reg_is Reg.Gpr dst)
  | Instr.Move { dst; src } -> (
      (* Same-class moves between GPRs or FPRs, plus the two
         condition-register transfer forms (mfcr/mtcr): cr -> gpr and
         gpr -> cr, which the allocator uses to spill CRs through an
         integer scratch. cr -> cr stays ill-formed. *)
      match dst.Reg.cls, src.Reg.cls with
      | Reg.Gpr, Reg.Gpr | Reg.Fpr, Reg.Fpr -> ()
      | Reg.Gpr, Reg.Cr | Reg.Cr, Reg.Gpr -> ()
      | Reg.Cr, Reg.Cr ->
          expect "move of condition registers is not a machine instruction"
            false
      | _ -> expect "move operands must share a class or transfer cr<->gpr" false)
  | Instr.Binop { dst; lhs; rhs; _ } ->
      expect "binop registers must be gpr"
        (reg_is Reg.Gpr dst && reg_is Reg.Gpr lhs
        && (match rhs with Instr.Reg r -> reg_is Reg.Gpr r | Instr.Imm _ -> true))
  | Instr.Fbinop { dst; lhs; rhs; _ } ->
      expect "fbinop registers must be fpr"
        (reg_is Reg.Fpr dst && reg_is Reg.Fpr lhs && reg_is Reg.Fpr rhs)
  | Instr.Compare { dst; lhs; rhs } ->
      expect "compare destination must be cr" (reg_is Reg.Cr dst);
      expect "compare operands must be gpr"
        (reg_is Reg.Gpr lhs
        && (match rhs with Instr.Reg r -> reg_is Reg.Gpr r | Instr.Imm _ -> true))
  | Instr.Fcompare { dst; lhs; rhs } ->
      expect "fcompare destination must be cr" (reg_is Reg.Cr dst);
      expect "fcompare operands must be fpr" (reg_is Reg.Fpr lhs && reg_is Reg.Fpr rhs)
  | Instr.Branch_cond { cr; _ } ->
      expect "branch must test a condition register" (reg_is Reg.Cr cr)
  | Instr.Jump _ | Instr.Halt -> ()
  | Instr.Call { args; ret; _ } ->
      expect "call arguments must be gpr or fpr"
        (List.for_all (fun r -> not (reg_is Reg.Cr r)) args);
      expect "call result must be gpr or fpr"
        (match ret with None -> true | Some r -> not (reg_is Reg.Cr r))

let is_branch_kind = function
  | Instr.Branch_cond _ | Instr.Jump _ | Instr.Halt -> true
  | Instr.Load _ | Instr.Store _ | Instr.Load_imm _ | Instr.Move _
  | Instr.Binop _ | Instr.Fbinop _ | Instr.Compare _ | Instr.Fcompare _
  | Instr.Call _ ->
      false

(* Do [targets], a terminator's successor labels, name the blocks of
   the cached [edges] in the same order? *)
let rec same_edges cfg targets edges =
  match targets, edges with
  | [], [] -> true
  | target :: targets, (s, _) :: edges ->
      (match Cfg.find_label cfg target with Some id -> id = s | None -> false)
      && same_edges cfg targets edges
  | [], _ :: _ | _ :: _, [] -> false

(* [where] locates the instruction in a message; it is a thunk because
   formatting it costs more than checking, and only a failure needs it. *)
let check cfg =
  let errors = ref [] in
  let err msg = errors := msg :: !errors in
  let seen_uids = Hashtbl.create 64 in
  let check_instr ~where ~terminator i =
    let u = Instr.uid i in
    if Hashtbl.mem seen_uids u then
      err (Fmt.str "%s: duplicate uid %d" (where ()) u)
    else Hashtbl.add seen_uids u ();
    let branchy = is_branch_kind (Instr.kind i) in
    if terminator && not branchy then
      err (Fmt.str "%s: terminator is not a branch" (where ()));
    if (not terminator) && branchy then
      err (Fmt.str "%s: branch in block body" (where ()));
    check_kind ~err ~where (Instr.kind i)
  in
  let layout = Cfg.layout cfg in
  let layout_set = Hashtbl.create 16 in
  List.iter
    (fun id ->
      if Hashtbl.mem layout_set id then
        err (Fmt.str "block id %d appears twice in the layout" id)
      else Hashtbl.add layout_set id ())
    layout;
  if layout <> [] && not (Hashtbl.mem layout_set (Cfg.entry cfg)) then
    err "entry block is not in the layout";
  (* Edges decoded at an older shape version are decoded afresh on
     their next read, so only current ones can be stale: those are
     compared with the terminators, and nothing is decoded here. *)
  let cached = Cfg.edges_cached cfg in
  Cfg.iter_blocks
    (fun b ->
      let label = b.Block.label in
      Vec.iteri
        (fun idx i ->
          let where () = Fmt.str "%a[%d] %a" Label.pp label idx Instr.pp i in
          check_instr ~where ~terminator:false i)
        b.Block.body;
      let where () =
        Fmt.str "%a[term] %a" Label.pp label Instr.pp b.Block.term
      in
      check_instr ~where ~terminator:true b.Block.term;
      let targets =
        try Block.successor_labels b with Invalid_argument m -> err m; []
      in
      List.iter
        (fun target ->
          if Cfg.find_label cfg target = None then
            err
              (Fmt.str "%a: unresolved branch target %a" Label.pp label
                 Label.pp target))
        targets;
      if cached && not (same_edges cfg targets (Cfg.successors cfg b.Block.id))
      then
        err
          (Fmt.str "%a: cached successor edges differ from the terminator"
             Label.pp label))
    cfg;
  if Cfg.num_blocks cfg = 0 || layout = [] then err "empty graph";
  match List.rev !errors with [] -> Ok () | es -> Error es

let check_exn cfg =
  match check cfg with
  | Ok () -> ()
  | Error es ->
      failwith (Fmt.str "invalid IR:@,%a" Fmt.(list ~sep:cut string) es)
