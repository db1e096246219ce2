open Gis_ir
module B = Builder

let gen = Reg.Gen.create ()
let r0 = Reg.Gen.reserve gen Reg.Gpr 0
let r1 = Reg.Gen.reserve gen Reg.Gpr 1
let r2 = Reg.Gen.reserve gen Reg.Gpr 2
let cr0 = Reg.Gen.reserve gen Reg.Cr 0
let f0 = Reg.Gen.reserve gen Reg.Fpr 0
let f1 = Reg.Gen.reserve gen Reg.Fpr 1

let reg_list = Alcotest.testable (Fmt.list Reg.pp) (List.equal Reg.equal)

let igen = Instr.Gen.create ()
let mk kind = Instr.Gen.make igen kind

let test_reg_basics () =
  Alcotest.(check bool) "equal" true (Reg.equal r0 r0);
  Alcotest.(check bool)
    "distinct classes" false
    (Reg.equal r0 (Reg.Gen.reserve (Reg.Gen.create ()) Reg.Cr 0));
  Alcotest.(check string) "pp gpr" "r12" (Fmt.str "%a" Reg.pp (Reg.Gen.reserve gen Reg.Gpr 12));
  Alcotest.(check string) "pp cr" "cr7" (Fmt.str "%a" Reg.pp (Reg.Gen.reserve gen Reg.Cr 7));
  Alcotest.(check string) "pp fpr" "f3" (Fmt.str "%a" Reg.pp (Reg.Gen.reserve gen Reg.Fpr 3));
  let g = Reg.Gen.create () in
  let a = Reg.Gen.fresh g Reg.Gpr in
  let _ = Reg.Gen.reserve g Reg.Gpr 5 in
  let b = Reg.Gen.fresh g Reg.Gpr in
  Alcotest.(check bool) "fresh after reserve" true (b.Reg.id > 5);
  Alcotest.(check int) "first fresh" 0 a.Reg.id;
  (* Hash is injective on (id, class). *)
  Alcotest.(check bool) "hash distinct" true (Reg.hash r0 <> Reg.hash cr0)

let test_defs_uses () =
  let check name i defs uses =
    Alcotest.check reg_list (name ^ " defs") defs (Instr.defs i);
    Alcotest.check reg_list (name ^ " uses") uses (Instr.uses i)
  in
  check "load" (mk (B.load ~dst:r0 ~base:r1 ~offset:4)) [ r0 ] [ r1 ];
  check "load update"
    (mk (B.load_update ~dst:r0 ~base:r1 ~offset:8))
    [ r0; r1 ] [ r1 ];
  check "store" (mk (B.store ~src:r0 ~base:r1 ~offset:0)) [] [ r0; r1 ];
  check "store update"
    (mk (B.store_update ~src:r0 ~base:r1 ~offset:4))
    [ r1 ] [ r0; r1 ];
  check "li" (mk (B.li ~dst:r2 7)) [ r2 ] [];
  check "move" (mk (B.mr ~dst:r0 ~src:r1)) [ r0 ] [ r1 ];
  check "add" (mk (B.add ~dst:r2 ~lhs:r0 ~rhs:r1)) [ r2 ] [ r0; r1 ];
  check "addi" (mk (B.addi ~dst:r2 ~lhs:r0 3)) [ r2 ] [ r0 ];
  check "cmp" (mk (B.cmp ~dst:cr0 ~lhs:r0 ~rhs:r1)) [ cr0 ] [ r0; r1 ];
  check "fadd" (mk (B.fbinop Instr.Fadd ~dst:f0 ~lhs:f1 ~rhs:f1)) [ f0 ] [ f1; f1 ];
  check "fcmp" (mk (B.fcmp ~dst:cr0 ~lhs:f0 ~rhs:f1)) [ cr0 ] [ f0; f1 ];
  check "branch"
    (mk (B.bt ~cr:cr0 ~cond:Instr.Lt ~taken:"A" ~fallthru:"B"))
    [] [ cr0 ];
  check "jump" (mk (B.jmp "A")) [] [];
  check "call" (mk (B.call ~ret:r0 "f" [ r1; r2 ])) [ r0 ] [ r1; r2 ];
  check "halt" (mk Instr.Halt) [] []

let test_predicates () =
  let load = mk (B.load ~dst:r0 ~base:r1 ~offset:0) in
  let store = mk (B.store ~src:r0 ~base:r1 ~offset:0) in
  let call = mk (B.call "f" []) in
  let branch = mk (B.jmp "X") in
  let add = mk (B.add ~dst:r2 ~lhs:r0 ~rhs:r1) in
  Alcotest.(check bool) "load memory" true (Instr.touches_memory load);
  Alcotest.(check bool) "add not memory" false (Instr.touches_memory add);
  Alcotest.(check bool) "load speculable" true (Instr.speculable load);
  Alcotest.(check bool) "store not speculable" false (Instr.speculable store);
  Alcotest.(check bool) "store movable" true (Instr.movable_across_blocks store);
  Alcotest.(check bool) "call not movable" false (Instr.movable_across_blocks call);
  Alcotest.(check bool) "branch not movable" false (Instr.movable_across_blocks branch);
  Alcotest.(check bool) "branch is branch" true (Instr.is_branch branch);
  Alcotest.(check bool) "unit fixed" true (Instr.unit_ty add = Instr.Fixed);
  Alcotest.(check bool) "unit branch" true (Instr.unit_ty branch = Instr.Branch);
  Alcotest.(check bool)
    "unit float" true
    (Instr.unit_ty (mk (B.fbinop Instr.Fmul ~dst:f0 ~lhs:f0 ~rhs:f1)) = Instr.Float)

let test_rename () =
  let i = mk (B.add ~dst:r2 ~lhs:r0 ~rhs:r0) in
  let j = Instr.rename_uses i ~from_reg:r0 ~to_reg:r1 in
  Alcotest.check reg_list "uses renamed" [ r1; r1 ] (Instr.uses j);
  Alcotest.check reg_list "defs untouched" [ r2 ] (Instr.defs j);
  Alcotest.(check int) "uid preserved" (Instr.uid i) (Instr.uid j);
  let k = Instr.rename_def i ~from_reg:r2 ~to_reg:r1 in
  Alcotest.check reg_list "def renamed" [ r1 ] (Instr.defs k);
  Alcotest.check_raises "rename non-def"
    (Invalid_argument
       (Fmt.str "Instr.rename_def: %d does not (plainly) define %a"
          (Instr.uid i) Reg.pp r0)) (fun () ->
      ignore (Instr.rename_def i ~from_reg:r0 ~to_reg:r1));
  (* The base of an update load is not plainly renameable. *)
  let lu = mk (B.load_update ~dst:r0 ~base:r1 ~offset:4) in
  Alcotest.(check bool) "update base rename rejected" true
    (match Instr.rename_def lu ~from_reg:r1 ~to_reg:r2 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_cond_eval () =
  List.iter
    (fun (c, ord, expected) ->
      Alcotest.(check bool)
        (Fmt.str "%a %d" Instr.pp_cond c ord)
        expected (Instr.eval_cond c ord))
    [
      (Instr.Lt, -1, true); (Instr.Lt, 0, false); (Instr.Gt, 1, true);
      (Instr.Eq, 0, true); (Instr.Eq, 1, false); (Instr.Le, 0, true);
      (Instr.Ge, -1, false); (Instr.Ne, -1, true); (Instr.Ne, 0, false);
    ];
  List.iter
    (fun c ->
      List.iter
        (fun ord ->
          Alcotest.(check bool)
            (Fmt.str "negate %a" Instr.pp_cond c)
            (not (Instr.eval_cond c ord))
            (Instr.eval_cond (Instr.negate_cond c) ord))
        [ -1; 0; 1 ])
    [ Instr.Lt; Instr.Gt; Instr.Eq; Instr.Le; Instr.Ge; Instr.Ne ]

let test_pp () =
  Alcotest.(check string)
    "load pp" "L     r0=mem(r1,4)"
    (Fmt.str "%a" Instr.pp (mk (B.load ~dst:r0 ~base:r1 ~offset:4)));
  Alcotest.(check string)
    "lu pp" "LU    r0,r1=mem(r1,8)"
    (Fmt.str "%a" Instr.pp (mk (B.load_update ~dst:r0 ~base:r1 ~offset:8)));
  Alcotest.(check string)
    "bf pp" "BF    X,cr0,gt"
    (Fmt.str "%a" Instr.pp
       (mk (B.bf ~cr:cr0 ~cond:Instr.Gt ~taken:"X" ~fallthru:"Y")))

(* ---- CFG ---- *)

let diamond () =
  let g = Reg.Gen.create () in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  B.func ~reg_gen:g
    [
      ("A", [ B.cmpi ~dst:c ~lhs:x 0 ],
       B.bt ~cr:c ~cond:Instr.Eq ~taken:"B" ~fallthru:"C");
      ("B", [ B.li ~dst:x 1 ], B.jmp "D");
      ("C", [ B.li ~dst:x 2 ], B.jmp "D");
      ("D", [], Instr.Halt);
    ]

let test_cfg_structure () =
  let cfg = diamond () in
  Alcotest.(check int) "blocks" 4 (Cfg.num_blocks cfg);
  Alcotest.(check int) "entry" 0 (Cfg.entry cfg);
  let succs = Cfg.successors cfg 0 in
  Alcotest.(check (list (pair int string)))
    "A succs"
    [ (2, "fallthru"); (1, "taken") ]
    (List.map (fun (b, k) -> (b, Fmt.str "%a" Cfg.pp_edge_kind k)) succs);
  Alcotest.(check (list int)) "D preds" [ 1; 2 ] (Cfg.predecessors cfg 3);
  Alcotest.(check int) "instr count" 7 (Cfg.instr_count cfg);
  Alcotest.(check (list int)) "layout" [ 0; 1; 2; 3 ] (Cfg.layout cfg)

let test_cfg_reachable_compact () =
  let g = Reg.Gen.create () in
  let cfg =
    B.func ~reg_gen:g
      [
        ("A", [], B.jmp "C");
        ("B", [], B.jmp "C");  (* unreachable *)
        ("C", [], Instr.Halt);
      ]
  in
  Alcotest.(check int) "reachable" 2
    (Gis_util.Ints.Int_set.cardinal (Cfg.reachable cfg));
  let compacted = Cfg.compact cfg in
  Alcotest.(check int) "compact blocks" 2 (Cfg.num_blocks compacted);
  Alcotest.(check bool) "labels kept" true (Cfg.find_label compacted "C" <> None);
  Alcotest.(check bool) "B dropped" true (Cfg.find_label compacted "B" = None)

let test_deep_copy_isolation () =
  let cfg = diamond () in
  let copy = Cfg.deep_copy cfg in
  let b = Cfg.block_of_label cfg "B" in
  let before = Cfg.instr_count copy in
  ignore (Gis_util.Vec.pop b.Block.body);
  Alcotest.(check int) "copy unaffected" before (Cfg.instr_count copy);
  Alcotest.(check int) "original shrank" (before - 1) (Cfg.instr_count cfg)

let test_update_instr () =
  let cfg = diamond () in
  let b = Cfg.block_of_label cfg "B" in
  let i = Gis_util.Vec.get b.Block.body 0 in
  let updated =
    Cfg.update_instr cfg ~uid:(Instr.uid i) ~f:(fun old ->
        Instr.with_kind old (B.li ~dst:(List.hd (Instr.defs old)) 42))
  in
  Alcotest.(check bool) "found" true updated;
  (match Instr.kind (Gis_util.Vec.get b.Block.body 0) with
  | Instr.Load_imm { value; _ } -> Alcotest.(check int) "value" 42 value
  | _ -> Alcotest.fail "unexpected kind");
  Alcotest.(check bool) "missing uid" false
    (Cfg.update_instr cfg ~uid:9999 ~f:Fun.id);
  let c = Cfg.block_of_label cfg "C" in
  Alcotest.(check bool) "found in its own block" true
    (Cfg.update_instr ~block:b.Block.id cfg ~uid:(Instr.uid i) ~f:Fun.id);
  Alcotest.(check bool) "not found in another block" false
    (Cfg.update_instr ~block:c.Block.id cfg ~uid:(Instr.uid i) ~f:Fun.id)

let test_insert_block_after () =
  let cfg = diamond () in
  let nb = Cfg.insert_block_after cfg ~after:1 ~label:"B2" in
  Alcotest.(check (list int)) "layout order" [ 0; 1; nb.Block.id; 2; 3 ]
    (Cfg.layout cfg)

let test_owner_of_uid () =
  let cfg = diamond () in
  let b = Cfg.block_of_label cfg "C" in
  let i = Gis_util.Vec.get b.Block.body 0 in
  Alcotest.(check (option int)) "owner" (Some b.Block.id)
    (Test_support.owner_of_uid cfg (Instr.uid i));
  Alcotest.(check (option int)) "terminator owner" (Some b.Block.id)
    (Test_support.owner_of_uid cfg (Instr.uid b.Block.term));
  Alcotest.(check (option int)) "none" None
    (Test_support.owner_of_uid cfg 424242)

(* ---- the edge cache ---- *)

let shape_moves name cfg expected f =
  let before = Cfg.shape_version cfg in
  f ();
  Alcotest.(check bool) name expected (Cfg.shape_version cfg <> before)

let test_shape_version () =
  let cfg = diamond () in
  let a = Cfg.block_of_label cfg "A" and b = Cfg.block_of_label cfg "B" in
  let cr = List.hd (Instr.uses a.Block.term) in
  let cr' = Cfg.fresh_reg cfg Reg.Cr in
  ignore (Cfg.successors cfg 0);
  shape_moves "a rename keeps the shape" cfg false (fun () ->
      ignore
        (Cfg.update_instr cfg ~uid:(Instr.uid a.Block.term)
           ~f:(Instr.map_regs ~f:(fun r -> if Reg.equal r cr then cr' else r))));
  shape_moves "the same targets keep the shape" cfg false (fun () ->
      Cfg.retarget cfg b.Block.id ~f:Fun.id);
  shape_moves "a new target moves the shape" cfg true (fun () ->
      Cfg.retarget cfg b.Block.id ~f:(fun _ -> "C"));
  Alcotest.(check (list int)) "C preds" [ 0; 1 ] (Cfg.predecessors cfg 2);
  Alcotest.(check (list int)) "D preds" [ 2 ] (Cfg.predecessors cfg 3);
  shape_moves "a new block moves the shape" cfg true (fun () ->
      ignore (Cfg.insert_block_after cfg ~after:1 ~label:"B2"));
  let uid = Instr.uid b.Block.term in
  Cfg.set_term cfg b.Block.id (Instr.with_kind b.Block.term (B.jmp "B2"));
  Alcotest.(check int) "set_term keeps the uid" uid (Instr.uid b.Block.term);
  Alcotest.(check (list int)) "B2 preds" [ 1 ] (Cfg.predecessors cfg 4);
  Alcotest.(check (list int)) "C preds again" [ 0 ] (Cfg.predecessors cfg 2);
  (match Validate.check cfg with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es))

(* The cached edges against a from-scratch decode of every terminator. *)
let edges_fresh cfg =
  List.for_all
    (fun id ->
      let term = (Cfg.block cfg id).Block.term in
      let kinds =
        match Instr.kind term with
        | Instr.Branch_cond _ -> [ Cfg.Fallthru; Cfg.Taken ]
        | Instr.Jump _ -> [ Cfg.Always ]
        | _ -> []
      in
      let succs = Test_support.succs cfg id in
      Cfg.successors cfg id = List.combine succs kinds
      && Cfg.predecessors cfg id = (Test_support.preds cfg).(id))
    (Cfg.layout cfg)

(* Random sequences of block insertions, terminator writes, retargets
   and terminator updates (renames among them), with edge reads
   scattered between them: the cache always equals a fresh decode, and
   a write that keeps every successor label keeps the shape version. *)
let prop_edge_cache seed =
  let rng = Random.State.make [| seed |] in
  let cfg = diamond () in
  let crs = Array.init 3 (fun _ -> Cfg.fresh_reg cfg Reg.Cr) in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let label () =
    (Cfg.block cfg (Random.State.int rng (Cfg.num_blocks cfg))).Block.label
  in
  let term_kind () =
    match Random.State.int rng 3 with
    | 0 -> Instr.Halt
    | 1 -> B.jmp (label ())
    | _ ->
        B.bt ~cr:(pick crs) ~cond:Instr.Lt ~taken:(label ())
          ~fallthru:(label ())
  in
  let ok = ref true in
  for step = 1 to 1 + Random.State.int rng 30 do
    let id = Random.State.int rng (Cfg.num_blocks cfg) in
    let term = (Cfg.block cfg id).Block.term in
    let before = Cfg.shape_version cfg in
    (match Random.State.int rng 5 with
    | 0 ->
        ignore
          (Cfg.insert_block_after cfg ~after:id
             ~label:(Fmt.str "N%d" step));
        if Cfg.shape_version cfg = before then ok := false
    | 1 -> Cfg.set_term cfg id (Cfg.make_instr cfg (term_kind ()))
    | 2 ->
        Cfg.retarget cfg id ~f:(fun l ->
            if Random.State.bool rng then label () else l)
    | 3 ->
        let cr = pick crs in
        ignore
          (Cfg.update_instr cfg ~uid:(Instr.uid term)
             ~f:(Instr.map_regs ~f:(fun r -> if r.Reg.cls = Reg.Cr then cr else r)));
        if Cfg.shape_version cfg <> before then ok := false
    | _ ->
        ignore
          (Cfg.update_instr cfg ~uid:(Instr.uid term) ~f:(fun i ->
               Instr.with_kind i (term_kind ()))));
    if Random.State.bool rng && not (edges_fresh cfg) then ok := false
  done;
  !ok && edges_fresh cfg

let edge_cache_property =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"edge cache = fresh decode" ~count:300
       QCheck.(int_range 0 1_000_000)
       prop_edge_cache)

(* ---- validation ---- *)

let test_validate_ok () =
  match Validate.check (diamond ()) with
  | Ok () -> ()
  | Error es -> Alcotest.failf "unexpected: %a" Fmt.(list string) es

let expect_invalid name build =
  match Validate.check (build ()) with
  | Ok () -> Alcotest.failf "%s: expected a violation" name
  | Error _ -> ()

let test_validate_bad_target () =
  expect_invalid "bad target" (fun () ->
      let g = Reg.Gen.create () in
      B.func ~reg_gen:g [ ("A", [], B.jmp "NOWHERE") ])

let test_validate_class_violation () =
  expect_invalid "gpr branch" (fun () ->
      let g = Reg.Gen.create () in
      let x = Reg.Gen.fresh g Reg.Gpr in
      B.func ~reg_gen:g
        [
          ("A", [], B.bt ~cr:x ~cond:Instr.Lt ~taken:"A" ~fallthru:"A");
        ])

let test_validate_update_alias () =
  expect_invalid "lu dst=base" (fun () ->
      let g = Reg.Gen.create () in
      let x = Reg.Gen.fresh g Reg.Gpr in
      B.func ~reg_gen:g
        [ ("A", [ B.load_update ~dst:x ~base:x ~offset:4 ], Instr.Halt) ])

(* Every kind of validator message, byte for byte. The location prefix
   is formatted only when a check fails, and must read as it always
   has. *)
let validate_messages () =
  let g = Reg.Gen.create () in
  let r = Reg.Gen.fresh g Reg.Gpr in
  let f = Reg.Gen.fresh g Reg.Fpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  let cfg =
    B.func ~reg_gen:g
      [
        ( "A",
          [
            B.load ~dst:c ~base:r ~offset:0;
            B.load ~dst:r ~base:f ~offset:0;
            B.load_update ~dst:f ~base:r ~offset:4;
            B.load_update ~dst:r ~base:r ~offset:4;
            B.store ~src:c ~base:r ~offset:0;
            B.store ~src:r ~base:f ~offset:0;
            B.li ~dst:f 1;
            B.mr ~dst:c ~src:c;
            B.mr ~dst:r ~src:f;
            B.add ~dst:f ~lhs:r ~rhs:r;
            B.fbinop Instr.Fadd ~dst:r ~lhs:f ~rhs:f;
            B.cmp ~dst:r ~lhs:r ~rhs:r;
            B.cmpi ~dst:c ~lhs:f 0;
            B.fcmp ~dst:r ~lhs:f ~rhs:f;
            B.fcmp ~dst:c ~lhs:r ~rhs:f;
            B.call "f" [ c ];
            B.call ~ret:c "g" [];
          ],
          B.bt ~cr:r ~cond:Instr.Lt ~taken:"B" ~fallthru:"C" );
        ("B", [ B.li ~dst:r 1 ], B.jmp "NOWHERE");
        ("C", [], B.jmp "D");
        ("D", [], B.jmp "E");
        ("E", [], B.halt);
      ]
  in
  let block l = Cfg.block_of_label cfg l in
  let a = block "A" and b = block "B" and e = block "E" in
  Gis_util.Vec.set b.Block.body 0 (Gis_util.Vec.get a.Block.body 0);
  Gis_util.Vec.push b.Block.body (Cfg.make_instr cfg (B.jmp "C"));
  Cfg.set_term cfg e.Block.id (Cfg.make_instr cfg (B.li ~dst:r 2));
  let no_entry =
    B.func ~reg_gen:g [ ("X", [], B.jmp "Y"); ("Y", [], B.halt) ]
  in
  Cfg.set_entry no_entry 2;
  List.concat_map
    (fun c ->
      match Validate.check c with Ok () -> [ "ok" ] | Error es -> es)
    [ cfg; no_entry; Cfg.create () ]

let test_validate_messages () =
  Alcotest.(check (list string))
    "messages"
    [
      "A[0] L     cr2=mem(r0,0): load destination must be gpr or fpr";
      "A[1] L     r0=mem(f1,0): load base must be gpr";
      "A[2] LU    f1,r0=mem(r0,4): update load destination must be gpr";
      "A[3] LU    r0,r0=mem(r0,4): update load with dst = base is ambiguous";
      "A[4] ST    mem(r0,0)=cr2: store source must be gpr or fpr";
      "A[5] ST    mem(f1,0)=r0: store base must be gpr";
      "A[6] LI    f1=1: li destination must be gpr";
      "A[7] LR    cr2=cr2: move of condition registers is not a machine \
       instruction";
      "A[8] LR    r0=f1: move operands must share a class or transfer cr<->gpr";
      "A[9] A    f1=r0,r0: binop registers must be gpr";
      "A[10] FA    r0=f1,f1: fbinop registers must be fpr";
      "A[11] C     r0=r0,r0: compare destination must be cr";
      "A[12] C     cr2=f1,0: compare operands must be gpr";
      "A[13] FC    r0=f1,f1: fcompare destination must be cr";
      "A[14] FC    cr2=r0,f1: fcompare operands must be fpr";
      "A[15] CALL  f(cr2): call arguments must be gpr or fpr";
      "A[16] CALL  cr2=g(): call result must be gpr or fpr";
      "A[term] BT    B,r0,lt: branch must test a condition register";
      "B[0] L     cr2=mem(r0,0): duplicate uid 5";
      "B[0] L     cr2=mem(r0,0): load destination must be gpr or fpr";
      "B[1] B     C: branch in block body";
      "B: unresolved branch target NOWHERE";
      "E[term] LI    r0=2: terminator is not a branch";
      "Block.successor_labels: non-branch terminator";
      "entry block is not in the layout";
      "empty graph";
    ]
    (validate_messages ())

let test_builder_rejects_branch_in_body () =
  Alcotest.(check bool) "branch in body" true
    (match
       B.func [ ("A", [ B.jmp "A" ], Instr.Halt) ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "gis_ir"
    [
      ( "reg",
        [ Alcotest.test_case "basics" `Quick test_reg_basics ] );
      ( "instr",
        [
          Alcotest.test_case "defs/uses" `Quick test_defs_uses;
          Alcotest.test_case "predicates" `Quick test_predicates;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "cond-eval" `Quick test_cond_eval;
          Alcotest.test_case "pp" `Quick test_pp;
        ] );
      ( "cfg",
        [
          Alcotest.test_case "structure" `Quick test_cfg_structure;
          Alcotest.test_case "reachable/compact" `Quick test_cfg_reachable_compact;
          Alcotest.test_case "deep-copy" `Quick test_deep_copy_isolation;
          Alcotest.test_case "update-instr" `Quick test_update_instr;
          Alcotest.test_case "insert-after" `Quick test_insert_block_after;
          Alcotest.test_case "owner-of-uid" `Quick test_owner_of_uid;
          Alcotest.test_case "shape version" `Quick test_shape_version;
          edge_cache_property;
        ] );
      ( "validate",
        [
          Alcotest.test_case "ok" `Quick test_validate_ok;
          Alcotest.test_case "bad-target" `Quick test_validate_bad_target;
          Alcotest.test_case "class-violation" `Quick test_validate_class_violation;
          Alcotest.test_case "update-alias" `Quick test_validate_update_alias;
          Alcotest.test_case "branch-in-body" `Quick test_builder_rejects_branch_in_body;
          Alcotest.test_case "messages" `Quick test_validate_messages;
        ] );
    ]
