open Gis_ir
open Gis_analysis
open Gis_util.Ints
module B = Builder
module Ddg = Gis_ddg.Ddg

(* ---- synthetic flow graphs ---- *)

let flow_of succ ~entry =
  Flow.make ~entry ~to_block:(Array.init (Array.length succ) Fun.id) succ

(* The diamond: 0 -> 1,2 -> 3. *)
let diamond = flow_of [| [ 1; 2 ]; [ 3 ]; [ 3 ]; [] |] ~entry:0

let test_postorder () =
  let rpo = Flow.reverse_postorder diamond in
  Alcotest.(check int) "first is entry" 0 (List.hd rpo);
  Alcotest.(check int) "length" 4 (List.length rpo);
  Alcotest.(check bool) "3 last" true (List.nth rpo 3 = 3)

let test_reachability () =
  let m = Flow.reachable_matrix diamond in
  Alcotest.(check bool) "0->3" true m.(0).(3);
  Alcotest.(check bool) "1->2" false m.(1).(2);
  Alcotest.(check bool) "self" true m.(1).(1)

let test_acyclicity () =
  Alcotest.(check bool) "diamond acyclic" true (Flow.is_acyclic diamond);
  let loop = flow_of [| [ 1 ]; [ 0 ] |] ~entry:0 in
  Alcotest.(check bool) "loop cyclic" false (Flow.is_acyclic loop)

let test_dominance_diamond () =
  let dom = Dominance.compute diamond in
  Alcotest.(check bool) "0 dom 3" true (Dominance.dominates dom 0 3);
  Alcotest.(check bool) "1 !dom 3" false (Dominance.dominates dom 1 3);
  Alcotest.(check bool) "reflexive" true (Dominance.dominates dom 2 2);
  Alcotest.(check (option int)) "idom 3" (Some 0) (Dominance.idom dom 3);
  Alcotest.(check (option int)) "idom of entry" None (Dominance.idom dom 0);
  Alcotest.(check int) "depth 3" 1 (Dominance.dom_tree_depth dom 3)

let test_postdominance_diamond () =
  let post = Dominance.Post.compute diamond in
  Alcotest.(check bool) "3 pdom 0" true (Dominance.Post.postdominates post 3 0);
  Alcotest.(check bool) "1 !pdom 0" false (Dominance.Post.postdominates post 1 0);
  let dom = Dominance.compute diamond in
  Alcotest.(check bool) "0 equiv 3" true (Dominance.equivalent dom post 0 3);
  Alcotest.(check bool) "0 !equiv 1" false (Dominance.equivalent dom post 0 1)

(* Cross-check the CHK dominators against the naive set-intersection
   reference on a handful of irregular graphs. *)
let test_dominance_vs_naive () =
  let graphs =
    [
      diamond;
      flow_of [| [ 1 ]; [ 2; 3 ]; [ 4 ]; [ 4 ]; [ 1; 5 ]; [] |] ~entry:0;
      flow_of [| [ 1; 2 ]; [ 3 ]; [ 3; 4 ]; [ 5 ]; [ 5 ]; [ 1 ] |] ~entry:0;
      flow_of [| [ 0 ] |] ~entry:0;
      (* unreachable node 3 *)
      flow_of [| [ 1 ]; [ 2 ]; []; [ 2 ] |] ~entry:0;
    ]
  in
  List.iteri
    (fun gi flow ->
      let dom = Dominance.compute flow in
      let naive = Dominance.naive_dominators flow in
      for a = 0 to flow.Flow.num_nodes - 1 do
        for b = 0 to flow.Flow.num_nodes - 1 do
          let fast = Dominance.dominates dom a b in
          let slow =
            (not (Int_set.is_empty naive.(b))) && Int_set.mem a naive.(b)
          in
          Alcotest.(check bool) (Fmt.str "graph %d: %d dom %d" gi a b) slow fast
        done
      done)
    graphs

(* ---- the paper's Figure 3/4 structure via the minmax program ---- *)

let minmax_view () =
  let t = Gis_workloads.Minmax.build () in
  let regions = Regions.compute t.Gis_workloads.Minmax.cfg in
  let region =
    List.find (fun r -> r.Regions.loop <> None) (Regions.regions regions)
  in
  let view = Regions.view t.Gis_workloads.Minmax.cfg regions region in
  let node_of label =
    let blk = Cfg.block_of_label t.Gis_workloads.Minmax.cfg label in
    match view.Regions.block_node blk.Block.id with
    | Some v -> v
    | None -> Alcotest.failf "label %s not in loop view" label
  in
  (t, view, node_of)

let test_minmax_loop_shape () =
  let _, view, _ = minmax_view () in
  Alcotest.(check int) "ten blocks" 10 view.Regions.flow.Flow.num_nodes;
  Alcotest.(check bool) "forward graph acyclic" true
    (Flow.is_acyclic view.Regions.flow)

(* Figure 4's equivalences: {BL1,BL10}, {BL2,BL4}, {BL6,BL8}. *)
let test_minmax_equivalences () =
  let _, view, node_of = minmax_view () in
  let dom = Dominance.compute view.Regions.flow in
  let post = Dominance.Post.compute view.Regions.flow in
  let equiv a b = Dominance.equivalent dom post (node_of a) (node_of b) in
  Alcotest.(check bool) "BL1~BL10" true (equiv "CL.0" "CL.9");
  Alcotest.(check bool) "BL2~BL4" true (equiv "BL2" "CL.6");
  Alcotest.(check bool) "BL6~BL8" true (equiv "CL.4" "CL.11");
  Alcotest.(check bool) "BL1!~BL2" false (equiv "CL.0" "BL2");
  Alcotest.(check bool) "BL2!~BL6" false (equiv "BL2" "CL.4");
  Alcotest.(check bool) "BL3!~BL1" false (equiv "CL.0" "BL3")

(* Figure 4's control dependence edges. *)
let test_minmax_cdg () =
  let _, view, node_of = minmax_view () in
  let cdg =
    Cdg.compute ~edge_label:view.Regions.edge_label view.Regions.flow
  in
  let parents label =
    List.map fst (Cdg.parents cdg (node_of label)) |> List.sort_uniq Int.compare
  in
  Alcotest.(check (list int)) "BL1 has no parents" [] (parents "CL.0");
  Alcotest.(check (list int)) "BL10 has no parents" [] (parents "CL.9");
  Alcotest.(check (list int)) "BL2 <- BL1" [ node_of "CL.0" ] (parents "BL2");
  Alcotest.(check (list int)) "BL4 <- BL1" [ node_of "CL.0" ] (parents "CL.6");
  Alcotest.(check (list int)) "BL6 <- BL1" [ node_of "CL.0" ] (parents "CL.4");
  Alcotest.(check (list int)) "BL8 <- BL1" [ node_of "CL.0" ] (parents "CL.11");
  Alcotest.(check (list int)) "BL3 <- BL2" [ node_of "BL2" ] (parents "BL3");
  Alcotest.(check (list int)) "BL5 <- BL4" [ node_of "CL.6" ] (parents "BL5");
  (* Identically-dependent labels coincide with Definition 3. *)
  Alcotest.(check bool) "BL2 ~id~ BL4" true
    (Cdg.identically_dependent cdg (node_of "BL2") (node_of "CL.6"));
  Alcotest.(check bool) "BL2 !~id~ BL6" false
    (Cdg.identically_dependent cdg (node_of "BL2") (node_of "CL.4"))

(* Definition 7: moving from BL8 to BL1 gambles on one branch, from BL5
   to BL1 on two. *)
let test_minmax_speculation_degree () =
  let _, view, node_of = minmax_view () in
  let cdg =
    Cdg.compute ~edge_label:view.Regions.edge_label view.Regions.flow
  in
  let deg a b = Cdg.speculation_degree cdg ~src:(node_of a) ~dst:(node_of b) in
  Alcotest.(check (option int)) "BL1->BL8" (Some 1) (deg "CL.0" "CL.11");
  Alcotest.(check (option int)) "BL1->BL5" (Some 2) (deg "CL.0" "BL5");
  Alcotest.(check (option int)) "BL1->BL1" (Some 0) (deg "CL.0" "CL.0");
  Alcotest.(check (option int)) "BL2->BL6" None (deg "BL2" "CL.4");
  let succs = Cdg.immediate_successors cdg (node_of "CL.0") in
  Alcotest.(check int) "BL1 controls four blocks" 4 (List.length succs)

(* Regression: a loop body must not postdominate (nor be equivalent to)
   a header whose exit edge leaves the region view — dropping the exit
   edge used to make them look equivalent, letting loop-variant code
   hoist above the exit test. *)
let test_loop_exit_not_equivalent () =
  let g = Reg.Gen.create () in
  let acc = Reg.Gen.fresh g Reg.Gpr in
  let i = Reg.Gen.fresh g Reg.Gpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  let cfg =
    B.func ~reg_gen:g
      [
        ("PRE", [ B.li ~dst:i 0 ], B.jmp "H");
        ("H", [ B.cmpi ~dst:c ~lhs:i 7 ],
         B.bt ~cr:c ~cond:Instr.Lt ~taken:"BODY" ~fallthru:"POST");
        ("BODY",
         [ B.add ~dst:acc ~lhs:acc ~rhs:i; B.addi ~dst:i ~lhs:i 1 ],
         B.jmp "H");
        ("POST", [ B.call "print_int" [ acc ] ], Instr.Halt);
      ]
  in
  let regions = Regions.compute cfg in
  let region =
    List.find (fun r -> r.Regions.loop <> None) (Regions.regions regions)
  in
  let view = Regions.view cfg regions region in
  let node l =
    Option.get (view.Regions.block_node (Cfg.block_of_label cfg l).Block.id)
  in
  let dom = Dominance.compute view.Regions.flow in
  let post = Dominance.Post.compute view.Regions.flow in
  Alcotest.(check bool) "header is an exit of the view" true
    (List.mem (node "H") (Flow.exit_nodes view.Regions.flow));
  Alcotest.(check bool) "BODY does not postdominate H" false
    (Dominance.Post.postdominates post (node "BODY") (node "H"));
  Alcotest.(check bool) "H not equivalent to BODY" false
    (Dominance.equivalent dom post (node "H") (node "BODY"));
  (* And the CDG records BODY as control dependent on H. *)
  let cdg = Cdg.compute ~edge_label:view.Regions.edge_label view.Regions.flow in
  Alcotest.(check (list int)) "BODY <- H" [ node "H" ]
    (List.map fst (Cdg.parents cdg (node "BODY")))

(* ---- liveness ---- *)

let live_in = Test_support.live_set Liveness.iter_live_in
let live_out = Test_support.live_set Liveness.iter_live_out

let test_liveness_diamond () =
  let g = Reg.Gen.create () in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let y = Reg.Gen.fresh g Reg.Gpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  let cfg =
    B.func ~reg_gen:g
      [
        ("A", [ B.cmpi ~dst:c ~lhs:y 0 ],
         B.bt ~cr:c ~cond:Instr.Eq ~taken:"B" ~fallthru:"C");
        ("B", [ B.li ~dst:x 1 ], B.jmp "D");
        ("C", [ B.li ~dst:x 2 ], B.jmp "D");
        ("D", [ B.call "print_int" [ x ] ], Instr.Halt);
      ]
  in
  let live = Liveness.compute cfg in
  let blk l = (Cfg.block_of_label cfg l).Block.id in
  (* x defined on both paths before D: not live out of A. *)
  Alcotest.(check bool) "x not live out of A" false
    (Reg.Set.mem x (live_out live (blk "A")));
  Alcotest.(check bool) "x live out of B" true
    (Reg.Set.mem x (live_out live (blk "B")));
  Alcotest.(check bool) "x live into D" true
    (Reg.Set.mem x (live_in live (blk "D")));
  Alcotest.(check bool) "y live into A" true
    (Reg.Set.mem y (live_in live (blk "A")));
  (* After removing B's definition, x becomes live out of A. *)
  ignore (Block.remove_by_uid (Cfg.block_of_label cfg "B")
            ~uid:(Instr.uid (Gis_util.Vec.get (Cfg.block_of_label cfg "B").Block.body 0)));
  let live = Liveness.compute cfg in
  Alcotest.(check bool) "x now live out of A" true
    (Reg.Set.mem x (live_out live (blk "A")))

let test_liveness_loop_carried () =
  let g = Reg.Gen.create () in
  let acc = Reg.Gen.fresh g Reg.Gpr in
  let i = Reg.Gen.fresh g Reg.Gpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  let cfg =
    B.func ~reg_gen:g
      [
        ("H", [ B.cmpi ~dst:c ~lhs:i 10 ],
         B.bt ~cr:c ~cond:Instr.Lt ~taken:"BODY" ~fallthru:"X");
        ("BODY",
         [ B.add ~dst:acc ~lhs:acc ~rhs:i; B.addi ~dst:i ~lhs:i 1 ],
         B.jmp "H");
        ("X", [ B.call "print_int" [ acc ] ], Instr.Halt);
      ]
  in
  let live = Liveness.compute cfg in
  let blk l = (Cfg.block_of_label cfg l).Block.id in
  Alcotest.(check bool) "acc live around the loop" true
    (Reg.Set.mem acc (live_out live (blk "BODY")));
  Alcotest.(check bool) "i live into H" true
    (Reg.Set.mem i (live_in live (blk "H")));
  Alcotest.(check bool) "live before terminator includes branch source" true
    (Liveness.mem_before_terminator live cfg (blk "H") c)

(* ---- reaching definitions ---- *)

let test_reaching_sole_def () =
  let g = Reg.Gen.create () in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let y = Reg.Gen.fresh g Reg.Gpr in
  let cfg =
    B.func ~reg_gen:g
      [
        ("A", [ B.li ~dst:x 1; B.mr ~dst:y ~src:x ], B.jmp "B");
        ("B", [ B.call "print_int" [ y ] ], Instr.Halt);
      ]
  in
  let reach = Reaching.compute cfg in
  let a = Cfg.block_of_label cfg "A" in
  let def_x = Instr.uid (Gis_util.Vec.get a.Block.body 0) in
  let use_x = Instr.uid (Gis_util.Vec.get a.Block.body 1) in
  (match Reaching.defs_of_use reach ~uid:use_x ~reg:x with
  | [ Reaching.Def d ] -> Alcotest.(check int) "ud chain" def_x d
  | other ->
      Alcotest.failf "unexpected: %a" Fmt.(list Reaching.pp_site) other);
  (match Reaching.sole_def_of_all_uses reach ~uid:def_x ~reg:x with
  | Some uses -> Alcotest.(check (list int)) "du chain" [ use_x ] uses
  | None -> Alcotest.fail "expected sole def")

(* The Section 5.3 shape: a use reached by two definitions is not
   renameable through either. *)
let test_reaching_merge () =
  let s = Gis_workloads.Section53.build () in
  let cfg = s.Gis_workloads.Section53.cfg in
  let reach = Reaching.compute cfg in
  let x =
    match
      Instr.defs
        (Gis_util.Vec.get (Cfg.block_of_label cfg "B2").Block.body 0)
    with
    | [ r ] -> r
    | _ -> Alcotest.fail "x5 should define one register"
  in
  Alcotest.(check bool) "x5 not sole" true
    (Reaching.sole_def_of_all_uses reach ~uid:s.Gis_workloads.Section53.x5_uid ~reg:x
    = None);
  Alcotest.(check bool) "x3 not sole" true
    (Reaching.sole_def_of_all_uses reach ~uid:s.Gis_workloads.Section53.x3_uid ~reg:x
    = None);
  (* The print's use is reached by both definitions. *)
  let print_uid =
    Instr.uid (Gis_util.Vec.get (Cfg.block_of_label cfg "B4").Block.body 0)
  in
  Alcotest.(check int) "two reaching defs" 2
    (List.length (Reaching.defs_of_use reach ~uid:print_uid ~reg:x))

let test_reaching_external () =
  let g = Reg.Gen.create () in
  let n = Reg.Gen.fresh g Reg.Gpr in
  let cfg =
    B.func ~reg_gen:g [ ("A", [ B.call "print_int" [ n ] ], Instr.Halt) ]
  in
  let reach = Reaching.compute cfg in
  let use = Instr.uid (Gis_util.Vec.get (Cfg.block_of_label cfg "A").Block.body 0) in
  match Reaching.defs_of_use reach ~uid:use ~reg:n with
  | [ Reaching.External ] -> ()
  | other -> Alcotest.failf "unexpected: %a" Fmt.(list Reaching.pp_site) other

(* ---- loops and regions ---- *)

let test_minmax_loop_detect () =
  let t = Gis_workloads.Minmax.build () in
  let info = Loops.compute t.Gis_workloads.Minmax.cfg in
  Alcotest.(check bool) "reducible" true (Loops.reducible info);
  Alcotest.(check int) "one loop" 1 (Array.length (Loops.loops info));
  let l = (Loops.loops info).(0) in
  Alcotest.(check int) "ten blocks" 10 (Int_set.cardinal l.Loops.blocks);
  Alcotest.(check string) "header is CL.0" "CL.0"
    (Cfg.block t.Gis_workloads.Minmax.cfg l.Loops.header).Block.label;
  Alcotest.(check int) "depth" 1 l.Loops.depth

let nested_loops_cfg () =
  let g = Reg.Gen.create () in
  let i = Reg.Gen.fresh g Reg.Gpr in
  let j = Reg.Gen.fresh g Reg.Gpr in
  let ci = Reg.Gen.fresh g Reg.Cr in
  let cj = Reg.Gen.fresh g Reg.Cr in
  B.func ~reg_gen:g
    [
      ("PRE", [ B.li ~dst:i 0 ], B.jmp "OH");
      ("OH", [ B.cmpi ~dst:ci ~lhs:i 8 ],
       B.bt ~cr:ci ~cond:Instr.Lt ~taken:"OB" ~fallthru:"EXIT");
      ("OB", [ B.li ~dst:j 0 ], B.jmp "IH");
      ("IH", [ B.cmpi ~dst:cj ~lhs:j 4 ],
       B.bt ~cr:cj ~cond:Instr.Lt ~taken:"IB" ~fallthru:"OL");
      ("IB", [ B.addi ~dst:j ~lhs:j 1 ], B.jmp "IH");
      ("OL", [ B.addi ~dst:i ~lhs:i 1 ], B.jmp "OH");
      ("EXIT", [], Instr.Halt);
    ]

let test_nested_loops () =
  let cfg = nested_loops_cfg () in
  let info = Loops.compute cfg in
  Alcotest.(check int) "two loops" 2 (Array.length (Loops.loops info));
  let inner =
    List.find (fun l -> l.Loops.depth = 2) (Array.to_list (Loops.loops info))
  in
  let outer =
    List.find (fun l -> l.Loops.depth = 1) (Array.to_list (Loops.loops info))
  in
  Alcotest.(check int) "inner size" 2 (Int_set.cardinal inner.Loops.blocks);
  Alcotest.(check bool) "nesting" true (inner.Loops.parent = Some outer.Loops.index);
  Alcotest.(check (list int)) "children" [ inner.Loops.index ] outer.Loops.children;
  let order = Loops.innermost_first info in
  Alcotest.(check int) "innermost first" 2 (List.hd order).Loops.depth

let test_irreducible () =
  (* Two entries into a cycle: A -> B, A -> C, B <-> C. *)
  let g = Reg.Gen.create () in
  let c = Reg.Gen.fresh g Reg.Cr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let cfg =
    B.func ~reg_gen:g
      [
        ("A", [ B.cmpi ~dst:c ~lhs:x 0 ],
         B.bt ~cr:c ~cond:Instr.Eq ~taken:"B" ~fallthru:"C");
        ("B", [], B.jmp "C");
        ("C", [ B.addi ~dst:x ~lhs:x 1 ],
         B.bt ~cr:c ~cond:Instr.Ne ~taken:"B" ~fallthru:"D");
        ("D", [], Instr.Halt);
      ]
  in
  let info = Loops.compute cfg in
  Alcotest.(check bool) "irreducible" false (Loops.reducible info)

let test_regions_structure () =
  let cfg = nested_loops_cfg () in
  let regions = Regions.compute cfg in
  let rs = Regions.regions regions in
  Alcotest.(check int) "three regions" 3 (List.length rs);
  (match rs with
  | first :: _ ->
      Alcotest.(check int) "innermost first" 2 first.Regions.nesting
  | [] -> Alcotest.fail "no regions");
  let top = List.nth rs 2 in
  Alcotest.(check bool) "toplevel last" true (top.Regions.loop = None);
  (* The outer loop region excludes the inner loop's blocks. *)
  let outer = List.nth rs 1 in
  Alcotest.(check int) "outer own blocks" 3
    (Int_set.cardinal outer.Regions.own_blocks)

let test_region_view_collapse () =
  let cfg = nested_loops_cfg () in
  let regions = Regions.compute cfg in
  let outer = List.nth (Regions.regions regions) 1 in
  let view = Regions.view cfg regions outer in
  Alcotest.(check int) "3 blocks + 1 summary" 4 view.Regions.flow.Flow.num_nodes;
  Alcotest.(check bool) "acyclic after masking" true
    (Flow.is_acyclic view.Regions.flow);
  let summaries =
    Array.to_list view.Regions.nodes
    |> List.filter (function Regions.Inner_loop _ -> true | Regions.Block _ -> false)
  in
  Alcotest.(check int) "one summary node" 1 (List.length summaries)

(* ---- symbolic addresses (Symaddr) ---- *)

let body_uid cfg label idx =
  Instr.uid (Gis_util.Vec.get (Cfg.block_of_label cfg label).Block.body idx)

(* Affine chain inside one block: add-immediate shifts the symbolic
   value, a register move copies it, and deltas compose with sign. *)
let test_symaddr_affine_chain () =
  let g = Reg.Gen.create () in
  let base = Reg.Gen.fresh g Reg.Gpr in
  let b2 = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let cfg =
    B.func ~reg_gen:g
      [
        ( "A",
          [
            B.store ~src:x ~base ~offset:0;
            B.addi ~dst:base ~lhs:base 8;
            B.store ~src:x ~base ~offset:0;
            B.mr ~dst:b2 ~src:base;
            B.load ~dst:x ~base:b2 ~offset:4;
          ],
          Instr.Halt );
      ]
  in
  let t = Symaddr.compute cfg in
  let u0 = body_uid cfg "A" 0 in
  let u2 = body_uid cfg "A" 2 in
  let u4 = body_uid cfg "A" 4 in
  Alcotest.(check (option int)) "addi shifts the base" (Some 8)
    (Symaddr.delta t ~a:u0 ~b:u2);
  Alcotest.(check (option int)) "move copies the value" (Some 0)
    (Symaddr.delta t ~a:u2 ~b:u4);
  Alcotest.(check (option int)) "delta is signed" (Some (-8))
    (Symaddr.delta t ~a:u2 ~b:u0)

(* Registers live at entry get their own origin: accesses through an
   unknown-but-unchanged base still compare, and an opaque
   redefinition (a load result) severs the relation. *)
let test_symaddr_entry_and_opaque () =
  let g = Reg.Gen.create () in
  let base = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let cfg =
    B.func ~reg_gen:g
      [
        ( "A",
          [
            B.store ~src:x ~base ~offset:0;
            B.store ~src:x ~base ~offset:8;
            B.load ~dst:base ~base ~offset:0;
            B.store ~src:x ~base ~offset:0;
          ],
          Instr.Halt );
      ]
  in
  let t = Symaddr.compute cfg in
  let u0 = body_uid cfg "A" 0 in
  let u1 = body_uid cfg "A" 1 in
  let u3 = body_uid cfg "A" 3 in
  Alcotest.(check (option int)) "entry origin compares" (Some 0)
    (Symaddr.delta t ~a:u0 ~b:u1);
  Alcotest.(check (option int)) "opaque redefinition severs" None
    (Symaddr.delta t ~a:u0 ~b:u3)

(* The update post-increment: the access itself is recorded at the
   pre-update base value, the increment shows up at the next access. *)
let test_symaddr_update_postincrement () =
  let g = Reg.Gen.create () in
  let base = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let cfg =
    B.func ~reg_gen:g
      [
        ( "A",
          [
            B.load_update ~dst:x ~base ~offset:8;
            B.store ~src:x ~base ~offset:0;
          ],
          Instr.Halt );
      ]
  in
  let t = Symaddr.compute cfg in
  let u0 = body_uid cfg "A" 0 in
  let u1 = body_uid cfg "A" 1 in
  Alcotest.(check (option int)) "post-increment lands after the access"
    (Some 8)
    (Symaddr.delta t ~a:u0 ~b:u1)

(* CFG joins: agreeing paths keep the symbolic value, disagreeing
   paths go to Top and the delta is unprovable. *)
let test_symaddr_join () =
  let diamond shift_t shift_f =
    let g = Reg.Gen.create () in
    let base = Reg.Gen.fresh g Reg.Gpr in
    let x = Reg.Gen.fresh g Reg.Gpr in
    let c = Reg.Gen.fresh g Reg.Cr in
    let cfg =
      B.func ~reg_gen:g
        [
          ( "E",
            [ B.cmpi ~dst:c ~lhs:x 0; B.store ~src:x ~base ~offset:0 ],
            B.bt ~cr:c ~cond:Instr.Gt ~taken:"T" ~fallthru:"F" );
          ("T", [ B.addi ~dst:base ~lhs:base shift_t ], B.jmp "J");
          ("F", [ B.addi ~dst:base ~lhs:base shift_f ], B.jmp "J");
          ("J", [ B.store ~src:x ~base ~offset:0 ], Instr.Halt);
        ]
    in
    let t = Symaddr.compute cfg in
    Symaddr.delta t ~a:(body_uid cfg "E" 1) ~b:(body_uid cfg "J" 0)
  in
  Alcotest.(check (option int)) "agreeing join keeps the value" (Some 8)
    (diamond 8 8);
  Alcotest.(check (option int)) "disagreeing join is Top" None (diamond 8 16)

(* Only the backward slice of the bases is tracked, and it closes over
   move sources and add/sub operands: a base reached through a move of
   a sum of constants is still a known constant, and a definition
   outside the slice (the multiply) changes nothing. *)
let test_symaddr_slice () =
  let g = Reg.Gen.create () in
  let k1024 = Reg.Gen.fresh g Reg.Gpr in
  let k8 = Reg.Gen.fresh g Reg.Gpr in
  let sum = Reg.Gen.fresh g Reg.Gpr in
  let base = Reg.Gen.fresh g Reg.Gpr in
  let other = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let cfg =
    B.func ~reg_gen:g
      [
        ( "A",
          [
            B.li ~dst:k1024 1024;
            B.li ~dst:k8 8;
            B.add ~dst:sum ~lhs:k1024 ~rhs:k8;
            B.mul ~dst:x ~lhs:k8 ~rhs:k8;
            B.mr ~dst:base ~src:sum;
            B.store ~src:x ~base ~offset:0;
            B.li ~dst:other 1040;
            B.store ~src:x ~base:other ~offset:0;
          ],
          Instr.Halt );
      ]
  in
  let t = Symaddr.compute cfg in
  Alcotest.(check bool) "base through move of a sum" true
    (Symaddr.base_value t (body_uid cfg "A" 5) = Symaddr.Const 1032);
  Alcotest.(check (option int)) "constants compare" (Some 8)
    (Symaddr.delta t ~a:(body_uid cfg "A" 5) ~b:(body_uid cfg "A" 7))

(* The fault-injection hook fabricates deltas for unprovable pairs;
   the DDG-subset property and the checker-independence tests rely on
   it actually over-claiming. *)
let test_symaddr_overclaim_hook () =
  let g = Reg.Gen.create () in
  let b1 = Reg.Gen.fresh g Reg.Gpr in
  let b2 = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let cfg =
    B.func ~reg_gen:g
      [
        ( "A",
          [ B.store ~src:x ~base:b1 ~offset:0;
            B.store ~src:x ~base:b2 ~offset:0 ],
          Instr.Halt );
      ]
  in
  let t = Symaddr.compute cfg in
  let u0 = body_uid cfg "A" 0 in
  let u1 = body_uid cfg "A" 1 in
  Alcotest.(check (option int)) "distinct origins unprovable" None
    (Symaddr.delta t ~a:u0 ~b:u1);
  Symaddr.overclaim_for_testing := true;
  Fun.protect
    ~finally:(fun () -> Symaddr.overclaim_for_testing := false)
    (fun () ->
      Alcotest.(check bool) "hook fabricates a delta" true
        (Symaddr.delta t ~a:u0 ~b:u1 <> None))

(* ---- change-driven sweeps against the layout-sweep reference ---- *)

(* [Symaddr] and the [Int_map] reference record the same base value
   for each access in [uids], compared printed (printing is injective
   on values). *)
let check_reference cfg uids =
  let fast = Symaddr.compute cfg and slow = Symaddr_ref.compute cfg in
  List.iter
    (fun uid ->
      Alcotest.(check string) (Printf.sprintf "uid %d = reference" uid)
        (Fmt.str "%a" Symaddr_ref.pp_value (Symaddr_ref.base_value slow uid))
        (Fmt.str "%a" Symaddr.pp_value (Symaddr.base_value fast uid)))
    uids

(* A block that is its own only predecessor besides an earlier block:
   on its first reach the join must read the earlier block's exit
   alone, not its own exit, which does not exist yet. [q] is loop
   invariant; [p] steps around the back edge and joins to [Top]. *)
let test_symaddr_self_loop () =
  let g = Reg.Gen.create () in
  let p = Reg.Gen.fresh g Reg.Gpr in
  let q = Reg.Gen.fresh g Reg.Gpr in
  let i = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  let cfg =
    B.func ~reg_gen:g
      [
        ("A", [ B.li ~dst:i 0 ], B.jmp "L");
        ( "L",
          [
            B.store ~src:x ~base:q ~offset:0;
            B.store ~src:x ~base:p ~offset:0;
            B.addi ~dst:p ~lhs:p 4;
            B.addi ~dst:i ~lhs:i 1;
            B.cmpi ~dst:c ~lhs:i 10;
          ],
          B.bt ~cr:c ~cond:Instr.Lt ~taken:"L" ~fallthru:"X" );
        ("X", [ B.store ~src:x ~base:q ~offset:4 ], Instr.Halt);
      ]
  in
  let t = Symaddr.compute cfg in
  let l0 = body_uid cfg "L" 0 and l1 = body_uid cfg "L" 1 in
  let x0 = body_uid cfg "X" 0 in
  Alcotest.(check (option int)) "invariant base" (Some 0)
    (Symaddr.delta t ~a:l0 ~b:x0);
  Alcotest.(check (option int)) "stepped base is Top" None
    (Symaddr.delta t ~a:l1 ~b:l1);
  check_reference cfg [ l0; l1; x0 ]

(* [B]'s only reached predecessor, [C], comes later in layout, so [B]
   is first reached on the second sweep; its other predecessor [D] is
   never reached and must not take part in the join. *)
let test_symaddr_later_predecessor () =
  let g = Reg.Gen.create () in
  let q = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let cfg =
    B.func ~reg_gen:g
      [
        ("A", [ B.store ~src:x ~base:q ~offset:0 ], B.jmp "C");
        ("B", [ B.store ~src:x ~base:q ~offset:0 ], B.jmp "X");
        ("C", [ B.addi ~dst:q ~lhs:q 8 ], B.jmp "B");
        ("D", [ B.li ~dst:q 64 ], B.jmp "B");
        ("X", [ B.store ~src:x ~base:q ~offset:0 ], Instr.Halt);
      ]
  in
  let t = Symaddr.compute cfg in
  let a0 = body_uid cfg "A" 0 and b0 = body_uid cfg "B" 0 in
  let x0 = body_uid cfg "X" 0 in
  Alcotest.(check (option int)) "reached through the later block" (Some 8)
    (Symaddr.delta t ~a:a0 ~b:b0);
  Alcotest.(check (option int)) "and on to its successor" (Some 8)
    (Symaddr.delta t ~a:a0 ~b:x0);
  check_reference cfg [ a0; b0; x0 ]

(* A block the entry cannot reach is never reached: its access reads
   [Top], and its branch into a reached block does not join into its
   target. *)
let test_symaddr_unreachable_block () =
  let g = Reg.Gen.create () in
  let q = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let cfg =
    B.func ~reg_gen:g
      [
        ("A", [ B.store ~src:x ~base:q ~offset:0 ], B.jmp "X");
        ("D", [ B.li ~dst:q 64; B.store ~src:x ~base:q ~offset:0 ], B.jmp "X");
        ("X", [ B.store ~src:x ~base:q ~offset:4 ], Instr.Halt);
      ]
  in
  let t = Symaddr.compute cfg in
  let a0 = body_uid cfg "A" 0 and d1 = body_uid cfg "D" 1 in
  let x0 = body_uid cfg "X" 0 in
  Alcotest.(check (option int)) "unreachable edge ignored" (Some 0)
    (Symaddr.delta t ~a:a0 ~b:x0);
  Alcotest.(check string) "unreachable access is Top" "top"
    (Fmt.str "%a" Symaddr.pp_value (Symaddr.base_value t d1));
  check_reference cfg [ a0; d1; x0 ]

(* Changes found on a later sweep must travel on: the back edge turns
   [q] and [p] to [Top] at [H]; [p] passes unchanged through [B1],
   which does not define it, to [B1] and [X] alike, and [B2] must be
   re-transferred because it reads [q] before defining [r], so that [r]
   in turn joins to [Top] at [H]. *)
let test_symaddr_late_changes () =
  let g = Reg.Gen.create () in
  let p = Reg.Gen.fresh g Reg.Gpr in
  let q = Reg.Gen.fresh g Reg.Gpr in
  let r = Reg.Gen.fresh g Reg.Gpr in
  let i = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  let cfg =
    B.func ~reg_gen:g
      [
        ("A", [ B.addi ~dst:r ~lhs:q 8; B.store ~src:x ~base:r ~offset:0 ], B.jmp "H");
        ( "H",
          [
            B.store ~src:x ~base:r ~offset:0;
            B.store ~src:x ~base:p ~offset:0;
            B.cmpi ~dst:c ~lhs:i 10;
          ],
          B.bt ~cr:c ~cond:Instr.Lt ~taken:"B1" ~fallthru:"X" );
        ("B1", [ B.store ~src:x ~base:p ~offset:0 ], B.jmp "B2");
        ( "B2",
          [ B.addi ~dst:r ~lhs:q 8; B.addi ~dst:q ~lhs:q 4; B.addi ~dst:p ~lhs:p 4 ],
          B.jmp "H" );
        ( "X",
          [ B.store ~src:x ~base:p ~offset:0; B.store ~src:x ~base:r ~offset:0 ],
          Instr.Halt );
      ]
  in
  let t = Symaddr.compute cfg in
  let a1 = body_uid cfg "A" 1 and h0 = body_uid cfg "H" 0 in
  let h1 = body_uid cfg "H" 1 and b0 = body_uid cfg "B1" 0 in
  let x0 = body_uid cfg "X" 0 and x1 = body_uid cfg "X" 1 in
  List.iter
    (fun (what, a, b) ->
      Alcotest.(check (option int)) what None (Symaddr.delta t ~a ~b))
    [
      ("r joins to Top at the header", a1, h0);
      ("and at the exit", a1, x1);
      ("p reaches the body through the header", h1, b0);
      ("and the exit", h1, x0);
    ];
  check_reference cfg [ a1; h0; h1; b0; x0; x1 ]

(* No load or store, so the slice is empty: the sweeps run over empty
   environments and every uid reads [Top]. *)
let test_symaddr_empty_slice () =
  let g = Reg.Gen.create () in
  let i = Reg.Gen.fresh g Reg.Gpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  let cfg =
    B.func ~reg_gen:g
      [
        ("A", [ B.li ~dst:i 0 ], B.jmp "L");
        ( "L",
          [ B.addi ~dst:i ~lhs:i 1; B.cmpi ~dst:c ~lhs:i 10 ],
          B.bt ~cr:c ~cond:Instr.Lt ~taken:"L" ~fallthru:"X" );
        ("X", [ B.call "print_int" [ i ] ], Instr.Halt);
      ]
  in
  let uids = List.map Instr.uid (Cfg.all_instrs cfg) in
  let t = Symaddr.compute cfg in
  List.iter
    (fun uid ->
      Alcotest.(check string) "no base value" "top"
        (Fmt.str "%a" Symaddr.pp_value (Symaddr.base_value t uid)))
    uids;
  check_reference cfg uids

(* Liveness prunes the environments: [p] is live around the back edge
   of [L] and on to [X], while [q] dies inside [A] after its last use
   and is redefined and dies again inside [L], so neither block carries
   it in or out. [k] is read by an add in [L] before [L] redefines it,
   so it is live in around the back edge and joins to [Top] there,
   though a stale copy would read a constant. The base values are those
   of the sweeps over every position. *)
let test_symaddr_dead_inside_block () =
  let g = Reg.Gen.create () in
  let p = Reg.Gen.fresh g Reg.Gpr in
  let q = Reg.Gen.fresh g Reg.Gpr in
  let r = Reg.Gen.fresh g Reg.Gpr in
  let k = Reg.Gen.fresh g Reg.Gpr in
  let t = Reg.Gen.fresh g Reg.Gpr in
  let i = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  let cfg =
    B.func ~reg_gen:g
      [
        ( "A",
          [
            B.li ~dst:i 0;
            B.li ~dst:k 8;
            B.addi ~dst:q ~lhs:r 8;
            B.store ~src:x ~base:q ~offset:0;
            B.store ~src:x ~base:q ~offset:4;
          ],
          B.jmp "L" );
        ( "L",
          [
            B.store ~src:x ~base:p ~offset:0;
            B.li ~dst:q 128;
            B.store ~src:x ~base:q ~offset:0;
            B.add ~dst:t ~lhs:r ~rhs:k;
            B.store ~src:x ~base:t ~offset:0;
            B.li ~dst:k 16;
            B.addi ~dst:p ~lhs:p 4;
            B.addi ~dst:i ~lhs:i 1;
            B.cmpi ~dst:c ~lhs:i 10;
          ],
          B.bt ~cr:c ~cond:Instr.Lt ~taken:"L" ~fallthru:"X" );
        ("X", [ B.store ~src:x ~base:p ~offset:0 ], Instr.Halt);
      ]
  in
  let t' = Symaddr.compute cfg in
  let a3 = body_uid cfg "A" 3 and a4 = body_uid cfg "A" 4 in
  let l0 = body_uid cfg "L" 0 and l2 = body_uid cfg "L" 2 in
  let l4 = body_uid cfg "L" 4 and x0 = body_uid cfg "X" 0 in
  Alcotest.(check (option int)) "q before it dies in A" (Some 0)
    (Symaddr.delta t' ~a:a3 ~b:a4);
  Alcotest.(check string) "q redefined in L" "const 128"
    (Fmt.str "%a" Symaddr.pp_value (Symaddr.base_value t' l2));
  Alcotest.(check (option int)) "k joins to Top around the back edge" None
    (Symaddr.delta t' ~a:a3 ~b:l4);
  Alcotest.(check (option int)) "p stepped around the back edge" None
    (Symaddr.delta t' ~a:l0 ~b:x0);
  check_reference cfg [ a3; a4; l0; l2; l4; x0 ]

(* ---- reference properties over every pipeline stage ---- *)

let random_cfg params seed = Test_support.pinned_cfg params ~seed

(* Run the speculative pipeline and apply [f] to each stage's input CFG
   through the per-stage verification hook; true when [f] holds at
   every stage. *)
let every_stage_of ?(disambiguate = true) cfg f =
  let ok = ref true in
  let config =
    {
      Gis_core.Config.speculative with
      Gis_core.Config.disambiguate;
      check =
        Some (fun ~stage ~pre ~post:_ -> if not (f ~stage pre) then ok := false);
    }
  in
  ignore (Gis_core.Pipeline.run Gis_machine.Machine.rs6k config cfg);
  !ok

let every_stage_input ?disambiguate params seed f =
  every_stage_of ?disambiguate (random_cfg params seed) f

(* The speculative pipeline with every DDG build asking each of its
   cross-block base queries of the pass's shared [Reaching.Query] and
   of a fresh one: true when they always agree. *)
let shared_query_stays_fresh params seed =
  let cfg = random_cfg params seed in
  Gis_ddg.Ddg.cross_check_reach_for_testing := true;
  Fun.protect
    ~finally:(fun () -> Gis_ddg.Ddg.cross_check_reach_for_testing := false)
    (fun () ->
      match every_stage_of cfg (fun ~stage:_ _ -> true) with
      | ok -> ok
      | exception Failure m -> QCheck.Test.fail_reportf "seed %d: %s" seed m)

(* Loops that carry affine bases around their back edge, which neither
   Tiny-C grammar produces (every compiled address is an opaque base
   plus a shifted index, formed right before its access). Each pointer
   is stepped by an immediate add or an update-form access in the
   latch or on one arm of a diamond, or not at all; the header derives
   further bases from the pointers; and every block after the header
   accesses memory through both kinds. So a change found at the back
   edge has to be re-joined at the header, re-transferred into what the
   header derives, copied through blocks that do not define it, and
   pushed to each successor. The exit sits right after the header or
   last in layout. *)
let pointer_loop_cfg seed =
  let module Prng = Gis_workloads.Prng in
  let rng = Prng.create ~seed in
  let g = Reg.Gen.create () in
  let gpr () = Reg.Gen.fresh g Reg.Gpr in
  let ptrs = List.init (1 + Prng.int rng 3) (fun _ -> gpr ()) in
  let derived = List.init (Prng.int rng 3) (fun _ -> gpr ()) in
  let i = gpr () and x = gpr () in
  let c = Reg.Gen.fresh g Reg.Cr and c2 = Reg.Gen.fresh g Reg.Cr in
  let offset () = 4 * (Prng.int rng 5 - 2) in
  let accesses bases =
    List.init (Prng.int rng 3) (fun _ ->
        let base = Prng.pick rng bases in
        if Prng.bool rng then B.load ~dst:x ~base ~offset:(offset ())
        else B.store ~src:x ~base ~offset:(offset ()))
  in
  let steps () =
    List.concat_map
      (fun p ->
        match Prng.int rng 4 with
        | 0 -> [ B.addi ~dst:p ~lhs:p (4 * (1 + Prng.int rng 3)) ]
        | 1 -> [ B.load_update ~dst:x ~base:p ~offset:(offset ()) ]
        | 2 -> [ B.store_update ~src:x ~base:p ~offset:(offset ()) ]
        | _ -> [])
      ptrs
  in
  let derive d =
    let p = Prng.pick rng ptrs in
    if Prng.bool rng then B.mr ~dst:d ~src:p else B.addi ~dst:d ~lhs:p (offset ())
  in
  let all = ptrs @ derived in
  let header =
    ( "H",
      List.map derive derived @ accesses ptrs @ [ B.cmpi ~dst:c ~lhs:i 10 ],
      B.bt ~cr:c ~cond:Instr.Lt ~taken:"T" ~fallthru:"X" )
  in
  let exit = ("X", accesses all @ accesses ptrs, Instr.Halt) in
  let body =
    [
      ( "T",
        accesses all @ [ B.cmpi ~dst:c2 ~lhs:x 0 ],
        B.bt ~cr:c2 ~cond:Instr.Gt ~taken:"A" ~fallthru:"B" );
      ("A", accesses all @ steps (), B.jmp "L");
      ("B", accesses all @ steps (), B.jmp "L");
      ("L", accesses all @ steps () @ [ B.addi ~dst:i ~lhs:i 1 ], B.jmp "H");
    ]
  in
  let cfg =
    B.func ~reg_gen:g
      ((("E", [ B.li ~dst:i 0 ], B.jmp "H") :: header
       :: (if Prng.bool rng then exit :: body else body @ [ exit ])))
  in
  Validate.check_exn cfg;
  cfg

let instrs cfg =
  List.concat_map (fun id -> Block.instrs (Cfg.block cfg id)) (Cfg.layout cfg)

(* The bitset [Reaching] gives the same chains as the balanced-tree
   reference, list for list, element order included. *)
let reaching_matches_reference ~stage cfg =
  let fast = Reaching.compute cfg and slow = Reaching_ref.compute cfg in
  let same what uid reg a b =
    a = b
    || QCheck.Test.fail_reportf "%s: %s of %a at uid %d differs" stage what
         Reg.pp reg uid
  in
  List.for_all
    (fun i ->
      let uid = Instr.uid i in
      List.for_all
        (fun reg ->
          same "defs_of_use" uid reg
            (Reaching.defs_of_use fast ~uid ~reg)
            (Reaching_ref.defs_of_use slow ~uid ~reg))
        (Instr.uses i)
      && List.for_all
           (fun reg ->
             same "uses_of_def" uid reg
               (Reaching.uses_of_def fast ~uid ~reg)
               (Reaching_ref.uses_of_def slow ~uid ~reg))
           (Instr.defs i))
    (instrs cfg)

(* The five paper workloads as compiled, minmax as the paper's own
   listing with its update-form loads, each of which defines two
   registers. *)
let paper_cfgs () =
  ("minmax", (Gis_workloads.Minmax.build ()).Gis_workloads.Minmax.cfg)
  :: List.map
       (fun (w : Gis_workloads.Spec_proxy.t) ->
         Label.reset_fresh_counter ();
         ( w.Gis_workloads.Spec_proxy.name,
           (Gis_frontend.Codegen.compile_string w.Gis_workloads.Spec_proxy.source)
             .Gis_frontend.Codegen.cfg ))
       Gis_workloads.Spec_proxy.all

let defines_two cfg =
  List.exists (fun i -> List.length (Instr.defs i) = 2) (instrs cfg)

(* [Reaching] = [Reaching_ref] at every stage input of the paper
   workloads, and some stage input has an instruction defining two
   registers, so the property covers a site range holding two
   definitions by one instruction. *)
let test_reaching_paper_workloads () =
  let two = ref false in
  List.iter
    (fun (name, cfg) ->
      Alcotest.(check bool) name true
        (every_stage_of cfg (fun ~stage cfg ->
             if defines_two cfg then two := true;
             reaching_matches_reference ~stage cfg)))
    (paper_cfgs ());
  Alcotest.(check bool) "a stage input defines two registers at once" true !two

let access_uids cfg =
  List.filter_map
    (fun i ->
      match Instr.kind i with
      | Instr.Load _ | Instr.Store _ -> Some (Instr.uid i)
      | _ -> None)
    (instrs cfg)

(* [Symaddr] records the same base value as the layout-sweep reference
   at every load and store. *)
let symaddr_matches_reference ~stage cfg =
  let fast = Symaddr.compute cfg and slow = Symaddr_ref.compute cfg in
  List.for_all
    (fun uid ->
      let a = Fmt.str "%a" Symaddr.pp_value (Symaddr.base_value fast uid)
      and b = Fmt.str "%a" Symaddr_ref.pp_value (Symaddr_ref.base_value slow uid) in
      a = b
      || QCheck.Test.fail_reportf "%s: base value at uid %d is %s, reference %s"
           stage uid a b)
    (access_uids cfg)

(* [Symaddr] = [Symaddr_ref] at every stage input of the paper
   workloads, whose slices are wide and mostly dead at block
   boundaries: each base is formed right before its access. *)
let test_symaddr_paper_workloads () =
  List.iter
    (fun (name, cfg) ->
      Alcotest.(check bool) name true
        (every_stage_of cfg symaddr_matches_reference))
    (paper_cfgs ())

(* [Symaddr] and the checker's independent [Addrcheck] prove the same
   delta for every ordered pair of memory accesses. *)
let symaddr_matches_addrcheck ~stage cfg =
  let s = Symaddr.compute cfg and c = Gis_check.Addrcheck.compute cfg in
  let accesses = access_uids cfg in
  List.for_all
    (fun a ->
      List.for_all
        (fun b ->
          Symaddr.delta s ~a ~b = Gis_check.Addrcheck.delta c ~a ~b
          || QCheck.Test.fail_reportf "%s: delta %d -> %d differs" stage a b)
        accesses)
    accesses

(* The indexed [Deps.reconstruct] returns the pairwise reference's list,
   element for element: the same dependence multiset, multiplicity
   included, in the same order. *)
let deps_match_reference ~disambig ~stage cfg =
  let fast = Gis_check.Deps.reconstruct (Gis_check.Deps.of_cfg ~disambig cfg)
  and slow = Deps_ref.reconstruct ~disambig cfg in
  let sorted = List.sort compare in
  if sorted fast <> sorted slow then
    QCheck.Test.fail_reportf "%s: dependence multiset differs (%d vs %d)" stage
      (List.length fast) (List.length slow)
  else
    fast = slow
    || QCheck.Test.fail_reportf "%s: dependence order differs" stage

(* Ordered access pairs on which the slice-only [Addrcheck] and the
   every-register reference prove different deltas. *)
let addrcheck_disagreements cfg =
  let fast = Gis_check.Addrcheck.compute cfg
  and slow = Addrcheck_ref.compute cfg in
  let accesses = access_uids cfg in
  List.concat_map
    (fun a ->
      List.filter_map
        (fun b ->
          if
            Gis_check.Addrcheck.delta fast ~a ~b
            = Addrcheck_ref.delta slow ~a ~b
          then None
          else Some (a, b))
        accesses)
    accesses

let addrcheck_matches_reference ~stage cfg =
  match addrcheck_disagreements cfg with
  | [] -> true
  | (a, b) :: _ ->
      QCheck.Test.fail_reportf "%s: delta %d -> %d differs" stage a b

(* The slice closes over [Move] sources and [Add] register operands:
   the [b1]/[b2] deltas need the moved entry value of [p] (a slice
   without it sees two opaque copies), and the [b1]/[b3] delta needs
   the constant in [k] (a slice without it sees [b1 + Any]). *)
let test_addrcheck_slice () =
  let g = Reg.Gen.create () in
  let p = Reg.Gen.fresh g Reg.Gpr in
  let k = Reg.Gen.fresh g Reg.Gpr in
  let b1 = Reg.Gen.fresh g Reg.Gpr in
  let b2 = Reg.Gen.fresh g Reg.Gpr in
  let b3 = Reg.Gen.fresh g Reg.Gpr in
  let b4 = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let cfg =
    B.func ~reg_gen:g
      [
        ( "A",
          [
            B.li ~dst:x 7;
            B.li ~dst:k 8;
            B.mr ~dst:b1 ~src:p;
            B.mr ~dst:b2 ~src:p;
            B.add ~dst:b3 ~lhs:b1 ~rhs:k;
            B.addi ~dst:b4 ~lhs:b2 8;
            B.store ~src:x ~base:b1 ~offset:0;
            B.store ~src:x ~base:b2 ~offset:4;
            B.store ~src:x ~base:b3 ~offset:0;
            B.store ~src:x ~base:b4 ~offset:4;
          ],
          Instr.Halt );
      ]
  in
  Alcotest.(check (list (pair int int))) "the slice agrees" []
    (addrcheck_disagreements cfg);
  let t = Gis_check.Addrcheck.compute cfg in
  let st n = body_uid cfg "A" (6 + n) in
  Alcotest.(check (option int)) "moves of one source" (Some 0)
    (Gis_check.Addrcheck.delta t ~a:(st 0) ~b:(st 1));
  Alcotest.(check (option int)) "add of a register constant" (Some 8)
    (Gis_check.Addrcheck.delta t ~a:(st 0) ~b:(st 2));
  Alcotest.(check (option int)) "add of an immediate" (Some 8)
    (Gis_check.Addrcheck.delta t ~a:(st 1) ~b:(st 3))

(* ---- incremental liveness against the whole-procedure reference ---- *)

(* The first block whose live-in or live-out set in [live] differs
   from a fresh reference compute on [cfg], or whose state before the
   terminator does: every register the reference has live there must be
   a member, and each class must count as many. *)
let liveness_mismatch cfg live =
  let fresh = Liveness_ref.compute cfg in
  let before_terminator_agrees id =
    let expected = Liveness_ref.live_before_terminator fresh cfg id in
    Reg.Set.for_all (Liveness.mem_before_terminator live cfg id) expected
    && List.for_all
         (fun cls ->
           Liveness.count_before_terminator live cfg id cls
           = Reg.Set.cardinal
               (Reg.Set.filter (fun r -> r.Reg.cls = cls) expected))
         [ Reg.Gpr; Reg.Cr; Reg.Fpr ]
  in
  List.find_opt
    (fun id ->
      not
        (Reg.Set.equal (live_in live id) (Liveness_ref.live_in fresh id)
        && Reg.Set.equal (live_out live id) (Liveness_ref.live_out fresh id)
        && before_terminator_agrees id))
    (List.init (Cfg.num_blocks cfg) Fun.id)

(* One random edit of a kind the global scheduler makes — move a body
   instruction between layout blocks, rename a definition together with
   the uses it reaches, or push a copy of an instruction into a block —
   returning the blocks it rewrote. *)
let random_edit rng cfg =
  let module Vec = Gis_util.Vec in
  let module Prng = Gis_workloads.Prng in
  let layout = Cfg.layout cfg in
  let nonempty =
    List.filter
      (fun b -> not (Vec.is_empty (Cfg.block cfg b).Block.body))
      layout
  in
  let pick_body () =
    let b = Prng.pick rng nonempty in
    let body = (Cfg.block cfg b).Block.body in
    (b, body, Prng.int rng (Vec.length body))
  in
  if nonempty = [] then []
  else
    match Prng.int rng 3 with
    | 0 ->
        let src, body, k = pick_body () in
        let i = Vec.remove body k in
        let dst = Prng.pick rng layout in
        let dbody = (Cfg.block cfg dst).Block.body in
        Vec.insert dbody (Prng.int rng (Vec.length dbody + 1)) i;
        [ src; dst ]
    | 1 -> (
        let src, body, k = pick_body () in
        let i = Vec.get body k in
        match Instr.defs i with
        | [] -> []
        | r :: _ -> (
            let uses =
              Reaching.uses_of_def (Reaching.compute cfg) ~uid:(Instr.uid i)
                ~reg:r
            in
            let r' = Cfg.fresh_reg cfg r.Reg.cls in
            match Instr.rename_def i ~from_reg:r ~to_reg:r' with
            | exception Invalid_argument _ -> []
            | i' ->
                Vec.set body k i';
                List.iter
                  (fun u ->
                    ignore
                      (Cfg.update_instr cfg ~uid:u
                         ~f:(Instr.rename_uses ~from_reg:r ~to_reg:r')))
                  uses;
                src :: List.filter_map (Test_support.owner_of_uid cfg) uses))
    | _ ->
        let _, body, k = pick_body () in
        let copy = Cfg.copy_instr cfg (Vec.get body k) in
        let dst = Prng.pick rng layout in
        Vec.push (Cfg.block cfg dst).Block.body copy;
        [ dst ]

(* Apply twelve bursts of one to three edits, each followed by one
   [Liveness.update] over the blocks the burst touched — less the first
   of them when [omit] is set. [Ok ()] when every update matched a
   fresh compute. *)
let liveness_edit_run ?(omit = false) ~seed cfg =
  let module Prng = Gis_workloads.Prng in
  let rng = Prng.create ~seed in
  let live = Liveness.compute cfg in
  let rec go round =
    if round > 12 then Ok ()
    else
      let touched =
        List.concat (List.init (1 + Prng.int rng 3) (fun _ -> random_edit rng cfg))
      in
      let blocks =
        match touched with _ :: rest when omit -> rest | _ -> touched
      in
      Liveness.update live cfg ~blocks;
      match liveness_mismatch cfg live with
      | Some id -> Error (round, id)
      | None -> go (round + 1)
  in
  match liveness_mismatch cfg live with
  | Some id -> Error (0, id)
  | None -> go 1

let liveness_update_run ?omit params seed =
  liveness_edit_run ?omit ~seed (random_cfg params seed)

let liveness_update_matches_reference params seed =
  match liveness_update_run params seed with
  | Ok () -> true
  | Error (round, id) ->
      QCheck.Test.fail_reportf "seed %d: block %d differs after edit burst %d"
        seed id round

(* The same edit bursts on a copy of a stage input: [None] when every
   update matched a fresh compute. *)
let liveness_stage_mismatch ~seed ~stage pre =
  match liveness_edit_run ~seed (Cfg.deep_copy pre) with
  | Ok () -> None
  | Error (round, id) ->
      Some
        (Fmt.str "seed %d, %s: block %d differs after edit burst %d" seed stage
           id round)

(* Every stage input of the paper workloads, some of which hold
   minmax's update-form loads, each defining two registers. *)
let test_liveness_paper_workloads () =
  let two = ref false in
  List.iteri
    (fun k (name, cfg) ->
      Alcotest.(check bool) name true
        (every_stage_of cfg (fun ~stage pre ->
             if defines_two pre then two := true;
             match liveness_stage_mismatch ~seed:(k + 1) ~stage pre with
             | None -> true
             | Some m -> Alcotest.fail m)))
    (paper_cfgs ());
  Alcotest.(check bool) "a stage input defines two registers at once" true !two

(* The property has teeth: leaving a touched block out of the update
   leaves stale sets that a fresh compute exposes. *)
let test_liveness_update_omission_caught () =
  let caught =
    List.exists
      (fun seed ->
        Result.is_error
          (liveness_update_run ~omit:true Gis_workloads.Random_prog.hardened
             seed))
      (List.init 10 (fun k -> k + 1))
  in
  Alcotest.(check bool) "an omitted block is caught" true caught

(* Words allocated by [f], counted with [Gc.minor_words] and
   [Gc.counters], which see every minor allocation and every block
   allocated directly on the major heap. *)
let words f =
  let total () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = total () in
  f ();
  total () -. before

(* An update in a block outside a register's live range re-solves the
   register in that block alone. [y] is live through a chain of [n]
   blocks; a dead definition of [y] added after its last use costs the
   same words whatever [n] is, where clearing [y] from every block and
   re-propagating it would pay per block, and every block's sets still
   match a fresh compute. *)
let test_liveness_update_outside_range () =
  let cost n =
    let g = Reg.Gen.create () in
    let y = Reg.Gen.fresh g Reg.Gpr and z = Reg.Gen.fresh g Reg.Gpr in
    let label k = Fmt.str "B%d" k in
    let cfg =
      B.func ~reg_gen:g
        ((("E", [ B.li ~dst:y 0 ], B.jmp (label 0))
         :: List.init n (fun k ->
                (label k, [ B.addi ~dst:y ~lhs:y 1 ], B.jmp (label (k + 1)))))
        @ [
            (label n, [ B.call "print_int" [ y ] ], B.jmp "D");
            ("D", [ B.li ~dst:z 1 ], Instr.Halt);
          ])
    in
    let live = Liveness.compute cfg in
    let d = Cfg.block_of_label cfg "D" in
    Gis_util.Vec.push d.Block.body (Cfg.make_instr cfg (B.li ~dst:y 7));
    let w = words (fun () -> Liveness.update live cfg ~blocks:[ d.Block.id ]) in
    Alcotest.(check (option int)) "sets match a fresh compute" None
      (liveness_mismatch cfg live);
    w
  in
  let short = cost 10 in
  Alcotest.(check (float 0.)) "words independent of the live range" short
    (cost 1000)

(* Liveness and the symbolic address analysis number registers densely:
   a program naming [r1000000] allocates exactly as many words as the
   same program naming [r1], where an array sized by the register's id
   would cost a million words. *)
let test_sparse_register_ids () =
  let program id =
    let g = Reg.Gen.create () in
    let p = Reg.Gen.reserve g Reg.Gpr id in
    let x = Reg.Gen.fresh g Reg.Gpr and c = Reg.Gen.fresh g Reg.Cr in
    B.func ~reg_gen:g
      [
        ( "E",
          [ B.li ~dst:p 64; B.load ~dst:x ~base:p ~offset:0; B.cmpi ~dst:c ~lhs:x 3 ],
          B.bt ~cr:c ~cond:Instr.Gt ~taken:"T" ~fallthru:"F" );
        ("T", [ B.addi ~dst:p ~lhs:p 4 ], B.jmp "X");
        ("F", [ B.store ~src:x ~base:p ~offset:4 ], B.jmp "X");
        ("X", [ B.load ~dst:x ~base:p ~offset:0; B.call "print_int" [ x ] ], Instr.Halt);
      ]
  in
  let cost id =
    let cfg = program id in
    ( words (fun () -> ignore (Symaddr.compute cfg)),
      words (fun () -> ignore (Liveness.compute cfg)) )
  in
  let near_sym, near_live = cost 1 in
  let far_sym, far_live = cost 1_000_000 in
  Alcotest.(check (float 0.)) "Symaddr.compute words" near_sym far_sym;
  Alcotest.(check (float 0.)) "Liveness.compute words" near_live far_live

(* The CI many-loop program as compiled: [k] copies of a loop with an
   if/else on [a[i]] and a store to [a[i + 3]]. *)
let many_loop_cfg k =
  let body =
    "i = 0;\nwhile (i < n) {\n  if (a[i] > s) {\n    s = s + a[i];\n  } else \
     {\n    s = s - a[i];\n  }\n  a[i + 3] = s;\n  i = i + 1;\n}\n"
  in
  Label.reset_fresh_counter ();
  (Gis_frontend.Codegen.compile_string
     ("int a[64];\nint n;\nint i;\nint s;\ns = 0;\n"
     ^ String.concat "" (List.init k (fun _ -> body))
     ^ "print(s);"))
    .Gis_frontend.Codegen.cfg

(* [Symaddr.compute] allocates in proportion to the program: four times
   the loops cost at most five times the words, where environments
   sized blocks × slice cost about fourteen times. *)
let test_symaddr_linear_words () =
  let cost k =
    let cfg = many_loop_cfg k in
    words (fun () -> ignore (Symaddr.compute cfg))
  in
  let small = cost 50 and large = cost 200 in
  if large > 5. *. small then
    Alcotest.failf "200 loops cost %.0f words, %.1fx the %.0f of 50 loops"
      large (large /. small) small

(* ---- demand-driven reaching queries against the full compute ---- *)

(* Every use's and every definition's query answer, in every block,
   equals the full compute's as a set. *)
let query_matches_compute ~stage cfg =
  let full = Reaching.compute cfg and q = Reaching.Query.create cfg in
  let sorted l = List.sort compare l in
  let same what uid reg a b =
    a = b
    || QCheck.Test.fail_reportf "%s: %s of %a at uid %d differs" stage what
         Reg.pp reg uid
  in
  List.for_all
    (fun block ->
      List.for_all
        (fun i ->
          let uid = Instr.uid i in
          List.for_all
            (fun reg ->
              same "defs_of_use" uid reg
                (sorted (Reaching.Query.defs_of_use q ~block ~uid ~reg))
                (sorted (Reaching.defs_of_use full ~uid ~reg)))
            (Instr.uses i)
          && List.for_all
               (fun reg ->
                 same "uses_of_def" uid reg
                   (sorted (Reaching.Query.uses_of_def q ~block ~uid ~reg))
                   (sorted (Reaching.uses_of_def full ~uid ~reg))
                 && same "sole_def_of_all_uses" uid reg
                      (Option.map
                         (fun l -> sorted (List.map fst l))
                         (Reaching.Query.sole_def_of_all_uses q ~block ~uid
                            ~reg))
                      (Option.map sorted
                         (Reaching.sole_def_of_all_uses full ~uid ~reg)))
               (Instr.defs i))
        (Block.instrs (Cfg.block cfg block)))
    (List.init (Cfg.num_blocks cfg) Fun.id)

(* The entry block heads a loop: its use of [x] is reached both from
   before the procedure and around the back edge. *)
let test_query_entry_on_loop () =
  let g = Reg.Gen.create () in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let y = Reg.Gen.fresh g Reg.Gpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  let cfg =
    B.func ~reg_gen:g
      [
        ( "H",
          [ B.mr ~dst:y ~src:x; B.cmpi ~dst:c ~lhs:y 10 ],
          B.bt ~cr:c ~cond:Instr.Lt ~taken:"BODY" ~fallthru:"X" );
        ("BODY", [ B.addi ~dst:x ~lhs:y 1 ], B.jmp "H");
        ("X", [ B.call "print_int" [ x ] ], Instr.Halt);
      ]
  in
  let q = Reaching.Query.create cfg in
  let blk l = (Cfg.block_of_label cfg l).Block.id in
  let sites =
    List.sort compare
      (Reaching.Query.defs_of_use q ~block:(blk "H") ~uid:(body_uid cfg "H" 0)
         ~reg:x)
  in
  Alcotest.(check bool) "external and the back edge's definition" true
    (sites = List.sort compare [ Reaching.External; Reaching.Def (body_uid cfg "BODY" 0) ]);
  Alcotest.(check bool) "agrees with the full compute" true
    (query_matches_compute ~stage:"entry on a loop" cfg)

(* [Ddg] = [Ddg_ref] on one CFG: every region graph, before and after
   transitive pruning, and every single-block graph, with and without
   the symbolic address analysis — the same nodes, the same edges as
   (src, dst, kind, reg, delay) sets, and the same disambiguation
   counts. *)
let ddg_matches_on ~stage ?(single_blocks = true) cfg regions only =
  let machine = Gis_machine.Machine.rs6k in
  let ours g =
    let l = ref [] in
    Ddg.iter_edges
      (fun e -> l := (e.Ddg.src, e.Ddg.dst, e.Ddg.kind, e.Ddg.reg, e.Ddg.delay) :: !l)
      g;
    List.sort compare !l
  in
  let counts g =
    let t = Ddg.new_tally () in
    Ddg.add_tally t g;
    Ddg.tally_counts t
  in
  let same what g r =
    let fail m = QCheck.Test.fail_reportf "%s: %s graph: %s differ" stage what m in
    (Array.init (Ddg.num_nodes g) (fun i -> (Ddg.node g i).Ddg.uid) = Ddg_ref.uids r
    || fail "nodes")
    && (ours g = Ddg_ref.edges r || fail "edges")
    && (counts g = Ddg_ref.counts r || fail "counts")
  in
  List.for_all
    (fun sym ->
      List.for_all
        (fun region ->
          match Regions.view cfg regions region with
          | exception Invalid_argument _ -> true
          | view ->
              let g = Ddg.build ?sym cfg machine regions view
              and r = Ddg_ref.build ?sym cfg machine regions view in
              same "region" g r
              && same "pruned region" (Ddg.prune_transitive g)
                   (Ddg_ref.prune_transitive r))
        only
      && ((not single_blocks)
         || List.for_all
           (fun id ->
             let b = Cfg.block cfg id in
             same "single-block"
               (Ddg.build_single_block ?sym machine b)
               (Ddg_ref.build_single_block ?sym machine b))
           (Cfg.layout cfg)))
    [ Some (Symaddr.compute cfg); None ]

(* At a stage input, and then at every region's input of a global pass
   replayed over all regions of a copy of it: each region's graphs are
   compared on the code the region is scheduled from. *)
let ddg_matches_reference ~stage cfg =
  let regions = Regions.compute cfg in
  ddg_matches_on ~stage cfg regions (Regions.regions regions)
  &&
  let copy = Cfg.deep_copy cfg in
  let regions = Regions.compute copy in
  let ok = ref true in
  ignore
    (Gis_core.Global_sched.schedule
       ~only:(fun region ->
         ok :=
           !ok
           && ddg_matches_on ~stage:(stage ^ ", replayed pass")
                ~single_blocks:false copy regions [ region ];
         true)
       ~regions Gis_machine.Machine.rs6k Gis_core.Config.speculative copy);
  !ok

(* [Ddg] = [Ddg_ref] at every stage input of the paper workloads. *)
let test_ddg_paper_workloads () =
  List.iter
    (fun (name, cfg) ->
      Alcotest.(check bool) name true (every_stage_of cfg ddg_matches_reference))
    (paper_cfgs ())

let qtest name count prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count QCheck.(int_range 1 1_000_000) prop)

(* The large-programs ladder's parameters: hardened programs of 64
   top-level statements, 32 to 191 blocks. *)
let ladder_params =
  { Gis_workloads.Random_prog.hardened with Gis_workloads.Random_prog.body_len = 64 }

let grammars =
  [ ("default", Gis_workloads.Random_prog.default);
    ("hardened", Gis_workloads.Random_prog.hardened) ]

let () =
  Alcotest.run "gis_analysis"
    [
      ( "flow",
        [
          Alcotest.test_case "postorder" `Quick test_postorder;
          Alcotest.test_case "reachability" `Quick test_reachability;
          Alcotest.test_case "acyclicity" `Quick test_acyclicity;
        ] );
      ( "dominance",
        [
          Alcotest.test_case "diamond" `Quick test_dominance_diamond;
          Alcotest.test_case "postdominance" `Quick test_postdominance_diamond;
          Alcotest.test_case "vs-naive" `Quick test_dominance_vs_naive;
        ] );
      ( "minmax (Figures 3-4)",
        [
          Alcotest.test_case "loop shape" `Quick test_minmax_loop_shape;
          Alcotest.test_case "equivalences" `Quick test_minmax_equivalences;
          Alcotest.test_case "control deps" `Quick test_minmax_cdg;
          Alcotest.test_case "speculation degree" `Quick test_minmax_speculation_degree;
        ] );
      ( "liveness",
        [
          Alcotest.test_case "diamond" `Quick test_liveness_diamond;
          Alcotest.test_case "loop-carried" `Quick test_liveness_loop_carried;
          Alcotest.test_case "update omission caught" `Quick
            test_liveness_update_omission_caught;
          Alcotest.test_case "update outside a live range" `Quick
            test_liveness_update_outside_range;
          Alcotest.test_case "sparse register ids" `Quick
            test_sparse_register_ids;
        ] );
      ( "reaching",
        [
          Alcotest.test_case "query: entry on a loop" `Quick
            test_query_entry_on_loop;
          Alcotest.test_case "sole-def" `Quick test_reaching_sole_def;
          Alcotest.test_case "merge" `Quick test_reaching_merge;
          Alcotest.test_case "external" `Quick test_reaching_external;
        ] );
      ( "loops/regions",
        [
          Alcotest.test_case "minmax" `Quick test_minmax_loop_detect;
          Alcotest.test_case "nested" `Quick test_nested_loops;
          Alcotest.test_case "irreducible" `Quick test_irreducible;
          Alcotest.test_case "regions" `Quick test_regions_structure;
          Alcotest.test_case "view-collapse" `Quick test_region_view_collapse;
          Alcotest.test_case "loop-exit postdominance" `Quick
            test_loop_exit_not_equivalent;
        ] );
      ( "symaddr",
        [
          Alcotest.test_case "affine chain" `Quick test_symaddr_affine_chain;
          Alcotest.test_case "entry origin / opaque def" `Quick
            test_symaddr_entry_and_opaque;
          Alcotest.test_case "update post-increment" `Quick
            test_symaddr_update_postincrement;
          Alcotest.test_case "join" `Quick test_symaddr_join;
          Alcotest.test_case "affine slice" `Quick test_symaddr_slice;
          Alcotest.test_case "addrcheck slice" `Quick test_addrcheck_slice;
          Alcotest.test_case "overclaim hook" `Quick
            test_symaddr_overclaim_hook;
          Alcotest.test_case "self loop on first reach" `Quick
            test_symaddr_self_loop;
          Alcotest.test_case "later predecessor" `Quick
            test_symaddr_later_predecessor;
          Alcotest.test_case "unreachable block" `Quick
            test_symaddr_unreachable_block;
          Alcotest.test_case "empty slice" `Quick test_symaddr_empty_slice;
          Alcotest.test_case "late changes travel on" `Quick
            test_symaddr_late_changes;
          Alcotest.test_case "base dead inside its block" `Quick
            test_symaddr_dead_inside_block;
          Alcotest.test_case "words linear in the program" `Quick
            test_symaddr_linear_words;
        ] );
      ( "reference properties",
        List.concat_map
          (fun (grammar, params) ->
            [
              qtest ("reaching = Int_set reference, " ^ grammar) 25
                (fun seed ->
                  every_stage_input params seed reaching_matches_reference);
              qtest ("ddg = all-pairs reference, " ^ grammar) 25
                (fun seed -> every_stage_input params seed ddg_matches_reference);
              qtest ("symaddr = layout-sweep reference, " ^ grammar) 25
                (fun seed ->
                  every_stage_input params seed symaddr_matches_reference);
              qtest ("symaddr delta = addrcheck delta, " ^ grammar) 25
                (fun seed ->
                  every_stage_input params seed symaddr_matches_addrcheck);
              qtest ("addrcheck = every-register reference, " ^ grammar) 25
                (fun seed ->
                  every_stage_input params seed addrcheck_matches_reference);
              qtest ("liveness update = fresh reference, " ^ grammar) 25
                (liveness_update_matches_reference params);
              qtest ("shared reaching query = fresh query, " ^ grammar) 25
                (shared_query_stays_fresh params);
              qtest ("reaching query = compute, disambig, " ^ grammar) 25
                (fun seed -> every_stage_input params seed query_matches_compute);
              qtest ("reaching query = compute, no disambig, " ^ grammar) 25
                (fun seed ->
                  every_stage_input ~disambiguate:false params seed
                    query_matches_compute);
              qtest ("deps = pairwise reference, disambig, " ^ grammar) 25
                (fun seed ->
                  every_stage_input params seed
                    (deps_match_reference ~disambig:true));
              qtest ("deps = pairwise reference, no disambig, " ^ grammar) 25
                (fun seed ->
                  every_stage_input params seed
                    (deps_match_reference ~disambig:false));
            ])
          grammars
        @ [
            qtest "reaching = Int_set reference, pointer loops" 50
              (fun seed ->
                every_stage_of (pointer_loop_cfg seed)
                  reaching_matches_reference);
            Alcotest.test_case "reaching = Int_set reference, paper workloads"
              `Quick test_reaching_paper_workloads;
            qtest "ddg = all-pairs reference, pointer loops" 50 (fun seed ->
                every_stage_of (pointer_loop_cfg seed) ddg_matches_reference);
            Alcotest.test_case "ddg = all-pairs reference, paper workloads"
              `Quick test_ddg_paper_workloads;
            qtest "liveness update = fresh reference, pointer loops" 50
              (fun seed ->
                every_stage_of (pointer_loop_cfg seed) (fun ~stage pre ->
                    match liveness_stage_mismatch ~seed ~stage pre with
                    | None -> true
                    | Some m -> QCheck.Test.fail_report m));
            Alcotest.test_case
              "liveness update = fresh reference, paper workloads" `Quick
              test_liveness_paper_workloads;
            qtest "symaddr = layout-sweep reference, pointer loops" 50
              (fun seed ->
                every_stage_of (pointer_loop_cfg seed) symaddr_matches_reference);
            Alcotest.test_case "symaddr = layout-sweep reference, paper workloads"
              `Quick test_symaddr_paper_workloads;
            qtest "symaddr = layout-sweep reference, ladder programs" 4
              (fun seed ->
                every_stage_input ladder_params seed symaddr_matches_reference);
            qtest "symaddr delta = addrcheck delta, pointer loops" 50
              (fun seed ->
                every_stage_of (pointer_loop_cfg seed) symaddr_matches_addrcheck);
          ] );
    ]
