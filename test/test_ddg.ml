open Gis_ir
open Gis_machine
open Gis_analysis
open Gis_ddg
module B = Builder

let machine = Machine.rs6k

let single_block ?reg_gen kinds term =
  let cfg = Cfg.create ?reg_gen () in
  let b = Cfg.add_block cfg ~label:"X" in
  Cfg.set_entry cfg b.Block.id;
  List.iter
    (fun k -> Gis_util.Vec.push b.Block.body (Cfg.make_instr cfg k))
    kinds;
  Cfg.set_term cfg b.Block.id (Cfg.make_instr cfg term);
  b

(* The edges leaving node [i], as a list. *)
let succs ddg i = List.init (Ddg.num_succs ddg i) (Ddg.succ ddg i)

let edge_set ddg =
  let edges = ref [] in
  Ddg.iter_edges
    (fun e -> edges := (e.Ddg.src, e.Ddg.dst, e.Ddg.kind, e.Ddg.delay) :: !edges)
    ddg;
  List.sort compare !edges

(* The paper's BL1 example (Section 4.2): anti I1->I2; flow I2->I3 with a
   one-cycle delay (delayed load); flow I3->I4 with a three-cycle delay
   (compare to branch); flow I1->I3 is transitive and prunable. *)
let test_bl1_dependences () =
  let g = Reg.Gen.create () in
  let u = Reg.Gen.reserve g Reg.Gpr 12 in
  let v = Reg.Gen.reserve g Reg.Gpr 0 in
  let addr = Reg.Gen.reserve g Reg.Gpr 31 in
  let cr7 = Reg.Gen.reserve g Reg.Cr 7 in
  let b =
    single_block ~reg_gen:g
      [
        B.load ~dst:u ~base:addr ~offset:4;
        B.load_update ~dst:v ~base:addr ~offset:8;
        B.cmp ~dst:cr7 ~lhs:u ~rhs:v;
      ]
      (B.bf ~cr:cr7 ~cond:Instr.Gt ~taken:"X" ~fallthru:"X")
  in
  let ddg = Ddg.build_single_block machine b in
  Alcotest.(check int) "four nodes" 4 (Ddg.num_nodes ddg);
  let edges = edge_set ddg in
  Alcotest.(check bool) "anti I1->I2" true
    (List.exists (fun (s, d, k, _) -> s = 0 && d = 1 && k = Ddg.Anti) edges);
  Alcotest.(check bool) "flow I2->I3 delay 1" true
    (List.mem (1, 2, Ddg.Flow, 1) edges);
  Alcotest.(check bool) "flow I1->I3 delay 1" true
    (List.mem (0, 2, Ddg.Flow, 1) edges);
  Alcotest.(check bool) "flow I3->I4 delay 3" true
    (List.mem (2, 3, Ddg.Flow, 3) edges);
  let pruned = Ddg.prune_transitive ddg in
  let edges' = edge_set pruned in
  Alcotest.(check bool) "I1->I3 pruned as transitive" false
    (List.mem (0, 2, Ddg.Flow, 1) edges');
  Alcotest.(check bool) "I2->I3 kept" true (List.mem (1, 2, Ddg.Flow, 1) edges');
  Alcotest.(check bool) "I3->I4 kept" true (List.mem (2, 3, Ddg.Flow, 3) edges');
  Alcotest.(check bool) "still acyclic" true (Ddg.is_acyclic pruned)

let test_output_dependence () =
  let g = Reg.Gen.create () in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let b = single_block ~reg_gen:g [ B.li ~dst:x 1; B.li ~dst:x 2 ] Instr.Halt in
  let ddg = Ddg.build_single_block machine b in
  Alcotest.(check bool) "output edge" true
    (List.exists
       (fun (s, d, k, _) -> s = 0 && d = 1 && k = Ddg.Output)
       (edge_set ddg))

let mem_edges ddg =
  List.filter (fun (_, _, k, _) -> k = Ddg.Mem) (edge_set ddg)

let test_mem_disambiguation () =
  let g = Reg.Gen.create () in
  let base = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let y = Reg.Gen.fresh g Reg.Gpr in
  let build kinds =
    Ddg.build_single_block machine (single_block ~reg_gen:g kinds Instr.Halt)
  in
  let ddg =
    build [ B.store ~src:x ~base ~offset:0; B.load ~dst:y ~base ~offset:4 ]
  in
  Alcotest.(check int) "disjoint store/load" 0 (List.length (mem_edges ddg));
  let ddg =
    build [ B.store ~src:x ~base ~offset:0; B.load ~dst:y ~base ~offset:0 ]
  in
  Alcotest.(check int) "aliasing store/load" 1 (List.length (mem_edges ddg));
  let ddg =
    build [ B.load ~dst:x ~base ~offset:0; B.load ~dst:y ~base ~offset:0 ]
  in
  Alcotest.(check int) "load/load never conflict" 0 (List.length (mem_edges ddg));
  (* Redefining the base breaks positional disambiguation: the stores at
     "+8 before" and "+0 after" may hit the same cell, so they must stay
     ordered even though base register and offsets differ textually. *)
  let ddg =
    build
      [
        B.store ~src:x ~base ~offset:8;
        B.addi ~dst:base ~lhs:base 8;
        B.store ~src:x ~base ~offset:0;
      ]
  in
  Alcotest.(check bool) "across version change conflicts" true
    (List.exists (fun (s, d, _, _) -> s = 0 && d = 2) (mem_edges ddg))

(* Symbolic refinement: the affine analysis proves disjointness across
   a base redefinition, where the positional scan must keep the edge —
   and keeps the edge when the shifted ranges do overlap. *)
let test_symbolic_pruning () =
  let build ~offset0 ~sym =
    let g = Reg.Gen.create () in
    let base = Reg.Gen.fresh g Reg.Gpr in
    let x = Reg.Gen.fresh g Reg.Gpr in
    let cfg =
      B.func ~reg_gen:g
        [
          ( "A",
            [
              B.store ~src:x ~base ~offset:offset0;
              B.addi ~dst:base ~lhs:base 8;
              B.store ~src:x ~base ~offset:0;
            ],
            Instr.Halt );
        ]
    in
    let sym = if sym then Some (Symaddr.compute cfg) else None in
    Ddg.build_single_block ?sym machine (Cfg.block_of_label cfg "A")
  in
  (* base+0 then (base+8)+0: bytes [0,4) vs [8,12) — provably disjoint. *)
  let ddg = build ~offset0:0 ~sym:true in
  Alcotest.(check int) "shifted disjoint stores pruned" 0
    (List.length (mem_edges ddg));
  Alcotest.(check int) "pruned tally" 1 (Ddg.mem_pruned ddg);
  Alcotest.(check int) "kept tally" 0 (Ddg.mem_kept ddg);
  let ddg = build ~offset0:0 ~sym:false in
  Alcotest.(check int) "same pair kept without the analysis" 1
    (List.length (mem_edges ddg));
  Alcotest.(check int) "kept tally without" 1 (Ddg.mem_kept ddg);
  (* base+8 then (base+8)+0: both name bytes [8,12) — must stay. *)
  let ddg = build ~offset0:8 ~sym:true in
  Alcotest.(check int) "overlapping pair kept" 1
    (List.length (mem_edges ddg))

(* Memory families: an integer and a floating-point access live in
   architecturally disjoint memories, so no analysis is needed. *)
let test_family_pruning () =
  let g = Reg.Gen.create () in
  let base = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let f = Reg.Gen.fresh g Reg.Fpr in
  let b =
    single_block ~reg_gen:g
      [ B.store ~src:x ~base ~offset:0; B.store ~src:f ~base ~offset:0 ]
      Instr.Halt
  in
  let ddg = Ddg.build_single_block machine b in
  Alcotest.(check int) "cross-family stores independent" 0
    (List.length (mem_edges ddg));
  Alcotest.(check int) "family prune counted" 1 (Ddg.mem_pruned ddg)

(* Inter-block: the reaching-definition rule loses the base across a
   redefinition, the symbolic analysis carries it through. *)
let test_interblock_symbolic_pruning () =
  let build ~sym =
    let g = Reg.Gen.create () in
    let base = Reg.Gen.fresh g Reg.Gpr in
    let x = Reg.Gen.fresh g Reg.Gpr in
    let y = Reg.Gen.fresh g Reg.Gpr in
    let cfg =
      B.func ~reg_gen:g
        [
          ( "B1",
            [ B.store ~src:x ~base ~offset:0; B.addi ~dst:base ~lhs:base 8 ],
            B.jmp "B2" );
          ("B2", [ B.load ~dst:y ~base ~offset:0 ], Instr.Halt);
        ]
    in
    let regions = Regions.compute cfg in
    let top = List.hd (Regions.regions regions) in
    let view = Regions.view cfg regions top in
    let sym = if sym then Some (Symaddr.compute cfg) else None in
    let ddg = Ddg.build ?sym cfg machine regions view in
    let s =
      Option.get
        (Ddg.node_of_uid ddg
           (Instr.uid
              (Gis_util.Vec.get (Cfg.block_of_label cfg "B1").Block.body 0)))
    in
    let l =
      Option.get
        (Ddg.node_of_uid ddg
           (Instr.uid
              (Gis_util.Vec.get (Cfg.block_of_label cfg "B2").Block.body 0)))
    in
    List.exists
      (fun (e : Ddg.edge) -> e.Ddg.dst = l && e.Ddg.kind = Ddg.Mem)
      (succs ddg s)
  in
  Alcotest.(check bool) "kept by the reaching-definition rule" true
    (build ~sym:false);
  Alcotest.(check bool) "pruned by the symbolic analysis" false
    (build ~sym:true)

let test_call_barrier () =
  let g = Reg.Gen.create () in
  let base = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let b =
    single_block ~reg_gen:g
      [
        B.load ~dst:x ~base ~offset:0;
        B.call "f" [];
        B.store ~src:x ~base ~offset:4;
      ]
      Instr.Halt
  in
  let ddg = Ddg.build_single_block machine b in
  let mem = mem_edges ddg in
  Alcotest.(check bool) "load before call" true
    (List.exists (fun (s, d, _, _) -> s = 0 && d = 1) mem);
  Alcotest.(check bool) "call before store" true
    (List.exists (fun (s, d, _, _) -> s = 1 && d = 2) mem)

(* ---- region DDG over the minmax loop ---- *)

let minmax_ddg () =
  let t = Gis_workloads.Minmax.build () in
  let cfg = t.Gis_workloads.Minmax.cfg in
  let regions = Regions.compute cfg in
  let region =
    List.find (fun r -> r.Regions.loop <> None) (Regions.regions regions)
  in
  let view = Regions.view cfg regions region in
  (cfg, view, Ddg.build cfg machine regions view)

let test_minmax_region_ddg () =
  let cfg, view, ddg = minmax_ddg () in
  (* The paper's 20 instructions plus three explicit jumps that the
     published listing expresses as fallthrough (BL3, BL7, BL9). *)
  Alcotest.(check int) "twenty-three instructions" 23 (Ddg.num_nodes ddg);
  Alcotest.(check bool) "acyclic" true (Ddg.is_acyclic ddg);
  for v = 0 to view.Regions.flow.Flow.num_nodes - 1 do
    List.iter
      (fun i ->
        Alcotest.(check int) "view node consistent" v
          (Ddg.node ddg i).Ddg.view_node)
      (Ddg.nodes_of_view_node ddg v)
  done;
  (* Interblock anti dependence: I4 (BL1's branch, uses cr7) must precede
     I8 (CL.6's compare, defines cr7). *)
  let uid_of_term label = Instr.uid (Cfg.block_of_label cfg label).Block.term in
  let uid_of_body label idx =
    Instr.uid (Gis_util.Vec.get (Cfg.block_of_label cfg label).Block.body idx)
  in
  let n4 = Option.get (Ddg.node_of_uid ddg (uid_of_term "CL.0")) in
  let n8 = Option.get (Ddg.node_of_uid ddg (uid_of_body "CL.6" 0)) in
  Alcotest.(check bool) "anti I4->I8" true
    (List.exists
       (fun (e : Ddg.edge) -> e.Ddg.dst = n8 && e.Ddg.kind = Ddg.Anti)
       (succs ddg n4));
  (* Flow across blocks: I2 (defines r0/v) feeds I8 (uses v). *)
  let n2 = Option.get (Ddg.node_of_uid ddg (uid_of_body "CL.0" 1)) in
  Alcotest.(check bool) "flow I2->I8" true
    (List.exists
       (fun (e : Ddg.edge) -> e.Ddg.dst = n8 && e.Ddg.kind = Ddg.Flow)
       (succs ddg n2));
  (* No dependence between mutually unreachable blocks: I5 (BL2) and
     I12 (CL.4) both write cr6, yet no edge links them. *)
  let n5 = Option.get (Ddg.node_of_uid ddg (uid_of_body "BL2" 0)) in
  let n12 = Option.get (Ddg.node_of_uid ddg (uid_of_body "CL.4" 0)) in
  Alcotest.(check bool) "disjoint paths carry no edge" false
    (List.exists (fun (e : Ddg.edge) -> e.Ddg.dst = n12) (succs ddg n5)
    || List.exists (fun (e : Ddg.edge) -> e.Ddg.dst = n5) (succs ddg n12))

(* Pruning must leave, for every original edge, a surviving path whose
   accumulated timing constraint is at least as strong. *)
let test_prune_preserves_constraints () =
  let _, _, ddg = minmax_ddg () in
  let pruned = Ddg.prune_transitive ddg in
  Alcotest.(check bool) "monotone size" true
    (Ddg.num_edges pruned <= Ddg.num_edges ddg);
  let n = Ddg.num_nodes pruned in
  (* weight of an edge: what it forces between issue(src) and issue(dst). *)
  let weight (e : Ddg.edge) =
    match e.Ddg.kind with
    | Ddg.Flow -> Ddg.exec_time pruned e.Ddg.src + e.Ddg.delay
    | Ddg.Anti | Ddg.Output | Ddg.Mem -> e.Ddg.delay
  in
  let longest_from src =
    let dist = Array.make n min_int in
    dist.(src) <- 0;
    (* The region DDG is a DAG; simple relaxation to a fixpoint. *)
    let changed = ref true in
    while !changed do
      changed := false;
      for i = 0 to n - 1 do
        if dist.(i) > min_int then
          List.iter
            (fun e ->
              let cand = dist.(i) + weight e in
              if cand > dist.(e.Ddg.dst) then begin
                dist.(e.Ddg.dst) <- cand;
                changed := true
              end)
            (succs pruned i)
      done
    done;
    dist
  in
  let cache = Hashtbl.create 16 in
  Ddg.iter_edges
    (fun e ->
      let dist =
        match Hashtbl.find_opt cache e.Ddg.src with
        | Some d -> d
        | None ->
            let d = longest_from e.Ddg.src in
            Hashtbl.add cache e.Ddg.src d;
            d
      in
      let w =
        match e.Ddg.kind with
        | Ddg.Flow -> Ddg.exec_time ddg e.Ddg.src + e.Ddg.delay
        | Ddg.Anti | Ddg.Output | Ddg.Mem -> e.Ddg.delay
      in
      Alcotest.(check bool)
        (Fmt.str "constraint %d->%d preserved" e.Ddg.src e.Ddg.dst)
        true
        (dist.(e.Ddg.dst) >= w))
    ddg

(* Inter-block disambiguation: same reaching base definition at both
   references proves base equality across blocks. *)
let test_interblock_disambiguation () =
  let build body2 =
    let g = Reg.Gen.create () in
    let base = Reg.Gen.fresh g Reg.Gpr in
    let x = Reg.Gen.fresh g Reg.Gpr in
    let y = Reg.Gen.fresh g Reg.Gpr in
    let mid =
      match body2 with
      | `Straight -> []
      | `Clobber_base -> [ B.addi ~dst:base ~lhs:base 8 ]
    in
    let cfg =
      B.func ~reg_gen:g
        [
          ("B1",
           [ B.li ~dst:base 512; B.store ~src:x ~base ~offset:0 ] @ mid,
           B.jmp "B2");
          ("B2", [ B.load ~dst:y ~base ~offset:4 ], Instr.Halt);
        ]
    in
    let regions = Regions.compute cfg in
    let top = List.hd (Regions.regions regions) in
    let view = Regions.view cfg regions top in
    let ddg = Ddg.build cfg machine regions view in
    let store_uid =
      Instr.uid (Gis_util.Vec.get (Cfg.block_of_label cfg "B1").Block.body 1)
    in
    let load_uid =
      Instr.uid (Gis_util.Vec.get (Cfg.block_of_label cfg "B2").Block.body 0)
    in
    let s = Option.get (Ddg.node_of_uid ddg store_uid) in
    let l = Option.get (Ddg.node_of_uid ddg load_uid) in
    List.exists
      (fun (e : Ddg.edge) -> e.Ddg.dst = l && e.Ddg.kind = Ddg.Mem)
      (succs ddg s)
  in
  Alcotest.(check bool) "same base, distinct offsets: independent" false
    (build `Straight);
  Alcotest.(check bool) "base redefined between: ordered" true
    (build `Clobber_base)

(* Memory edges carry the machine's secondary delay on the detailed
   model. *)
let test_mem_edge_delay () =
  let g = Reg.Gen.create () in
  let base = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let y = Reg.Gen.fresh g Reg.Gpr in
  let b =
    single_block ~reg_gen:g
      [ B.store ~src:x ~base ~offset:0; B.load ~dst:y ~base ~offset:0 ]
      Instr.Halt
  in
  let simple = Ddg.build_single_block Machine.rs6k b in
  let detailed = Ddg.build_single_block Machine.rs6k_detailed b in
  let mem_delay ddg =
    List.filter_map
      (fun (_, _, k, d) -> if k = Ddg.Mem then Some d else None)
      (edge_set ddg)
  in
  Alcotest.(check (list int)) "simple model: zero" [ 0 ] (mem_delay simple);
  Alcotest.(check (list int)) "detailed model: one" [ 1 ] (mem_delay detailed)

let test_summary_nodes () =
  (* Build a program with an inner loop between two blocks that touch
     the same register; check that the outer region's DDG routes the
     dependence through the summary node. *)
  let g = Reg.Gen.create () in
  let acc = Reg.Gen.fresh g Reg.Gpr in
  let i = Reg.Gen.fresh g Reg.Gpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  let cfg =
    B.func ~reg_gen:g
      [
        ("PRE", [ B.li ~dst:acc 5; B.li ~dst:i 0 ], B.jmp "H");
        ("H", [ B.cmpi ~dst:c ~lhs:i 4 ],
         B.bt ~cr:c ~cond:Instr.Lt ~taken:"BODY" ~fallthru:"POST");
        ("BODY",
         [ B.add ~dst:acc ~lhs:acc ~rhs:i; B.addi ~dst:i ~lhs:i 1 ],
         B.jmp "H");
        ("POST", [ B.call "print_int" [ acc ] ], Instr.Halt);
      ]
  in
  let regions = Regions.compute cfg in
  let top = List.find (fun r -> r.Regions.loop = None) (Regions.regions regions) in
  let view = Regions.view cfg regions top in
  let ddg = Ddg.build cfg machine regions view in
  (* Find the summary node. *)
  let summary = ref None in
  for k = 0 to Ddg.num_nodes ddg - 1 do
    if (Ddg.node ddg k).Ddg.instr = None then summary := Some k
  done;
  let s = Option.get !summary in
  Alcotest.(check bool) "summary defines acc" true
    (Array.exists (Reg.equal acc) (Ddg.node ddg s).Ddg.defs);
  (* acc's initialisation flows into the summary, and the summary flows
     into the print. *)
  let pre = Cfg.block_of_label cfg "PRE" in
  let li_acc = Option.get (Ddg.node_of_uid ddg (Instr.uid (Gis_util.Vec.get pre.Block.body 0))) in
  Alcotest.(check bool) "li acc -> summary" true
    (List.exists (fun (e : Ddg.edge) -> e.Ddg.dst = s) (succs ddg li_acc));
  let post = Cfg.block_of_label cfg "POST" in
  let print_node =
    Option.get (Ddg.node_of_uid ddg (Instr.uid (Gis_util.Vec.get post.Block.body 0)))
  in
  Alcotest.(check bool) "summary -> print" true
    (List.exists (fun (e : Ddg.edge) -> e.Ddg.dst = print_node) (succs ddg s))

let () =
  Alcotest.run "gis_ddg"
    [
      ( "intra-block",
        [
          Alcotest.test_case "paper BL1" `Quick test_bl1_dependences;
          Alcotest.test_case "output dep" `Quick test_output_dependence;
          Alcotest.test_case "mem disambiguation" `Quick test_mem_disambiguation;
          Alcotest.test_case "symbolic pruning" `Quick test_symbolic_pruning;
          Alcotest.test_case "family pruning" `Quick test_family_pruning;
          Alcotest.test_case "call barrier" `Quick test_call_barrier;
        ] );
      ( "region",
        [
          Alcotest.test_case "minmax" `Quick test_minmax_region_ddg;
          Alcotest.test_case "interblock disambiguation" `Quick
            test_interblock_disambiguation;
          Alcotest.test_case "interblock symbolic pruning" `Quick
            test_interblock_symbolic_pruning;
          Alcotest.test_case "mem edge delay" `Quick test_mem_edge_delay;
          Alcotest.test_case "prune-safe" `Quick test_prune_preserves_constraints;
          Alcotest.test_case "summary nodes" `Quick test_summary_nodes;
        ] );
    ]
