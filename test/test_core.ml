open Gis_ir
open Gis_machine
open Gis_analysis
open Gis_ddg
open Gis_core
open Gis_workloads
module B = Builder

let machine = Machine.rs6k

(* ---- heuristics ---- *)

(* Hand-check D and CP on the paper's BL1: I1 load, I2 load-update,
   I3 compare, I4 branch. Edges (pruned or not): I1->I3 (d1), I2->I3
   (d1), I3->I4 (d3), I1->I2 anti (d0).
   D(I4)=0, CP(I4)=1; D(I3)=3, CP(I3)=1+3+1=5;
   D(I2)=max(D(I3)+1)=4, CP(I2)=CP(I3)+1+1=7; D(I1)=max(4+0, 3+1)=4,
   CP(I1)=max(CP(I2)+0, CP(I3)+1)+1=8. *)
let test_heuristics_bl1 () =
  let g = Reg.Gen.create () in
  let u = Reg.Gen.reserve g Reg.Gpr 12 in
  let v = Reg.Gen.reserve g Reg.Gpr 0 in
  let addr = Reg.Gen.reserve g Reg.Gpr 31 in
  let cr7 = Reg.Gen.reserve g Reg.Cr 7 in
  let cfg = Cfg.create ~reg_gen:g () in
  let b = Cfg.add_block cfg ~label:"BL1" in
  Cfg.set_entry cfg b.Block.id;
  List.iter
    (fun k -> Gis_util.Vec.push b.Block.body (Cfg.make_instr cfg k))
    [
      B.load ~dst:u ~base:addr ~offset:4;
      B.load_update ~dst:v ~base:addr ~offset:8;
      B.cmp ~dst:cr7 ~lhs:u ~rhs:v;
    ];
  Cfg.set_term cfg b.Block.id
    (Cfg.make_instr cfg (B.bf ~cr:cr7 ~cond:Instr.Gt ~taken:"BL1" ~fallthru:"BL1"));
  let ddg = Ddg.build_single_block machine b in
  let h = Heuristics.compute ddg in
  Alcotest.(check int) "D(I4)" 0 (Heuristics.d h 3);
  Alcotest.(check int) "CP(I4)" 1 (Heuristics.cp h 3);
  Alcotest.(check int) "D(I3)" 3 (Heuristics.d h 2);
  Alcotest.(check int) "CP(I3)" 5 (Heuristics.cp h 2);
  Alcotest.(check int) "D(I2)" 4 (Heuristics.d h 1);
  Alcotest.(check int) "CP(I2)" 7 (Heuristics.cp h 1);
  Alcotest.(check int) "D(I1)" 4 (Heuristics.d h 0);
  Alcotest.(check int) "CP(I1)" 8 (Heuristics.cp h 0)

(* ---- priority rules ---- *)

let item ?(useful = true) ?(d = 0) ?(cp = 0) ?(pressure = 0) ~order node =
  { Priority.node; useful; d; cp; order; pressure }

let test_priority_order () =
  let rules = Priority_rule.paper_order in
  let prefers a b =
    Alcotest.(check bool) "prefers" true (Priority.compare ~rules a b < 0)
  in
  (* Rule 1-2: useful beats speculative even with a worse D/CP. *)
  prefers (item ~useful:true ~d:0 ~cp:0 ~order:5 1)
    (item ~useful:false ~d:9 ~cp:9 ~order:1 2);
  (* Rule 3-4: larger D wins within a class. *)
  prefers (item ~d:3 ~cp:0 ~order:5 1) (item ~d:1 ~cp:9 ~order:1 2);
  (* Rule 5-6: larger CP breaks D ties. *)
  prefers (item ~d:3 ~cp:7 ~order:5 1) (item ~d:3 ~cp:2 ~order:1 2);
  (* Rule 7: program order breaks everything else. *)
  prefers (item ~d:3 ~cp:7 ~order:1 1) (item ~d:3 ~cp:7 ~order:5 2);
  (* Reordered rules change the outcome. *)
  let cp_first = Priority_rule.[ Max_critical_path; Max_delay; Program_order ] in
  Alcotest.(check bool) "cp-first flips" true
    (Priority.compare ~rules:cp_first
       (item ~d:1 ~cp:9 ~order:1 1)
       (item ~d:3 ~cp:2 ~order:2 2)
    < 0)

(* ---- local scheduler ---- *)

(* Two independent loads and two dependent adds: the list scheduler must
   hide the load delays behind the independent work. *)
let test_local_fills_delay_slots () =
  let g = Reg.Gen.create () in
  let a = Reg.Gen.fresh g Reg.Gpr in
  let b_ = Reg.Gen.fresh g Reg.Gpr in
  let base = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let y = Reg.Gen.fresh g Reg.Gpr in
  let cfg = Cfg.create ~reg_gen:g () in
  let blk = Cfg.add_block cfg ~label:"X" in
  Cfg.set_entry cfg blk.Block.id;
  (* Deliberately bad order: load; use; load; use. *)
  List.iter
    (fun k -> Gis_util.Vec.push blk.Block.body (Cfg.make_instr cfg k))
    [
      B.load ~dst:a ~base ~offset:0;
      B.addi ~dst:x ~lhs:a 1;
      B.load ~dst:b_ ~base ~offset:4;
      B.addi ~dst:y ~lhs:b_ 1;
    ];
  Cfg.set_term cfg blk.Block.id (Cfg.make_instr cfg Instr.Halt);
  let len = Local_sched.schedule_block machine blk in
  (* loads at 0,1; adds at 2,3; halt issues beside the last add -> 4 *)
  Alcotest.(check int) "optimal length" 4 len;
  (match Instr.kind (Gis_util.Vec.get blk.Block.body 1) with
  | Instr.Load _ -> ()
  | _ -> Alcotest.fail "second slot should be the other load");
  Validate.check_exn cfg

(* Local scheduling preserves intra-block data dependences for random
   blocks — checked by simulation elsewhere; here check a subtle anti
   case: a use must not migrate after a redefinition. *)
let test_local_respects_anti () =
  let g = Reg.Gen.create () in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let y = Reg.Gen.fresh g Reg.Gpr in
  let z = Reg.Gen.fresh g Reg.Gpr in
  let cfg = Cfg.create ~reg_gen:g () in
  let blk = Cfg.add_block cfg ~label:"X" in
  Cfg.set_entry cfg blk.Block.id;
  List.iter
    (fun k -> Gis_util.Vec.push blk.Block.body (Cfg.make_instr cfg k))
    [
      B.li ~dst:x 1;
      B.mr ~dst:y ~src:x;   (* reads x=1 *)
      B.li ~dst:x 2;        (* redefines x *)
      B.mr ~dst:z ~src:x;   (* reads x=2 *)
    ];
  Cfg.set_term cfg blk.Block.id (Cfg.make_instr cfg Instr.Halt);
  ignore (Local_sched.schedule_block machine blk);
  let order =
    Gis_util.Vec.to_list blk.Block.body
    |> List.map (fun i -> Fmt.str "%a" Instr.pp i)
  in
  let idx s = Option.get (List.find_index (fun o -> o = s) order) in
  Alcotest.(check bool) "y=x before x=2" true
    (idx (Fmt.str "LR    %a=%a" Reg.pp y Reg.pp x)
    < idx (Fmt.str "LI    %a=2" Reg.pp x))

(* Custom rule orders still produce valid (dependence-respecting)
   schedules. *)
let test_local_custom_rules () =
  let g = Reg.Gen.create () in
  let base = Reg.Gen.fresh g Reg.Gpr in
  let a = Reg.Gen.fresh g Reg.Gpr in
  let b_ = Reg.Gen.fresh g Reg.Gpr in
  let c = Reg.Gen.fresh g Reg.Gpr in
  let cfg = Cfg.create ~reg_gen:g () in
  let blk = Cfg.add_block cfg ~label:"X" in
  Cfg.set_entry cfg blk.Block.id;
  List.iter
    (fun k -> Gis_util.Vec.push blk.Block.body (Cfg.make_instr cfg k))
    [
      B.load ~dst:a ~base ~offset:0;
      B.addi ~dst:b_ ~lhs:a 1;
      B.addi ~dst:c ~lhs:b_ 1;
      B.li ~dst:base 99;
    ];
  Cfg.set_term cfg blk.Block.id (Cfg.make_instr cfg Instr.Halt);
  List.iter
    (fun rules ->
      let copy = Cfg.deep_copy cfg in
      let cblk = Cfg.block_of_label copy "X" in
      ignore (Local_sched.schedule_block ~rules machine cblk);
      Validate.check_exn copy;
      (* The dependent chain stays in order; the li may float. *)
      let order =
        Gis_util.Vec.to_list cblk.Block.body
        |> List.mapi (fun idx i -> (Instr.uid i, idx))
      in
      let pos uid = List.assoc uid order in
      let uids =
        List.map Instr.uid (Gis_util.Vec.to_list blk.Block.body)
      in
      match uids with
      | [ load; add1; add2; _li ] ->
          Alcotest.(check bool) "load before add1" true (pos load < pos add1);
          Alcotest.(check bool) "add1 before add2" true (pos add1 < pos add2)
      | _ -> Alcotest.fail "unexpected block shape")
    [
      Priority_rule.paper_order;
      Priority_rule.[ Program_order ];
      Priority_rule.[ Max_critical_path ];
      [];
    ]

(* A long dependent chain idles for most of its cycles: 5 400 divides
   of 19 cycles each must schedule back to back without tripping any
   stall check. The last divide cannot issue before cycle 19 * 5 399,
   and the block's length counts the cycle it issues in. *)
let test_local_long_divide_chain () =
  let g = Reg.Gen.create () in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let cfg = Cfg.create ~reg_gen:g () in
  let blk = Cfg.add_block cfg ~label:"X" in
  Cfg.set_entry cfg blk.Block.id;
  for _ = 1 to 5400 do
    Gis_util.Vec.push blk.Block.body
      (Cfg.make_instr cfg (B.binop Instr.Div ~dst:x ~lhs:x ~rhs:(Instr.Imm 3)))
  done;
  Cfg.set_term cfg blk.Block.id (Cfg.make_instr cfg Instr.Halt);
  let len = Local_sched.schedule_block machine blk in
  Alcotest.(check bool)
    (Fmt.str "length %d covers the chain" len)
    true
    (len >= (19 * 5399) + 1)

(* ---- global scheduling: the paper's figures ---- *)

let sched_config level =
  {
    Config.default with
    Config.level;
    unroll_small_loops = false;
    rotate_small_loops = false;
  }

let test_figure5_moves () =
  let t = Minmax.build () in
  let cfg = t.Minmax.cfg in
  let reports = Global_sched.schedule machine (sched_config Config.Useful) cfg in
  Validate.check_exn cfg;
  let moves = List.concat_map (fun r -> r.Global_sched.moves) reports in
  let has ~from_ ~to_ =
    List.exists
      (fun (m : Global_sched.move) ->
        m.Global_sched.from_label = from_ && m.Global_sched.to_label = to_
        && not m.Global_sched.speculative)
      moves
  in
  (* Figure 5: I18/I19 from BL10 to BL1; I8 from BL4 to BL2; I15 from
     BL8 to BL6. *)
  Alcotest.(check bool) "BL10 -> BL1" true (has ~from_:"CL.9" ~to_:"CL.0");
  Alcotest.(check bool) "BL4 -> BL2" true (has ~from_:"CL.6" ~to_:"BL2");
  Alcotest.(check bool) "BL8 -> BL6" true (has ~from_:"CL.11" ~to_:"CL.4");
  Alcotest.(check int) "exactly two instructions into BL1" 2
    (List.length
       (List.filter
          (fun (m : Global_sched.move) -> m.Global_sched.to_label = "CL.0")
          moves));
  (* No speculative motion at the Useful level. *)
  Alcotest.(check bool) "no speculation" true
    (List.for_all (fun (m : Global_sched.move) -> not m.Global_sched.speculative) moves)

let test_figure6_moves_and_rename () =
  let t = Minmax.build () in
  let cfg = t.Minmax.cfg in
  let reports =
    Global_sched.schedule machine (sched_config Config.Speculative) cfg
  in
  Validate.check_exn cfg;
  let moves = List.concat_map (fun r -> r.Global_sched.moves) reports in
  let spec_into_bl1 =
    List.filter
      (fun (m : Global_sched.move) ->
        m.Global_sched.to_label = "CL.0" && m.Global_sched.speculative)
      moves
  in
  (* Figure 6: I5 (from BL2) and I12 (from BL6) move speculatively into
     BL1; the second one needs its condition register renamed. *)
  Alcotest.(check int) "two speculative compares" 2 (List.length spec_into_bl1);
  Alcotest.(check bool) "one was renamed" true
    (List.exists
       (fun (m : Global_sched.move) -> m.Global_sched.renamed <> None)
       spec_into_bl1);
  Alcotest.(check bool) "the I5 motion kept cr6" true
    (List.exists
       (fun (m : Global_sched.move) ->
         m.Global_sched.from_label = "BL2" && m.Global_sched.renamed = None)
       spec_into_bl1);
  Alcotest.(check bool) "the I12 motion was renamed" true
    (List.exists
       (fun (m : Global_sched.move) ->
         m.Global_sched.from_label = "CL.4" && m.Global_sched.renamed <> None)
       spec_into_bl1)

(* Section 5.3: only one of x=5 / x=3 may move into the dispatch block,
   and the second motion is rejected as not renameable. *)
let test_section53_safety () =
  let s = Section53.build () in
  let cfg = s.Section53.cfg in
  let reports =
    Global_sched.schedule machine (sched_config Config.Speculative) cfg
  in
  Validate.check_exn cfg;
  let moves = List.concat_map (fun r -> r.Global_sched.moves) reports in
  let into_b1 =
    List.filter
      (fun (m : Global_sched.move) -> m.Global_sched.to_label = "B1")
      moves
  in
  Alcotest.(check int) "exactly one motion into B1" 1 (List.length into_b1);
  let blocked = List.concat_map (fun r -> r.Global_sched.blocked) reports in
  Alcotest.(check bool) "the other was blocked" true
    (List.exists
       (fun (b : Global_sched.blocked) ->
         b.Global_sched.blocked_uid = s.Section53.x5_uid
         || b.Global_sched.blocked_uid = s.Section53.x3_uid)
       blocked);
  (* Semantics hold on both branch outcomes. *)
  List.iter
    (fun selector ->
      let out =
        Gis_sim.Simulator.run machine cfg (Section53.input ~selector s)
      in
      Alcotest.(check (list string))
        (Fmt.str "output sel=%d" selector)
        [ (if selector <> 0 then "print_int(5)" else "print_int(3)") ]
        out.Gis_sim.Simulator.output)
    [ 0; 1 ]

(* Renaming disabled: both motions must be blocked in minmax's BL1 after
   the first compare moves. *)
let test_rename_ablation () =
  let t = Minmax.build () in
  let cfg = t.Minmax.cfg in
  let config = { (sched_config Config.Speculative) with Config.rename = false } in
  let reports = Global_sched.schedule machine config cfg in
  Validate.check_exn cfg;
  let moves = List.concat_map (fun r -> r.Global_sched.moves) reports in
  let spec_into_bl1 =
    List.filter
      (fun (m : Global_sched.move) ->
        m.Global_sched.to_label = "CL.0" && m.Global_sched.speculative)
      moves
  in
  Alcotest.(check int) "only one compare moves without renaming" 1
    (List.length spec_into_bl1);
  Alcotest.(check bool) "no renames happened" true
    (List.for_all (fun (m : Global_sched.move) -> m.Global_sched.renamed = None) moves)

(* ---- unroll / rotate ---- *)

let counting_loop () =
  let g = Reg.Gen.create () in
  let acc = Reg.Gen.fresh g Reg.Gpr in
  let i = Reg.Gen.fresh g Reg.Gpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  let cfg =
    B.func ~reg_gen:g
      [
        ("PRE", [ B.li ~dst:acc 0; B.li ~dst:i 0 ], B.jmp "H");
        ("H", [ B.cmpi ~dst:c ~lhs:i 7 ],
         B.bt ~cr:c ~cond:Instr.Lt ~taken:"BODY" ~fallthru:"POST");
        ("BODY",
         [ B.add ~dst:acc ~lhs:acc ~rhs:i; B.addi ~dst:i ~lhs:i 1 ],
         B.jmp "H");
        ("POST", [ B.call "print_int" [ acc ] ], Instr.Halt);
      ]
  in
  Validate.check_exn cfg;
  cfg

let run_out cfg =
  (Gis_sim.Simulator.run machine cfg Gis_sim.Simulator.no_input)
    .Gis_sim.Simulator.output

let test_unroll_semantics () =
  let cfg = counting_loop () in
  let expected = run_out (Cfg.deep_copy cfg) in
  let n = Unroll.unroll_small_inner_loops ~max_blocks:4 cfg in
  Alcotest.(check int) "one loop unrolled" 1 n;
  Validate.check_exn cfg;
  Alcotest.(check (list string)) "same output" expected (run_out cfg);
  (* The loop now has twice the blocks. *)
  let info = Loops.compute cfg in
  let l = (Loops.loops info).(0) in
  Alcotest.(check int) "doubled" 4
    (Gis_util.Ints.Int_set.cardinal l.Loops.blocks)

let test_unroll_only_once () =
  let cfg = counting_loop () in
  ignore (Unroll.unroll_small_inner_loops ~max_blocks:4 cfg);
  let blocks_after_first = Cfg.num_blocks cfg in
  (* A second call unrolls the (now bigger) loop again only if it still
     fits; with max_blocks 2 nothing happens. *)
  let n = Unroll.unroll_small_inner_loops ~max_blocks:2 cfg in
  Alcotest.(check int) "no fit, no unroll" 0 n;
  Alcotest.(check int) "unchanged" blocks_after_first (Cfg.num_blocks cfg)

let test_rotate_semantics () =
  let cfg = counting_loop () in
  let expected = run_out (Cfg.deep_copy cfg) in
  let n = Rotate.rotate_small_inner_loops ~max_blocks:4 cfg in
  Alcotest.(check int) "one loop rotated" 1 n;
  Validate.check_exn cfg;
  Alcotest.(check (list string)) "same output" expected (run_out cfg);
  (* The original header is now a peel: the back edges reach the copy. *)
  let info = Loops.compute cfg in
  Alcotest.(check int) "still one loop" 1 (Array.length (Loops.loops info));
  let l = (Loops.loops info).(0) in
  let header_label = (Cfg.block cfg l.Loops.header).Block.label in
  Alcotest.(check bool) "new header is the rotated copy or the body" true
    (not (String.equal header_label "H"))

let test_unroll_then_rotate_then_schedule () =
  let cfg = counting_loop () in
  let expected = run_out (Cfg.deep_copy cfg) in
  let stats = Pipeline.run machine Config.speculative cfg in
  Validate.check_exn cfg;
  Alcotest.(check int) "unrolled" 1 stats.Pipeline.unrolled;
  Alcotest.(check int) "rotated" 1 stats.Pipeline.rotated;
  Alcotest.(check (list string)) "same output" expected (run_out cfg)

(* Three small inner loops inside one outer loop, then a second outer
   loop around one more: every transform stage has several disjoint
   targets, each transformed against the forest computed at the start
   of the stage. *)
let nested_loops_source =
  {|int a[64];
int n;
int i;
int j;
int s;
int t;
s = 0;
t = 0;
i = 0;
while (i < n) {
  j = 0;
  while (j < 4) {
    s = s + a[j];
    j = j + 1;
  }
  j = 0;
  while (j < 3) {
    if (a[j] > s) {
      t = t + 1;
    }
    j = j + 1;
  }
  j = 0;
  while (j < 2) {
    a[j + 4] = s;
    j = j + 1;
  }
  i = i + 1;
}
i = 0;
while (i < n) {
  j = 0;
  while (j < i) {
    t = t - a[j];
    j = j + 1;
  }
  i = i + 1;
}
print(s);
print(t);
|}

(* The printed CFG after one transform stage, with the fresh-label
   counter reset first so the digest does not depend on test order. *)
let transformed_digest transform =
  Label.reset_fresh_counter ();
  let cfg = (Gis_frontend.Codegen.compile_string nested_loops_source).cfg in
  let n = transform ~max_blocks:4 cfg in
  Validate.check_exn cfg;
  (n, Digest.to_hex (Digest.string (Asm.print cfg)))

let test_pinned_loop_transforms () =
  let check name transform (count, digest) =
    let n, d = transformed_digest transform in
    Alcotest.(check int) (name ^ " targets") count n;
    Alcotest.(check string) name digest d
  in
  check "unroll" (Unroll.unroll_small_inner_loops ?prov:None)
    (4, "0a2acd4598d4a61a99276e9ea2ac8256");
  check "rotate" (Rotate.rotate_small_inner_loops ?prov:None)
    (4, "7e77fcc121faba978b8af95503cc531b")

(* ---- level monotonicity on minmax ---- *)

let cycles cfg (t : Minmax.t) elements =
  Gis_sim.Simulator.cycles_per_iteration machine cfg ~header:t.Minmax.loop_header
    (Minmax.input t elements)

let test_levels_improve_minmax () =
  let elements = List.init 64 (fun k -> (k * 37) mod 101) in
  let t = Minmax.build () in
  let run level =
    let c = Cfg.deep_copy t.Minmax.cfg in
    ignore (Pipeline.run machine (sched_config level) c);
    Validate.check_exn c;
    cycles c t elements
  in
  let base = run Config.Local in
  let useful = run Config.Useful in
  let spec = run Config.Speculative in
  Alcotest.(check bool) (Fmt.str "useful (%.1f) < base (%.1f)" useful base)
    true (useful < base);
  Alcotest.(check bool) (Fmt.str "spec (%.1f) <= useful (%.1f)" spec useful)
    true (spec <= useful);
  (* The paper's bands: base 20-22, useful 12-13, speculative 11-12. Our
     timing model sits within one cycle of those. *)
  Alcotest.(check bool) (Fmt.str "base band (%.1f)" base) true
    (base >= 19.0 && base <= 23.0);
  Alcotest.(check bool) (Fmt.str "useful band (%.1f)" useful) true
    (useful >= 11.5 && useful <= 14.5);
  Alcotest.(check bool) (Fmt.str "spec band (%.1f)" spec) true
    (spec >= 10.5 && spec <= 13.5)

(* Stores never move speculatively. *)
let test_stores_not_speculated () =
  let g = Reg.Gen.create () in
  let base = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  let i = Reg.Gen.fresh g Reg.Gpr in
  let cfg =
    B.func ~reg_gen:g
      [
        ("H", [ B.cmpi ~dst:c ~lhs:i 4 ],
         B.bt ~cr:c ~cond:Instr.Lt ~taken:"S" ~fallthru:"J");
        ("S", [ B.store ~src:x ~base ~offset:0 ], B.jmp "J");
        ("J", [ B.addi ~dst:i ~lhs:i 1 ], Instr.Halt);
      ]
  in
  let reports =
    Global_sched.schedule machine (sched_config Config.Speculative) cfg
  in
  Validate.check_exn cfg;
  let moves = List.concat_map (fun r -> r.Global_sched.moves) reports in
  Alcotest.(check bool) "store stayed put" true
    (List.for_all
       (fun (m : Global_sched.move) -> m.Global_sched.from_label <> "S")
       moves)

(* ---- pinned emitted schedules ---- *)

let pinned_programs = Test_support.pinned_programs

(* Two digests per configuration, over every pinned program. The first
   is of the printed assembly: any change to the order either
   scheduling pass emits in any block moves it. The second is of the
   decision stream of a second run with every observer attached: each
   [Sink] event as JSON, the finalized provenance table, and the deltas
   of the seven [sched.*] counters, so a change to what the scheduler
   reports about its motions moves it even when the schedule stays put.
   The paper rule order is the [speculative rs6k] row; the other A2
   orders get a row each. *)
let pinned_digests =
  let ss4 = Machine.superscalar ~width:4 in
  let spec = Config.speculative in
  let rules r = { spec with Config.rules = r } in
  [
    ( "local rs6k",
      machine,
      Config.base,
      ("c15e627d61746697555253fd0c56d351",
       "f633c9b38744315b31a8b38cc273699f") );
    ( "local width-4",
      ss4,
      Config.base,
      ("5e41c3a1603de588fb4574c808d9b386",
       "ec77fb6e3695ed2003473939ad0b5a41") );
    ( "speculative rs6k",
      machine,
      spec,
      ("ca182dc41b5aeeb4d7fbade1c012a96b",
       "af8eaec9a2286d0e0c7d88070fa4c97c") );
    ( "speculative width-4",
      ss4,
      spec,
      ("fde951888e0aa5d547574de292d0c58e",
       "0e808681c75be2d730fd9605b26efd26") );
    ( "detailed local machine",
      machine,
      { spec with Config.local_machine = Some Machine.rs6k_detailed },
      ("434c72ea8ac16b23e81c9ce1c819fd2c",
       "3b3870d6e8448118610cb499ad6b3935") );
    ( "no delay heuristic",
      machine,
      rules Priority_rule.[ Useful_first; Max_critical_path; Program_order ],
      ("f0a90206b3ec3b50d194fe472f7a3a0a",
       "90043b148cea81ddb467baafb79c125b") );
    ( "no critical path",
      machine,
      rules Priority_rule.[ Useful_first; Max_delay; Program_order ],
      ("419ac30385ae754917cebee5486fa45a",
       "0fc86f52789d3b069a88a7f55c882c66") );
    ( "program order only",
      machine,
      rules Priority_rule.[ Useful_first; Program_order ],
      ("856d8ae0d04e0cf2193bb068e3f6598a",
       "520afcaac625064634f067ce8cb60614") );
    ( "speculative first",
      machine,
      rules Priority_rule.[ Max_delay; Max_critical_path; Program_order ],
      ("d3529cabe90daee0eccac559f4868918",
       "3b6c35bfb5030a6c8013f158a915e38b") );
    ( "pressure-aware, 6 registers",
      machine,
      { spec with Config.pressure_aware = true; regs = Some 6 },
      ("6d16d1ad04126aab33df51966739fc25",
       "42a498a00033001f4494f9669348322f") );
    ( "duplication",
      machine,
      { spec with Config.allow_duplication = true },
      ("ab3952d9e605c90ba04991ae5bac04d6",
       "8c9717d30722d6c746afb7adfe3a26cd") );
  ]

let sched_counters =
  [ "moves_useful"; "moves_speculative"; "renames"; "duplication_copies";
    "blocked_motions"; "regions_scheduled"; "regions_skipped" ]
  |> List.map (fun c -> "sched." ^ c ^ "_total")

(* The run's events, its provenance, and its seven [sched.*] counts:
   the motion counts folded over the events, the region counts over the
   region reports. *)
let decision_stream m config cfg =
  let module Obs = Gis_obs in
  let sink, events = Obs.Sink.memory () in
  let prov = Obs.Provenance.create () in
  let stats =
    Pipeline.run m { config with Config.obs = sink; prov = Some prov } cfg
  in
  let counts =
    Obs.Sink.count (events ())
    @ Global_sched.counts (stats.Pipeline.pass1 @ stats.Pipeline.pass2)
  in
  let count c =
    match List.assoc c counts with
    | Obs.Counts.Counter n -> n
    | _ -> Alcotest.failf "%s is not a counter" c
  in
  String.concat "\n"
    (List.map
       (fun e -> Obs.Json.to_string ~minify:true (Obs.Sink.event_to_json e))
       (events ())
    @ [ Obs.Json.to_string ~minify:true (Obs.Provenance.to_json prov);
        String.concat " "
          (List.map (fun c -> string_of_int (count c)) sched_counters) ])

let digest_schedules programs (name, m, config, (schedules, decisions)) =
  let digest f =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.map (fun cfg0 -> f (Cfg.deep_copy cfg0)) programs)))
  in
  let printed cfg =
    ignore (Pipeline.run m config cfg);
    Asm.print cfg
  in
  Alcotest.(check string) name schedules (digest printed);
  (* In a domain of its own: fresh labels come from a domain-local
     counter, which the schedule digests of later rows depend on. *)
  Alcotest.(check string) (name ^ " decisions") decisions
    (Domain.join (Domain.spawn (fun () -> digest (decision_stream m config))))

let test_pinned_schedules () =
  List.iter (digest_schedules (Lazy.force pinned_programs)) pinned_digests

(* Ladder scale: three hardened [body_len = 64] programs of 128 or more
   blocks, where one pass schedules dozens of regions against the same
   procedure-wide liveness and reaching definitions. *)
let ladder_seeds = [ 2; 10; 11 ]

let ladder_programs =
  lazy
    (List.map
       (fun seed ->
         Test_support.pinned_cfg
           { Random_prog.hardened with Random_prog.body_len = 64 }
           ~seed)
       ladder_seeds)

let ladder_digests =
  let spec = Config.speculative in
  [
    ( "ladder speculative rs6k",
      machine,
      spec,
      ("ddb130d4503dc7a7802aba49c1934aed",
       "87915da70f8d15a91c01086dac9bb17c") );
    ( "ladder pressure-aware, 6 registers",
      machine,
      { spec with Config.pressure_aware = true; regs = Some 6 },
      ("af8cd7f8fee5cd28db652ac38ad4ef42",
       "eb7114bbf700685fe8225624ddc03bc7") );
  ]

let test_pinned_ladder () =
  let programs = Lazy.force ladder_programs in
  List.iter
    (fun cfg ->
      Alcotest.(check bool) "at least 128 blocks" true (Cfg.num_blocks cfg >= 128))
    programs;
  List.iter (digest_schedules programs) ladder_digests

(* ---- configuration key ---- *)

(* [Config.pp] is the bench's cell key: every field that changes a run
   must change the text, and the four observers must not. *)
let test_config_key () =
  let key c = Fmt.str "%a" Config.pp c in
  let d = Config.default in
  let runs =
    [
      ("level", { d with Config.level = Config.Useful });
      ("rename", { d with Config.rename = false });
      ("prune_transitive", { d with Config.prune_transitive = false });
      ("rules", { d with Config.rules = Priority_rule.[ Program_order ] });
      ("max_region_blocks", { d with Config.max_region_blocks = 8 });
      ("max_region_instrs", { d with Config.max_region_instrs = 32 });
      ("max_nesting_levels", { d with Config.max_nesting_levels = 1 });
      ("unroll_small_loops", { d with Config.unroll_small_loops = false });
      ("rotate_small_loops", { d with Config.rotate_small_loops = false });
      ("small_loop_blocks", { d with Config.small_loop_blocks = 2 });
      ("local_post_pass", { d with Config.local_post_pass = false });
      ("disambiguate", { d with Config.disambiguate = false });
      ("split_webs", { d with Config.split_webs = true });
      ("max_speculation_degree", { d with Config.max_speculation_degree = 2 });
      ("profile", { d with Config.profile = Some (fun _ -> 1) });
      ("min_speculation_probability",
       { d with Config.min_speculation_probability = 0.3 });
      ("local_machine", { d with Config.local_machine = Some Machine.rs6k_detailed });
      ("allow_duplication", { d with Config.allow_duplication = true });
      ("pressure_aware", { d with Config.pressure_aware = true });
      ("regalloc", { d with Config.regalloc = true });
      ("regs", { d with Config.regs = Some 6 });
    ]
  in
  let keys = key d :: List.map (fun (_, c) -> key c) runs in
  List.iter
    (fun (field, c) ->
      if List.length (List.filter (String.equal (key c)) keys) <> 1 then
        Alcotest.failf "%s: key not unique: %s" field (key c))
    (("default", d) :: runs);
  let observers =
    [
      ("obs", { d with Config.obs = fst (Gis_obs.Sink.memory ()) });
      ("prov", { d with Config.prov = Some (Gis_obs.Provenance.create ()) });
      ("prof", { d with Config.prof = Some (Gis_obs.Prof.create ()) });
      ("check", { d with Config.check = Some (fun ~stage:_ ~pre:_ ~post:_ -> ()) });
    ]
  in
  List.iter
    (fun (field, c) -> Alcotest.(check string) field (key d) (key c))
    observers

let () =
  Alcotest.run "gis_core"
    [
      ("heuristics", [ Alcotest.test_case "paper BL1" `Quick test_heuristics_bl1 ]);
      ("priority", [ Alcotest.test_case "seven rules" `Quick test_priority_order ]);
      ("config", [ Alcotest.test_case "key covers every run field" `Quick test_config_key ]);
      ( "local",
        [
          Alcotest.test_case "fills delay slots" `Quick test_local_fills_delay_slots;
          Alcotest.test_case "respects anti deps" `Quick test_local_respects_anti;
          Alcotest.test_case "custom rule orders" `Quick test_local_custom_rules;
          Alcotest.test_case "long divide chain" `Quick
            test_local_long_divide_chain;
        ] );
      ( "global",
        [
          Alcotest.test_case "figure 5 moves" `Quick test_figure5_moves;
          Alcotest.test_case "figure 6 speculation+rename" `Quick test_figure6_moves_and_rename;
          Alcotest.test_case "section 5.3 safety" `Quick test_section53_safety;
          Alcotest.test_case "rename ablation" `Quick test_rename_ablation;
          Alcotest.test_case "stores stay put" `Quick test_stores_not_speculated;
        ] );
      ( "transforms",
        [
          Alcotest.test_case "unroll semantics" `Quick test_unroll_semantics;
          Alcotest.test_case "unroll bounded" `Quick test_unroll_only_once;
          Alcotest.test_case "rotate semantics" `Quick test_rotate_semantics;
          Alcotest.test_case "full pipeline" `Quick test_unroll_then_rotate_then_schedule;
        ] );
      ( "figures",
        [ Alcotest.test_case "cycle bands" `Quick test_levels_improve_minmax ] );
      ( "pinned",
        [
          Alcotest.test_case "emitted schedules" `Quick test_pinned_schedules;
          Alcotest.test_case "ladder-scale schedules" `Quick test_pinned_ladder;
          Alcotest.test_case "loop transforms" `Quick test_pinned_loop_transforms;
        ] );
    ]
