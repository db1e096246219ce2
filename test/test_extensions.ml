(* Tests for the extensions beyond the paper's prototype: register-web
   splitting (Section 4.2's renaming pre-pass), n-branch speculation
   (Section 7 future work) and profile-guided speculation (Section 1's
   "branch probabilities, whenever available"). *)

open Gis_ir
open Gis_machine
open Gis_core
open Gis_sim
open Gis_workloads
module B = Builder

let machine = Machine.rs6k

(* ---- register webs ---- *)

let test_webs_split_minmax () =
  let t = Minmax.build () in
  let cfg = t.Minmax.cfg in
  let input = Minmax.input t [ 3; 1; 4; 1; 5; 9 ] in
  let expected = Simulator.observables (Simulator.run machine cfg input) in
  let stats = Webs.split cfg in
  Validate.check_exn cfg;
  (* cr7 carries three independent webs (I3/I4, I8/I9, I15/I16) and cr6
     two (I5/I6, I12/I13): at least three renames happen. *)
  Alcotest.(check bool)
    (Fmt.str "some webs renamed (%d/%d)" stats.Webs.webs_renamed
       stats.Webs.webs_seen)
    true
    (stats.Webs.webs_renamed >= 3);
  Alcotest.(check string) "semantics preserved" expected
    (Simulator.observables (Simulator.run machine cfg input));
  (* Idempotent. *)
  let again = Webs.split cfg in
  Alcotest.(check int) "second run renames nothing" 0 again.Webs.webs_renamed

let test_webs_keep_externals_and_update_bases () =
  let t = Minmax.build () in
  let cfg = t.Minmax.cfg in
  ignore (Webs.split cfg);
  (* r27 (the parameter n) must keep its name: its value comes from
     outside the procedure. r31 is threaded through an update-form load
     around the loop, so its web is tainted too. *)
  let uses_reg r =
    List.exists (fun i -> List.exists (Reg.equal r) (Instr.uses i)) (Cfg.all_instrs cfg)
  in
  Alcotest.(check bool) "n still read" true (uses_reg t.Minmax.n_reg);
  let r31 =
    List.find_map
      (fun i ->
        match Instr.kind i with
        | Instr.Load { base; update = true; _ } -> Some base
        | _ -> None)
      (Cfg.all_instrs cfg)
  in
  match r31 with
  | Some base -> Alcotest.(check int) "LU base unrenamed" 31 base.Reg.id
  | None -> Alcotest.fail "expected the LU to survive"

(* After web splitting, the Figure 6 motions need no scheduler renaming:
   the two compares already write different registers. *)
let test_webs_remove_scheduler_renames () =
  let t = Minmax.build () in
  let cfg = t.Minmax.cfg in
  let config =
    {
      Config.speculative with
      Config.split_webs = true;
      unroll_small_loops = false;
      rotate_small_loops = false;
    }
  in
  ignore (Webs.split cfg);
  let reports = Global_sched.schedule machine config cfg in
  Validate.check_exn cfg;
  let moves = List.concat_map (fun r -> r.Global_sched.moves) reports in
  let spec_into_bl1 =
    List.filter
      (fun (m : Global_sched.move) ->
        m.Global_sched.to_label = "CL.0" && m.Global_sched.speculative)
      moves
  in
  Alcotest.(check int) "both compares still move" 2 (List.length spec_into_bl1);
  Alcotest.(check bool) "no renaming was needed" true
    (List.for_all
       (fun (m : Global_sched.move) -> m.Global_sched.renamed = None)
       spec_into_bl1)

let test_webs_via_pipeline_preserves () =
  List.iter
    (fun seed ->
      let compiled = Random_prog.generate_compiled ~seed in
      let input = Random_prog.random_input ~seed compiled in
      let cfg = compiled.Gis_frontend.Codegen.cfg in
      let expected = Simulator.observables (Simulator.run machine cfg input) in
      let scheduled = Cfg.deep_copy cfg in
      ignore
        (Pipeline.run machine
           { Config.speculative with Config.split_webs = true }
           scheduled);
      Validate.check_exn scheduled;
      Alcotest.(check string)
        (Fmt.str "seed %d" seed)
        expected
        (Simulator.observables (Simulator.run machine scheduled input)))
    [ 3; 17; 99; 254; 1023 ]

(* ---- n-branch speculation ---- *)

(* A: outer test; B: inner test (degree 1 from A); C: a compare two
   branches deep (degree 2 from A). *)
let nested_compare_cfg () =
  let g = Reg.Gen.create () in
  let p = Reg.Gen.fresh g Reg.Gpr in
  let q = Reg.Gen.fresh g Reg.Gpr in
  let c1 = Reg.Gen.fresh g Reg.Cr in
  let c2 = Reg.Gen.fresh g Reg.Cr in
  let c3 = Reg.Gen.fresh g Reg.Cr in
  let out = Reg.Gen.fresh g Reg.Gpr in
  let cfg =
    B.func ~reg_gen:g
      [
        ("A", [ B.cmpi ~dst:c1 ~lhs:p 0 ],
         B.bt ~cr:c1 ~cond:Instr.Gt ~taken:"B" ~fallthru:"J");
        ("B", [ B.cmpi ~dst:c2 ~lhs:q 0 ],
         B.bt ~cr:c2 ~cond:Instr.Gt ~taken:"C" ~fallthru:"J");
        ("C", [ B.cmp ~dst:c3 ~lhs:p ~rhs:q ],
         B.bt ~cr:c3 ~cond:Instr.Lt ~taken:"X" ~fallthru:"Y");
        ("X", [ B.li ~dst:out 1 ], B.jmp "J");
        ("Y", [ B.li ~dst:out 2 ], B.jmp "J");
        ("J", [ B.call "print_int" [ out ] ], Instr.Halt);
      ]
  in
  Validate.check_exn cfg;
  (cfg, p, q)

let moved_to moves label =
  List.filter
    (fun (m : Global_sched.move) -> m.Global_sched.to_label = label)
    moves

let test_degree_two_hoists_further () =
  let config degree =
    {
      Config.speculative with
      Config.max_speculation_degree = degree;
      unroll_small_loops = false;
      rotate_small_loops = false;
    }
  in
  (* Degree 1: C's compare can reach B but not A. *)
  let cfg1, _, _ = nested_compare_cfg () in
  let r1 = Global_sched.schedule machine (config 1) cfg1 in
  let moves1 = List.concat_map (fun r -> r.Global_sched.moves) r1 in
  Alcotest.(check bool) "degree 1: nothing lands in A from C" true
    (List.for_all
       (fun (m : Global_sched.move) ->
         not (m.Global_sched.to_label = "A" && m.Global_sched.from_label = "C"))
       moves1);
  (* Degree 2: it goes all the way up to A. *)
  let cfg2, p, q = nested_compare_cfg () in
  let r2 = Global_sched.schedule machine (config 2) cfg2 in
  Validate.check_exn cfg2;
  let moves2 = List.concat_map (fun r -> r.Global_sched.moves) r2 in
  Alcotest.(check bool) "degree 2: A receives from further away" true
    (List.length (moved_to moves2 "A") > List.length (moved_to moves1 "A"));
  Alcotest.(check bool) "degree 2: C's compare reached A" true
    (List.exists
       (fun (m : Global_sched.move) ->
         m.Global_sched.from_label = "C" && m.Global_sched.to_label = "A")
       moves2);
  (* Semantics hold on all four input quadrants. *)
  List.iter
    (fun (pv, qv) ->
      let input =
        { Simulator.no_input with Simulator.int_regs = [ (p, pv); (q, qv) ] }
      in
      let cfg0, _, _ = nested_compare_cfg () in
      let expected = Simulator.observables (Simulator.run machine cfg0 input) in
      Alcotest.(check string)
        (Fmt.str "p=%d q=%d" pv qv)
        expected
        (Simulator.observables (Simulator.run machine cfg2 input)))
    [ (1, 1); (1, -1); (-1, 1); (-1, -1) ]

(* ---- duplication (Definition 6) ---- *)

(* A diamond whose join starts with computation whose operands come from
   the dominator: with duplication enabled it moves into one arm and a
   copy lands in the other. *)
let diamond_join_cfg () =
  let g = Reg.Gen.create () in
  let p = Reg.Gen.fresh g Reg.Gpr in
  let q = Reg.Gen.fresh g Reg.Gpr in
  let m = Reg.Gen.fresh g Reg.Gpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  let a1 = Reg.Gen.fresh g Reg.Gpr in
  let t = Reg.Gen.fresh g Reg.Gpr in
  let u = Reg.Gen.fresh g Reg.Gpr in
  (* The join computation [t = m + q] depends on E's slow divide: it is
     not ready before E's own pass closes, so hoisting it usefully into
     E never happens — only duplication into the arms can lift it out of
     the join. *)
  let cfg =
    B.func ~reg_gen:g
      [
        ( "E",
          [ B.binop Instr.Div ~dst:m ~lhs:p ~rhs:(Instr.Imm 3);
            B.cmpi ~dst:c ~lhs:p 0 ],
          B.bt ~cr:c ~cond:Instr.Gt ~taken:"L" ~fallthru:"R" );
        ("L", [ B.addi ~dst:a1 ~lhs:p 1 ], B.jmp "J");
        ("R", [ B.addi ~dst:a1 ~lhs:q 2 ], B.jmp "J");
        ( "J",
          [ B.add ~dst:t ~lhs:m ~rhs:q; B.add ~dst:u ~lhs:t ~rhs:a1;
            B.call "print_int" [ u ] ],
          Instr.Halt );
      ]
  in
  Validate.check_exn cfg;
  (cfg, p, q)

let test_duplication_motion () =
  let config on =
    {
      Config.speculative with
      Config.allow_duplication = on;
      unroll_small_loops = false;
      rotate_small_loops = false;
    }
  in
  (* Without duplication the join computation stays put. *)
  let cfg_off, _, _ = diamond_join_cfg () in
  let r_off = Global_sched.schedule machine (config false) cfg_off in
  let moves_off = List.concat_map (fun r -> r.Global_sched.moves) r_off in
  Alcotest.(check bool) "no motion out of J without duplication" true
    (List.for_all
       (fun (m : Global_sched.move) -> m.Global_sched.from_label <> "J")
       moves_off);
  (* With duplication, the add escapes J; its copy lands in the other
     arm. *)
  let cfg_on, p, q = diamond_join_cfg () in
  let r_on = Global_sched.schedule machine (config true) cfg_on in
  Validate.check_exn cfg_on;
  let moves_on = List.concat_map (fun r -> r.Global_sched.moves) r_on in
  let dup_move =
    List.find_opt
      (fun (m : Global_sched.move) ->
        m.Global_sched.from_label = "J" && m.Global_sched.duplicated_into <> [])
      moves_on
  in
  (match dup_move with
  | Some m ->
      Alcotest.(check bool) "moved into one arm" true
        (List.mem m.Global_sched.to_label [ "L"; "R" ]);
      Alcotest.(check int) "one copy host" 1
        (List.length m.Global_sched.duplicated_into);
      Alcotest.(check bool) "copy in the other arm" true
        (m.Global_sched.duplicated_into
        <> [ m.Global_sched.to_label ])
  | None -> Alcotest.fail "expected a duplication motion out of J");
  (* Both arms now compute t: the join shrank, the arms grew. *)
  let j = Cfg.block_of_label cfg_on "J" in
  Alcotest.(check int) "join lost the add" 2 (Gis_util.Vec.length j.Block.body);
  (* Semantics on both branch directions. *)
  List.iter
    (fun pv ->
      let input =
        { Simulator.no_input with
          Simulator.int_regs = [ (p, pv); (q, 7) ] }
      in
      let fresh, p', q' = diamond_join_cfg () in
      let input_ref =
        { Simulator.no_input with
          Simulator.int_regs = [ (p', pv); (q', 7) ] }
      in
      Alcotest.(check string)
        (Fmt.str "p=%d" pv)
        (Simulator.observables (Simulator.run machine fresh input_ref))
        (Simulator.observables (Simulator.run machine cfg_on input)))
    [ 5; -5 ]

(* Duplication must refuse when the moved definition would clobber a
   copy host's branch input or when a source does not dominate the
   join. *)
let test_duplication_blocked_cases () =
  let g = Reg.Gen.create () in
  let p = Reg.Gen.fresh g Reg.Gpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  let a1 = Reg.Gen.fresh g Reg.Gpr in
  let t = Reg.Gen.fresh g Reg.Gpr in
  (* The join's computation depends on a1, defined differently in each
     arm: sources do not dominate the join, so no duplication. *)
  let cfg =
    B.func ~reg_gen:g
      [
        ("E", [ B.cmpi ~dst:c ~lhs:p 0 ],
         B.bt ~cr:c ~cond:Instr.Gt ~taken:"L" ~fallthru:"R");
        ("L", [ B.addi ~dst:a1 ~lhs:p 1 ], B.jmp "J");
        ("R", [ B.addi ~dst:a1 ~lhs:p 2 ], B.jmp "J");
        ("J", [ B.addi ~dst:t ~lhs:a1 3; B.call "print_int" [ t ] ], Instr.Halt);
      ]
  in
  let config =
    {
      Config.speculative with
      Config.allow_duplication = true;
      unroll_small_loops = false;
      rotate_small_loops = false;
    }
  in
  let reports = Global_sched.schedule machine config cfg in
  Validate.check_exn cfg;
  let moves = List.concat_map (fun r -> r.Global_sched.moves) reports in
  Alcotest.(check bool) "arm-dependent join value stays put" true
    (List.for_all
       (fun (m : Global_sched.move) -> m.Global_sched.from_label <> "J")
       moves)

(* A duplication motion whose definition is live on the target's other
   exit: it is renamed, and the provenance fold marks both the moved
   instruction and its copy as renamed duplications. *)
let test_renamed_duplication () =
  let g = Reg.Gen.create () in
  let p = Reg.Gen.fresh g Reg.Gpr in
  let q = Reg.Gen.fresh g Reg.Gpr in
  let m = Reg.Gen.fresh g Reg.Gpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  let c2 = Reg.Gen.fresh g Reg.Cr in
  let t = Reg.Gen.fresh g Reg.Gpr in
  let u = Reg.Gen.fresh g Reg.Gpr in
  let cfg =
    B.func ~reg_gen:g
      [
        ( "E",
          [ B.binop Instr.Div ~dst:m ~lhs:p ~rhs:(Instr.Imm 3);
            B.cmpi ~dst:c ~lhs:p 0 ],
          B.bt ~cr:c ~cond:Instr.Gt ~taken:"A" ~fallthru:"R" );
        ( "A", [ B.cmpi ~dst:c2 ~lhs:q 0 ],
          B.bt ~cr:c2 ~cond:Instr.Gt ~taken:"J" ~fallthru:"X" );
        ("R", [ B.addi ~dst:u ~lhs:q 2 ], B.jmp "J");
        ( "J",
          [ B.add ~dst:t ~lhs:m ~rhs:q; B.add ~dst:u ~lhs:t ~rhs:u;
            B.call "print_int" [ u ] ],
          Instr.Halt );
        ("X", [ B.call "print_int" [ t ] ], Instr.Halt);
      ]
  in
  Validate.check_exn cfg;
  let prov = Gis_obs.Provenance.create () in
  let config =
    {
      Config.speculative with
      Config.allow_duplication = true;
      unroll_small_loops = false;
      rotate_small_loops = false;
      prov = Some prov;
    }
  in
  let reports = Global_sched.schedule machine config cfg in
  Validate.check_exn cfg;
  Gis_obs.Provenance.finalize (Some prov) cfg;
  match
    List.find_opt
      (fun (m : Global_sched.move) ->
        m.Global_sched.duplicated_into <> [] && m.Global_sched.renamed <> None)
      (List.concat_map (fun r -> r.Global_sched.moves) reports)
  with
  | None -> Alcotest.fail "expected a renamed duplication out of J"
  | Some mv ->
      let copies =
        List.filter_map
          (fun (e : Gis_obs.Provenance.entry) ->
            let r = e.Gis_obs.Provenance.record in
            if r.Gis_obs.Provenance.kind = Gis_obs.Provenance.Duplicated then
              Some (r.Gis_obs.Provenance.uid, r.Gis_obs.Provenance.renamed)
            else None)
          (Gis_obs.Provenance.entries prov)
      in
      Alcotest.(check int) "moved instruction and one copy" 2
        (List.length copies);
      Alcotest.(check bool) "the moved instruction is one of them" true
        (List.mem_assoc mv.Global_sched.uid copies);
      Alcotest.(check bool) "both renamed" true (List.for_all snd copies)

(* ---- profile-guided speculation ---- *)

let hot_cold_cfg () =
  let g = Reg.Gen.create () in
  let sel = Reg.Gen.fresh g Reg.Gpr in
  let i = Reg.Gen.fresh g Reg.Gpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  let ch = Reg.Gen.fresh g Reg.Cr in
  let cc = Reg.Gen.fresh g Reg.Cr in
  let cl = Reg.Gen.fresh g Reg.Cr in
  let acc = Reg.Gen.fresh g Reg.Gpr in
  let cfg =
    B.func ~reg_gen:g
      [
        ("TOP", [ B.li ~dst:i 0; B.li ~dst:acc 0 ], B.jmp "H");
        ("H", [ B.cmpi ~dst:c ~lhs:sel 0 ],
         B.bt ~cr:c ~cond:Instr.Gt ~taken:"HOT" ~fallthru:"COLD");
        ("HOT", [ B.cmpi ~dst:ch ~lhs:i 100 ],
         B.bt ~cr:ch ~cond:Instr.Lt ~taken:"HK" ~fallthru:"J");
        ("HK", [ B.addi ~dst:acc ~lhs:acc 1 ], B.jmp "J");
        ("COLD", [ B.cmpi ~dst:cc ~lhs:i 50 ],
         B.bt ~cr:cc ~cond:Instr.Lt ~taken:"CK" ~fallthru:"J");
        ("CK", [ B.addi ~dst:acc ~lhs:acc 2 ], B.jmp "J");
        ("J", [ B.addi ~dst:i ~lhs:i 1; B.cmpi ~dst:cl ~lhs:i 40 ],
         B.bt ~cr:cl ~cond:Instr.Lt ~taken:"H" ~fallthru:"E");
        ("E", [ B.call "print_int" [ acc ] ], Instr.Halt);
      ]
  in
  Validate.check_exn cfg;
  (cfg, sel)

let test_profile_guided_gating () =
  (* Profile with sel > 0: COLD never executes. *)
  let cfg0, sel = hot_cold_cfg () in
  let input = { Simulator.no_input with Simulator.int_regs = [ (sel, 1) ] } in
  let profile_run = Simulator.run machine cfg0 input in
  Alcotest.(check int) "cold block never runs" 0
    (Simulator.profile_fn profile_run "COLD");
  Alcotest.(check bool) "hot block runs" true
    (Simulator.profile_fn profile_run "HOT" > 0);
  let schedule config =
    let cfg, _ = hot_cold_cfg () in
    (* Rebuild with identical structure: labels align, so the profile
       from cfg0 applies. *)
    let reports = Global_sched.schedule machine config cfg in
    (cfg, List.concat_map (fun r -> r.Global_sched.moves) reports)
  in
  let base_config =
    {
      Config.speculative with
      Config.unroll_small_loops = false;
      rotate_small_loops = false;
    }
  in
  (* Blind speculation moves compares from both arms into H. *)
  let _, blind = schedule base_config in
  let spec_from label moves =
    List.exists
      (fun (m : Global_sched.move) ->
        m.Global_sched.speculative && m.Global_sched.from_label = label)
      moves
  in
  Alcotest.(check bool) "blind: hoists from HOT" true (spec_from "HOT" blind);
  Alcotest.(check bool) "blind: hoists from COLD" true (spec_from "COLD" blind);
  (* Profile-guided speculation skips the cold arm. *)
  let guided_config =
    {
      base_config with
      Config.profile = Some (Simulator.profile_fn profile_run);
      min_speculation_probability = 0.5;
    }
  in
  let cfg_guided, guided = schedule guided_config in
  Validate.check_exn cfg_guided;
  Alcotest.(check bool) "guided: still hoists from HOT" true
    (spec_from "HOT" guided);
  Alcotest.(check bool) "guided: leaves COLD alone" false
    (spec_from "COLD" guided);
  (* And the guided schedule still computes the same answer, on both the
     profiled and the unprofiled branch direction. *)
  List.iter
    (fun sv ->
      let cfg_ref, sel_ref = hot_cold_cfg () in
      let mk s r = { Simulator.no_input with Simulator.int_regs = [ (r, s) ] } in
      let expected =
        Simulator.observables (Simulator.run machine cfg_ref (mk sv sel_ref))
      in
      Alcotest.(check string)
        (Fmt.str "sel=%d" sv)
        expected
        (Simulator.observables (Simulator.run machine cfg_guided (mk sv sel))))
    [ 1; -1 ]

let test_profile_counts_sum () =
  let t = Minmax.build () in
  let o = Simulator.run machine t.Minmax.cfg (Minmax.input t [ 1; 2; 3; 4 ]) in
  (* n=4: entry once, loop header twice (i = 1, 3), exit once. *)
  Alcotest.(check int) "entry once" 1 (Simulator.profile_fn o "L.entry");
  Alcotest.(check int) "loop twice" 2 (Simulator.profile_fn o "CL.0");
  Alcotest.(check int) "exit once" 1 (Simulator.profile_fn o "L.exit");
  Alcotest.(check int) "unknown block" 0 (Simulator.profile_fn o "NOPE")

let () =
  Alcotest.run "gis_extensions"
    [
      ( "register webs",
        [
          Alcotest.test_case "split minmax" `Quick test_webs_split_minmax;
          Alcotest.test_case "externals/update bases kept" `Quick
            test_webs_keep_externals_and_update_bases;
          Alcotest.test_case "removes scheduler renames" `Quick
            test_webs_remove_scheduler_renames;
          Alcotest.test_case "pipeline preserves semantics" `Quick
            test_webs_via_pipeline_preserves;
        ] );
      ( "n-branch speculation",
        [ Alcotest.test_case "degree 2 hoists further" `Quick test_degree_two_hoists_further ] );
      ( "duplication",
        [
          Alcotest.test_case "join motion" `Quick test_duplication_motion;
          Alcotest.test_case "blocked cases" `Quick test_duplication_blocked_cases;
          Alcotest.test_case "renamed copy" `Quick test_renamed_duplication;
        ] );
      ( "profile-guided",
        [
          Alcotest.test_case "gating" `Quick test_profile_guided_gating;
          Alcotest.test_case "counts" `Quick test_profile_counts_sum;
        ] );
    ]
