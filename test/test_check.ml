(* Static schedule-legality verification: the checker certifies every
   pipeline output over the workloads at every level (no simulator
   involved), rejects hand-mutated schedules with precise diagnostics,
   the exit-code table is pinned, and the linter is clean over the
   example programs (golden file). *)

open Gis_ir
open Gis_machine
open Gis_core
open Gis_frontend
open Gis_workloads
module B = Builder
module C = Gis_check.Check
module D = Gis_check.Diagnostic
module L = Gis_check.Lint

let machine = Machine.rs6k

let workloads =
  ("minmax", Minmax.source)
  :: List.map
       (fun (p : Spec_proxy.t) -> (p.Spec_proxy.name, p.Spec_proxy.source))
       Spec_proxy.all

let levels =
  [
    ("local", Config.base);
    ("useful", Config.useful_only);
    ("speculative", Config.speculative);
  ]

(* Run the pipeline with the verification hook installed; return every
   diagnostic the checker produced (stage transitions + final lint). *)
let check_run ?regs ?(regalloc = false) config src =
  Label.reset_fresh_counter ();
  let compiled = Codegen.compile_string src in
  let cfg = compiled.Codegen.cfg in
  let prov = Gis_obs.Provenance.create () in
  let collector =
    C.collector ~prov
      ~max_speculation_degree:config.Config.max_speculation_degree ()
  in
  let config =
    {
      config with
      Config.regalloc;
      regs;
      prov = Some prov;
      check = Some (C.hook collector);
    }
  in
  let stats = Pipeline.run machine config cfg in
  let staged_slots =
    match stats.Pipeline.regalloc with
    | Some alloc -> Gis_regalloc.Regalloc.staged_slots alloc
    | None -> []
  in
  let final = L.run ~prov ~staged_slots ~stage:"final" cfg in
  (List.concat_map snd (C.diagnostics collector) @ final, C.stats collector)

let pp_diags ds = Fmt.str "%a" Fmt.(list ~sep:cut D.pp) ds

let test_accepts_workloads () =
  List.iter
    (fun (name, src) ->
      List.iter
        (fun (lname, config) ->
          let diags, stats = check_run config src in
          Alcotest.(check int)
            (Fmt.str "%s/%s errors: %s" name lname (pp_diags diags))
            0
            (List.length (C.errors diags));
          if config.Config.level <> Config.Local then
            Alcotest.(check bool)
              (Fmt.str "%s/%s checked some dependences" name lname)
              true (stats.C.deps_checked > 0))
        levels)
    workloads

let test_accepts_regalloc () =
  List.iter
    (fun (name, src) ->
      let diags, stats = check_run ~regalloc:true ~regs:6 Config.speculative src in
      Alcotest.(check int)
        (Fmt.str "%s regalloc/6 errors: %s" name (pp_diags diags))
        0
        (List.length (C.errors diags));
      Alcotest.(check int)
        (Fmt.str "%s regalloc stage ran" name)
        6 stats.C.stages)
    workloads

let has_rule rule ds = List.exists (fun d -> String.equal d.D.rule rule) ds

(* ---- one index per CFG version ---- *)

(* [Pipeline.run] hands each stage's post snapshot back as the next
   stage's pre, and the collector then reuses that snapshot's index.
   Over the pinned programs the collector's findings and counters must
   equal an independent check of every stage from scratch. *)
let collector_matches_fresh_checks ~what config cfg0 =
  let prov = Gis_obs.Provenance.create () in
  let max_speculation_degree = config.Config.max_speculation_degree in
  let reusing = C.collector ~prov ~max_speculation_degree () in
  let fresh = ref [] and stats = ref [] in
  let hook ~stage ~pre ~post =
    C.hook reusing ~stage ~pre ~post;
    fresh :=
      (stage, C.check_stage ~prov ~max_speculation_degree ~stage ~pre ~post ())
      :: !fresh;
    let alone = C.collector ~prov ~max_speculation_degree () in
    C.hook alone ~stage ~pre ~post;
    stats := C.stats alone :: !stats
  in
  ignore
    (Pipeline.run machine
       { config with Config.prov = Some prov; check = Some hook }
       (Cfg.deep_copy cfg0));
  Alcotest.(check bool)
    (what ^ ": diagnostics")
    true
    (C.diagnostics reusing = List.rev !fresh);
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 !stats in
  Alcotest.(check (list int))
    (what ^ ": stats")
    [
      sum (fun s -> s.C.stages);
      sum (fun s -> s.C.deps_checked);
      sum (fun s -> s.C.motions_classified);
    ]
    (let s = C.stats reusing in
     [ s.C.stages; s.C.deps_checked; s.C.motions_classified ]);
  List.concat_map snd (C.diagnostics reusing)

let test_collector_reuse () =
  let programs = Lazy.force Test_support.pinned_programs in
  let configs =
    [
      ("speculative", Config.speculative);
      ( "regalloc",
        { Config.speculative with Config.regalloc = true; regs = Some 8 } );
      ( "duplication",
        { Config.speculative with Config.allow_duplication = true } );
    ]
  in
  List.iteri
    (fun k cfg0 ->
      List.iter
        (fun (name, config) ->
          ignore
            (collector_matches_fresh_checks
               ~what:(Fmt.str "program %d, %s" k name)
               config cfg0))
        configs)
    programs;
  (* A scheduler that drops its memory edges makes violations, so the
     equality above also covers the reported order of
     [dependence.violated] findings. *)
  Gis_ddg.Ddg.drop_mem_edges_for_testing := true;
  let violations =
    Fun.protect
      ~finally:(fun () -> Gis_ddg.Ddg.drop_mem_edges_for_testing := false)
      (fun () ->
        List.concat
          (List.mapi
             (fun k cfg0 ->
               collector_matches_fresh_checks
                 ~what:(Fmt.str "program %d, dropped mem edges" k)
                 Config.speculative cfg0)
             programs))
  in
  Alcotest.(check bool) "dropped mem edges are caught" true
    (has_rule "dependence.violated" violations)

(* ---- mutation rejection ---- *)

let fresh_gprs n =
  let g = Reg.Gen.create () in
  (g, List.init n (fun _ -> Reg.Gen.fresh g Reg.Gpr))

(* Swapping two flow-dependent instructions inside a block must be
   caught by the local-stage check. *)
let test_rejects_swap () =
  let g, regs = fresh_gprs 3 in
  let r1, r2 = (List.nth regs 0, List.nth regs 1) in
  let pre =
    B.func ~reg_gen:g
      [ ("L.entry", [ B.li ~dst:r1 7; B.addi ~dst:r2 ~lhs:r1 1 ], B.halt) ]
  in
  let post = Cfg.deep_copy pre in
  let b = Cfg.block_of_label post "L.entry" in
  let i0 = Gis_util.Vec.get b.Block.body 0 in
  let i1 = Gis_util.Vec.get b.Block.body 1 in
  Gis_util.Vec.set b.Block.body 0 i1;
  Gis_util.Vec.set b.Block.body 1 i0;
  let ds = C.check_stage ~stage:"local" ~pre ~post () in
  Alcotest.(check bool)
    (Fmt.str "flow-dep swap rejected: %s" (pp_diags ds))
    true
    (has_rule "dependence.violated" (C.errors ds))

(* Hoisting a store above its guarding branch is the paper's canonical
   illegal speculation; the checker must name the store's uid. *)
let test_rejects_store_speculation () =
  let g, regs = fresh_gprs 3 in
  let r1, rb, c0 =
    (List.nth regs 0, List.nth regs 1, Reg.Gen.fresh g Reg.Cr)
  in
  let pre =
    B.func ~reg_gen:g
      [
        ( "L.entry",
          [ B.li ~dst:r1 7; B.li ~dst:rb 100; B.cmpi ~dst:c0 ~lhs:r1 0 ],
          B.bt ~cr:c0 ~cond:Instr.Gt ~taken:"L.then" ~fallthru:"L.join" );
        ("L.then", [ B.store ~src:r1 ~base:rb ~offset:0 ], B.jmp "L.join");
        ("L.join", [], B.halt);
      ]
  in
  let post = Cfg.deep_copy pre in
  let bthen = Cfg.block_of_label post "L.then" in
  let store = List.hd (Gis_util.Vec.to_list bthen.Block.body) in
  ignore (Block.remove_by_uid bthen ~uid:(Instr.uid store));
  let bentry = Cfg.block_of_label post "L.entry" in
  Gis_util.Vec.push bentry.Block.body store;
  let ds = C.check_stage ~stage:"global-pass1" ~pre ~post () in
  let errs = C.errors ds in
  Alcotest.(check bool)
    (Fmt.str "store speculation rejected: %s" (pp_diags ds))
    true
    (has_rule "speculation.store" errs);
  Alcotest.(check bool) "diagnostic names the store's uid" true
    (List.exists
       (fun d -> d.D.uid = Some (Instr.uid store))
       errs)

(* Hoist the first body instruction of [from] onto the end of [to_]'s
   body — the physical shape of a speculative upward motion. *)
let hoist post ~from ~to_ =
  let bsrc = Cfg.block_of_label post from in
  let inst = List.hd (Gis_util.Vec.to_list bsrc.Block.body) in
  ignore (Block.remove_by_uid bsrc ~uid:(Instr.uid inst));
  let bdst = Cfg.block_of_label post to_ in
  Gis_util.Vec.push bdst.Block.body inst;
  inst

(* A speculated definition whose value survives to the target block's
   exit while the register is live into the off-path successor is the
   classic illegal clobber; the checker must flag it. *)
let test_rejects_off_path_clobber () =
  let g, regs = fresh_gprs 4 in
  let r1, r9, r3, c0 =
    ( List.nth regs 0,
      List.nth regs 1,
      List.nth regs 2,
      Reg.Gen.fresh g Reg.Cr )
  in
  let pre =
    B.func ~reg_gen:g
      [
        ( "L.entry",
          [ B.li ~dst:r1 7; B.li ~dst:r9 1; B.cmpi ~dst:c0 ~lhs:r9 0 ],
          B.bt ~cr:c0 ~cond:Instr.Gt ~taken:"L.then" ~fallthru:"L.else" );
        ("L.then", [ B.li ~dst:r1 0 ], B.jmp "L.join");
        ("L.else", [ B.addi ~dst:r3 ~lhs:r1 1 ], B.jmp "L.join");
        ("L.join", [], B.halt);
      ]
  in
  let post = Cfg.deep_copy pre in
  let moved = hoist post ~from:"L.then" ~to_:"L.entry" in
  let ds = C.check_stage ~stage:"global-pass1" ~pre ~post () in
  let errs = C.errors ds in
  Alcotest.(check bool)
    (Fmt.str "off-path clobber rejected: %s" (pp_diags ds))
    true
    (has_rule "speculation.live-off-path" errs);
  Alcotest.(check bool) "diagnostic names the moved uid" true
    (List.exists (fun d -> d.D.uid = Some (Instr.uid moved)) errs)

(* The counterpart from fuzz seed 1741: when a later hoisted definition
   of the same register kills the speculated one inside the target
   block, the dead value never escapes and the motion is legal — the
   killer itself came from a block every off-path successor reaches, so
   neither motion may be flagged. *)
let test_accepts_killed_off_path_def () =
  let g, regs = fresh_gprs 4 in
  let r1, r9, r3, c0 =
    ( List.nth regs 0,
      List.nth regs 1,
      List.nth regs 2,
      Reg.Gen.fresh g Reg.Cr )
  in
  let pre =
    B.func ~reg_gen:g
      [
        ( "L.entry",
          [ B.li ~dst:r9 1; B.cmpi ~dst:c0 ~lhs:r9 0 ],
          B.bt ~cr:c0 ~cond:Instr.Gt ~taken:"L.then" ~fallthru:"L.skip" );
        ("L.then", [ B.li ~dst:r1 0 ], B.jmp "L.tail");
        ("L.skip", [], B.jmp "L.tail");
        ("L.tail", [ B.li ~dst:r1 5; B.addi ~dst:r3 ~lhs:r1 1 ], B.halt);
      ]
  in
  let post = Cfg.deep_copy pre in
  let speculated = hoist post ~from:"L.then" ~to_:"L.entry" in
  let killer = hoist post ~from:"L.tail" ~to_:"L.entry" in
  Alcotest.(check bool) "killer defines the same register" true
    (List.exists
       (fun r -> List.exists (Reg.equal r) (Instr.defs killer))
       (Instr.defs speculated));
  let ds = C.check_stage ~stage:"global-pass1" ~pre ~post () in
  Alcotest.(check bool)
    (Fmt.str "killed speculative def accepted: %s" (pp_diags ds))
    true
    (not (has_rule "speculation.live-off-path" (C.errors ds)))

(* Deleting an instruction must be caught as a conservation failure. *)
let test_rejects_deletion () =
  let g, regs = fresh_gprs 2 in
  let r1, r2 = (List.nth regs 0, List.nth regs 1) in
  let pre =
    B.func ~reg_gen:g
      [ ("L.entry", [ B.li ~dst:r1 7; B.li ~dst:r2 8 ], B.halt) ]
  in
  let post = Cfg.deep_copy pre in
  let b = Cfg.block_of_label post "L.entry" in
  let victim = Gis_util.Vec.get b.Block.body 1 in
  ignore (Block.remove_by_uid b ~uid:(Instr.uid victim));
  let ds = C.check_stage ~stage:"global-pass2" ~pre ~post () in
  Alcotest.(check bool)
    (Fmt.str "deletion rejected: %s" (pp_diags ds))
    true
    (has_rule "conservation.removed" (C.errors ds))

(* ---- memory disambiguation: the checker is independent ---- *)

(* The fault-injection hook makes the scheduler-side analysis fabricate
   base deltas it cannot prove. The checker's own re-implementation
   ([Addrcheck]) must not be fooled: it still reconstructs the Mem
   dependence from the stage's input, and a schedule that exploited the
   over-claim is rejected. *)
let test_checker_independent_of_overclaim () =
  let g = Reg.Gen.create () in
  let b1 = Reg.Gen.fresh g Reg.Gpr in
  let b2 = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let pre =
    B.func ~reg_gen:g
      [
        ( "L.entry",
          [
            B.li ~dst:x 7;
            B.store ~src:x ~base:b1 ~offset:0;
            B.store ~src:x ~base:b2 ~offset:8;
          ],
          B.halt );
      ]
  in
  let body = (Cfg.block_of_label pre "L.entry").Block.body in
  let s1 = Instr.uid (Gis_util.Vec.get body 1) in
  let s2 = Instr.uid (Gis_util.Vec.get body 2) in
  Gis_analysis.Symaddr.overclaim_for_testing := true;
  Fun.protect
    ~finally:(fun () -> Gis_analysis.Symaddr.overclaim_for_testing := false)
    (fun () ->
      (* Scheduler side swallows the over-claim and drops the edge... *)
      let sym = Gis_analysis.Symaddr.compute pre in
      let ddg =
        Gis_ddg.Ddg.build_single_block ~sym machine
          (Cfg.block_of_label pre "L.entry")
      in
      Alcotest.(check int) "scheduler side pruned the false pair" 1
        (Gis_ddg.Ddg.mem_pruned ddg);
      (* ...the checker still requires the order... *)
      let deps = Gis_check.Deps.reconstruct (Gis_check.Deps.of_cfg pre) in
      Alcotest.(check bool) "checker reconstructs the Mem dependence" true
        (List.exists
           (fun (d : Gis_check.Deps.dep) ->
             d.Gis_check.Deps.d_src = s1
             && d.Gis_check.Deps.d_dst = s2
             && d.Gis_check.Deps.d_kind = Gis_check.Deps.Mem)
           deps);
      (* ...and a schedule built on it is rejected. *)
      let post = Cfg.deep_copy pre in
      let b = Cfg.block_of_label post "L.entry" in
      let i1 = Gis_util.Vec.get b.Block.body 1 in
      let i2 = Gis_util.Vec.get b.Block.body 2 in
      Gis_util.Vec.set b.Block.body 1 i2;
      Gis_util.Vec.set b.Block.body 2 i1;
      let ds = C.check_stage ~stage:"local" ~pre ~post () in
      Alcotest.(check bool)
        (Fmt.str "over-claimed reorder rejected: %s" (pp_diags ds))
        true
        (has_rule "dependence.violated" (C.errors ds)))

(* Legitimately pruned reorders pass: the checker re-proves the
   disjointness on its own. *)
let test_checker_reproves_pruned_reorder () =
  let g = Reg.Gen.create () in
  let base = Reg.Gen.fresh g Reg.Gpr in
  let b2 = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let pre =
    B.func ~reg_gen:g
      [
        ( "L.entry",
          [
            B.li ~dst:x 7;
            B.addi ~dst:b2 ~lhs:base 8;
            B.store ~src:x ~base ~offset:0;
            B.store ~src:x ~base:b2 ~offset:0;
          ],
          B.halt );
      ]
  in
  (* Swap the stores: different base registers, so the syntactic rule
     alone must keep them ordered — only the affine proof (b2 = base+8,
     bytes [0,4) vs [8,12)) makes the reorder legal, and the checker
     must find that proof on its own. *)
  let post = Cfg.deep_copy pre in
  let b = Cfg.block_of_label post "L.entry" in
  let st0 = Gis_util.Vec.get b.Block.body 2 in
  let st8 = Gis_util.Vec.get b.Block.body 3 in
  Gis_util.Vec.set b.Block.body 2 st8;
  Gis_util.Vec.set b.Block.body 3 st0;
  let ds = C.check_stage ~stage:"local" ~pre ~post () in
  Alcotest.(check int)
    (Fmt.str "disjoint-store reorder accepted: %s" (pp_diags ds))
    0
    (List.length (C.errors ds))

(* ---- lint.dead-store ---- *)

let test_dead_store_lint () =
  let run_lint blocks =
    let ds = L.run (B.func blocks) in
    (has_rule "lint.dead-store" ds, ds)
  in
  let mk body =
    let g = Reg.Gen.create () in
    let base = Reg.Gen.fresh g Reg.Gpr in
    let b2 = Reg.Gen.fresh g Reg.Gpr in
    let x = Reg.Gen.fresh g Reg.Gpr in
    let y = Reg.Gen.fresh g Reg.Gpr in
    let f = Reg.Gen.fresh g Reg.Fpr in
    [ ("L.entry", body ~base ~b2 ~x ~y ~f, B.halt) ]
  in
  let fired, ds =
    run_lint
      (mk (fun ~base ~b2:_ ~x ~y:_ ~f:_ ->
           [
             B.li ~dst:x 1;
             B.store ~src:x ~base ~offset:0;
             B.store ~src:x ~base ~offset:0;
           ]))
  in
  Alcotest.(check bool)
    (Fmt.str "overwritten store flagged: %s" (pp_diags ds))
    true fired;
  (* The killer must cover the victim through a provable base shift. *)
  let fired, ds =
    run_lint
      (mk (fun ~base ~b2:_ ~x ~y:_ ~f:_ ->
           [
             B.li ~dst:x 1;
             B.store ~src:x ~base ~offset:4;
             B.addi ~dst:base ~lhs:base 4;
             B.store ~src:x ~base ~offset:0;
           ]))
  in
  Alcotest.(check bool)
    (Fmt.str "covered through base shift: %s" (pp_diags ds))
    true fired;
  (* An intervening possibly-aliasing load reads the store. *)
  let fired, _ =
    run_lint
      (mk (fun ~base ~b2:_ ~x ~y ~f:_ ->
           [
             B.li ~dst:x 1;
             B.store ~src:x ~base ~offset:0;
             B.load ~dst:y ~base ~offset:0;
             B.store ~src:x ~base ~offset:0;
           ]))
  in
  Alcotest.(check bool) "intervening load absolves" false fired;
  (* A call may read anything. *)
  let fired, _ =
    run_lint
      (mk (fun ~base ~b2:_ ~x ~y:_ ~f:_ ->
           [
             B.li ~dst:x 1;
             B.store ~src:x ~base ~offset:0;
             B.call "f" [];
             B.store ~src:x ~base ~offset:0;
           ]))
  in
  Alcotest.(check bool) "intervening call absolves" false fired;
  (* Different families never interact. *)
  let fired, _ =
    run_lint
      (mk (fun ~base ~b2:_ ~x ~y:_ ~f ->
           [
             B.li ~dst:x 1;
             B.store ~src:f ~base ~offset:0;
             B.store ~src:x ~base ~offset:0;
           ]))
  in
  Alcotest.(check bool) "cross-family store is no kill" false fired;
  (* Different base registers route to different spill segments even
     at equal numeric addresses, so they must not pair up. *)
  let fired, _ =
    run_lint
      (mk (fun ~base ~b2 ~x ~y:_ ~f:_ ->
           [
             B.li ~dst:x 1;
             B.li ~dst:base 64;
             B.li ~dst:b2 64;
             B.store ~src:x ~base ~offset:0;
             B.store ~src:x ~base:b2 ~offset:0;
           ]))
  in
  Alcotest.(check bool) "different base registers are exempt" false fired

(* ---- exit codes: single source of truth, pinned ---- *)

let test_exit_codes () =
  let module E = Gis_driver.Exit_codes in
  Alcotest.(check (list int)) "table" [ 0; 1; 2; 3; 4; 5; 6; 7 ] E.all;
  Alcotest.(check int) "ok" 0 E.ok;
  Alcotest.(check int) "compile" 1 E.compile_error;
  Alcotest.(check int) "usage" 2 E.usage_error;
  Alcotest.(check int) "verification" 3 E.verification_failure;
  Alcotest.(check int) "batch partial" 4 E.batch_partial_failure;
  Alcotest.(check int) "batch timeout" 5 E.batch_timeout_only;
  Alcotest.(check int) "fuzz finding" 6 E.fuzz_finding;
  Alcotest.(check int) "regalloc infeasible" 7 E.regalloc_infeasible;
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Fmt.str "code %d described" c)
        false
        (String.equal (E.describe c) "unknown"))
    E.all

(* A branch to a missing label in an unreachable block is reported as
   one [cfg.malformed-target] error; the rules that read edges, which
   would fail to decode it, are skipped. *)
let test_lint_missing_target () =
  let cfg =
    B.func [ ("A", [], B.halt); ("D", [], B.jmp "NOWHERE") ]
  in
  match L.run cfg with
  | ds ->
      Alcotest.(check (list string)) "one malformed-target error"
        [ "cfg.malformed-target" ]
        (List.map (fun d -> d.D.rule) ds);
      Alcotest.(check int) "an error" 1 (List.length (C.errors ds))
  | exception e -> Alcotest.failf "lint raised %s" (Printexc.to_string e)

(* ---- golden lint over the example programs ---- *)

let golden_path =
  if Sys.file_exists "golden_lint.txt" then "golden_lint.txt"
  else "test/golden_lint.txt"

let lint_report () =
  String.concat ""
    (List.map
       (fun (name, src) ->
         Label.reset_fresh_counter ();
         let compiled = Codegen.compile_string src in
         match L.run ~stage:name compiled.Codegen.cfg with
         | [] -> Fmt.str "%s: clean\n" name
         | ds -> Fmt.str "%a\n" Fmt.(list ~sep:cut D.pp) ds)
       workloads)

let test_golden_lint () =
  let ic = open_in golden_path in
  let n = in_channel_length ic in
  let golden = really_input_string ic n in
  close_in ic;
  Alcotest.(check string) "lint diagnostics match golden file" golden
    (lint_report ())

(* ---- property: the checker accepts every pipeline output ---- *)

let prop_accepts config seed =
  let compiled = Random_prog.generate_compiled ~seed in
  let cfg = compiled.Codegen.cfg in
  let prov = Gis_obs.Provenance.create () in
  let collector =
    C.collector ~prov
      ~max_speculation_degree:config.Config.max_speculation_degree ()
  in
  let config =
    { config with Config.prov = Some prov; check = Some (C.hook collector) }
  in
  ignore (Pipeline.run machine config cfg);
  let diags = List.concat_map snd (C.diagnostics collector) in
  match C.errors diags with
  | [] -> true
  | es ->
      QCheck.Test.fail_reportf "checker rejected seed %d:@.%s" seed
        (pp_diags es)

(* Words allocated by [f ()]: [Gc.minor_words] is exact between minor
   collections, where [Gc.quick_stat]'s count is not, and [Gc.counters]
   adds what went straight to the major heap. *)
let words f =
  let total () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = total () in
  f ();
  total () -. before

(* Reaching definitions and a whole stage check number registers
   densely: a program naming [r1000000] allocates as many words as the
   same program naming [r1], where an array sized by the register's id
   would cost a million words. *)
let test_sparse_register_ids () =
  let program id =
    let g = Reg.Gen.create () in
    let r = Reg.Gen.reserve g Reg.Gpr id in
    let c = Reg.Gen.fresh g Reg.Cr in
    B.func ~reg_gen:g
      [
        ("E", [ B.li ~dst:r 7; B.cmpi ~dst:c ~lhs:r 3 ],
          B.bt ~cr:c ~cond:Instr.Gt ~taken:"T" ~fallthru:"F");
        ("T", [ B.addi ~dst:r ~lhs:r 1 ], B.jmp "X");
        ("F", [ B.addi ~dst:r ~lhs:r 2 ], B.jmp "X");
        ("X", [ B.call "print_int" [ r ] ], Instr.Halt);
      ]
  in
  let cost id =
    let cfg = program id in
    let post = Cfg.deep_copy cfg in
    ( words (fun () -> ignore (Gis_analysis.Reaching.compute cfg)),
      words (fun () ->
          ignore (C.check_stage ~stage:"global-pass1" ~pre:cfg ~post ())) )
  in
  let near_reaching, near_check = cost 1 in
  let far_reaching, far_check = cost 1_000_000 in
  Alcotest.(check (float 0.)) "Reaching.compute words" near_reaching
    far_reaching;
  Alcotest.(check (float 0.)) "check_stage words" near_check far_check

let qtest name count prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count QCheck.(int_range 1 1_000_000) prop)

let () =
  Alcotest.run "gis_check"
    [
      ( "acceptance",
        [
          Alcotest.test_case "workloads x levels" `Quick test_accepts_workloads;
          Alcotest.test_case "workloads under regalloc" `Quick
            test_accepts_regalloc;
          Alcotest.test_case "collector reuse = fresh check per stage" `Quick
            test_collector_reuse;
          Alcotest.test_case "sparse register ids" `Quick
            test_sparse_register_ids;
        ] );
      ( "rejection",
        [
          Alcotest.test_case "intra-block dependence swap" `Quick
            test_rejects_swap;
          Alcotest.test_case "store hoisted above its branch" `Quick
            test_rejects_store_speculation;
          Alcotest.test_case "off-path live clobber" `Quick
            test_rejects_off_path_clobber;
          Alcotest.test_case "killed off-path def accepted" `Quick
            test_accepts_killed_off_path_def;
          Alcotest.test_case "instruction deleted" `Quick test_rejects_deletion;
        ] );
      ( "disambiguation",
        [
          Alcotest.test_case "checker independent of over-claim" `Quick
            test_checker_independent_of_overclaim;
          Alcotest.test_case "checker re-proves pruned reorder" `Quick
            test_checker_reproves_pruned_reorder;
          Alcotest.test_case "dead-store lint" `Quick test_dead_store_lint;
        ] );
      ( "exit codes",
        [ Alcotest.test_case "pinned table" `Quick test_exit_codes ] );
      ( "lint golden",
        [
          Alcotest.test_case "examples are clean" `Quick test_golden_lint;
          Alcotest.test_case "missing branch target" `Quick
            test_lint_missing_target;
        ] );
      ( "properties",
        [
          qtest "random programs accepted (useful)" 40
            (prop_accepts Config.useful_only);
          qtest "random programs accepted (speculative)" 60
            (prop_accepts Config.speculative);
          qtest "random programs accepted (no transforms)" 40
            (prop_accepts
               {
                 Config.speculative with
                 Config.unroll_small_loops = false;
                 rotate_small_loops = false;
               });
        ] );
    ]
