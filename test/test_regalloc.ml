(* Register allocation: the linear scan allocates every workload onto
   real register files of various sizes, spill code is priced and
   correct, the verifier actually rejects broken allocations, and the
   pressure-aware scheduling knob is inert when pressure never meets
   the budget. *)

open Gis_ir
open Gis_machine
open Gis_core
open Gis_sim
open Gis_frontend
open Gis_workloads
module B = Builder
module R = Gis_regalloc.Regalloc

let machine = Machine.rs6k

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.equal (String.sub s i m) sub || go (i + 1)) in
  m = 0 || go 0

let workloads =
  ("minmax", Minmax.source)
  :: List.map
       (fun (p : Spec_proxy.t) -> (p.Spec_proxy.name, p.Spec_proxy.source))
       Spec_proxy.all

let compile_schedule ?regs ?(pressure_aware = false) src =
  Label.reset_fresh_counter ();
  let compiled = Codegen.compile_string src in
  let baseline = Cfg.deep_copy compiled.Codegen.cfg in
  ignore (Pipeline.run machine Config.base baseline);
  let cfg = Cfg.deep_copy compiled.Codegen.cfg in
  let config =
    { Config.speculative with Config.regalloc = true; regs; pressure_aware }
  in
  let stats = Pipeline.run machine config cfg in
  Validate.check_exn cfg;
  (compiled, baseline, cfg, stats)

(* ------------------------------------------------------------------ *)
(* Every workload, several file sizes, full verifier.                  *)
(* ------------------------------------------------------------------ *)

let test_workloads_verify () =
  List.iter
    (fun (name, src) ->
      List.iter
        (fun regs ->
          let compiled, baseline, cfg, stats = compile_schedule ?regs src in
          let input = Gis_driver.Driver.default_input compiled ~elements:64 ~seed:3 in
          match stats.Pipeline.regalloc with
          | None -> Alcotest.failf "%s: pipeline produced no allocation" name
          | Some alloc -> (
              match
                R.verify ?gprs:regs ?fprs:regs ~machine ~baseline
                  ~allocated:cfg alloc input
              with
              | Ok () -> ()
              | Error m ->
                  Alcotest.failf "%s (regs=%a): %s" name
                    Fmt.(option ~none:(any "default") int)
                    regs m))
        [ None; Some 8; Some 6; Some 5 ])
    workloads

(* ------------------------------------------------------------------ *)
(* Spills appear when the file shrinks, with consistent telemetry.     *)
(* ------------------------------------------------------------------ *)

let test_forced_spills () =
  let _, _, roomy_cfg, roomy = compile_schedule Minmax.source in
  let _, _, tight_cfg, tight = compile_schedule ~regs:6 Minmax.source in
  let roomy_alloc = Option.get roomy.Pipeline.regalloc in
  let tight_alloc = Option.get tight.Pipeline.regalloc in
  Alcotest.(check int) "no spills on the full file" 0
    (List.length roomy_alloc.R.spilled);
  Alcotest.(check bool) "tight file spills" true
    (List.length tight_alloc.R.spilled > 0);
  Alcotest.(check int) "one slot per spilled register"
    (List.length tight_alloc.R.spilled)
    tight_alloc.R.slots;
  Alcotest.(check bool) "reloads inserted" true (tight_alloc.R.spill_loads > 0);
  Alcotest.(check bool) "spill stores inserted" true
    (tight_alloc.R.spill_stores > 0);
  Alcotest.(check bool) "spill code grows the procedure" true
    (Cfg.instr_count tight_cfg > Cfg.instr_count roomy_cfg);
  (* No physical register index strays past its budget. *)
  List.iter
    (fun (s : R.cls_stat) ->
      Alcotest.(check bool)
        (Fmt.str "%a used within budget" Reg.pp_cls s.R.cls)
        true
        (s.R.used <= s.R.budget))
    tight_alloc.R.per_class

let test_file_too_small_to_spill () =
  let _, _, cfg, _ = compile_schedule Minmax.source in
  match R.allocate ~gprs:4 ~fprs:4 machine (Cfg.deep_copy cfg) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "4 GPRs cannot hold minmax and spill code"

(* ------------------------------------------------------------------ *)
(* Condition registers spill through an integer transfer scratch; a    *)
(* file with a single CR cannot even hold the scratch and is rejected. *)
(* ------------------------------------------------------------------ *)

let test_cr_overflow_rejected () =
  let g = Reg.Gen.create () in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let c1 = Reg.Gen.fresh g Reg.Cr in
  let c2 = Reg.Gen.fresh g Reg.Cr in
  (* c1 and c2 are both live out of A: two overlapping CR intervals. *)
  let cfg =
    B.func ~reg_gen:g
      [
        ( "A",
          [ B.li ~dst:x 1; B.cmpi ~dst:c1 ~lhs:x 0; B.cmpi ~dst:c2 ~lhs:x 1 ],
          B.bt ~cr:c1 ~cond:Instr.Gt ~taken:"B" ~fallthru:"B" );
        ("B", [], B.bt ~cr:c2 ~cond:Instr.Gt ~taken:"C" ~fallthru:"C");
        ("C", [], Instr.Halt);
      ]
  in
  let one_cr =
    Machine.make ~name:"one-cr" ~fixed_units:1 ~float_units:1 ~branch_units:1
      ~crs:1 ()
  in
  match R.allocate one_cr cfg with
  | Error m ->
      Alcotest.(check bool) "error mentions the condition register" true
        (contains m "condition register")
  | Ok _ -> Alcotest.fail "two live CRs cannot fit one CR field"

(* Three CR values live at once on a 2-CR machine: the scan must spill
   condition registers through the integer transfer scratch (mfcr/mtcr
   moves around spill loads/stores), the branches on spilled CRs must
   reload through the terminator path, and the allocated code must
   still print the same trace as the symbolic baseline. *)
let cr_pressure_cfg () =
  let g = Reg.Gen.create () in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let v = Reg.Gen.fresh g Reg.Gpr in
  let c1 = Reg.Gen.fresh g Reg.Cr in
  let c2 = Reg.Gen.fresh g Reg.Cr in
  let c3 = Reg.Gen.fresh g Reg.Cr in
  let print_block name k next =
    (name, [ B.li ~dst:v k; B.call "print_int" [ v ] ], B.jmp next)
  in
  let cfg =
    B.func ~reg_gen:g
      [
        ( "A",
          [
            B.li ~dst:x 1;
            B.cmpi ~dst:c1 ~lhs:x 0;
            B.cmpi ~dst:c2 ~lhs:x 1;
            B.cmpi ~dst:c3 ~lhs:x 2;
          ],
          B.bt ~cr:c1 ~cond:Instr.Gt ~taken:"T1" ~fallthru:"F1" );
        print_block "T1" 1 "J1";
        print_block "F1" 2 "J1";
        ("J1", [], B.bt ~cr:c2 ~cond:Instr.Eq ~taken:"T2" ~fallthru:"F2");
        print_block "T2" 3 "J2";
        print_block "F2" 4 "J2";
        ("J2", [], B.bt ~cr:c3 ~cond:Instr.Lt ~taken:"T3" ~fallthru:"F3");
        print_block "T3" 5 "End";
        print_block "F3" 6 "End";
        ("End", [], Instr.Halt);
      ]
  in
  cfg

let two_cr_machine =
  Machine.make ~name:"two-cr" ~fixed_units:1 ~float_units:1 ~branch_units:1
    ~crs:2 ()

let test_cr_spill_roundtrip () =
  let cfg = cr_pressure_cfg () in
  let baseline = Cfg.deep_copy cfg in
  let prov = Gis_obs.Provenance.create () in
  match R.allocate ~prov two_cr_machine cfg with
  | Error m -> Alcotest.failf "CR pressure 3 on 2 CRs should spill: %s" m
  | Ok alloc ->
      Validate.check_exn cfg;
      (* The spill-discipline lint must accept the cr<->gpr transfer
         moves as spill code, not flag them as spill.not-mem. *)
      let lint_errors =
        Gis_check.Check.errors
          (Gis_check.Lint.run ~prov ~staged_slots:(R.staged_slots alloc)
             ~stage:"final" cfg)
      in
      Alcotest.(check int)
        (Fmt.str "lint clean: %a" Fmt.(list Gis_check.Diagnostic.pp)
           lint_errors)
        0
        (List.length lint_errors);
      let spilled_crs =
        List.filter (fun (r, _) -> r.Reg.cls = Reg.Cr) alloc.R.spilled
      in
      Alcotest.(check bool) "at least one CR spilled" true
        (spilled_crs <> []);
      Alcotest.(check bool) "cr transfer moves inserted" true
        (alloc.R.cr_spill_moves > 0);
      (* x=1: c1 is Gt (print 1), c2 is Eq (print 3), c3 is Lt (print 5). *)
      (match
         R.verify ~machine:two_cr_machine ~baseline ~allocated:cfg alloc
           Simulator.no_input
       with
      | Ok () -> ()
      | Error m -> Alcotest.failf "CR spill verify: %s" m);
      let out =
        (Simulator.run ?frame:alloc.R.frame two_cr_machine cfg
           (R.remap_input alloc Simulator.no_input))
          .Simulator.output
      in
      Alcotest.(check (list string))
        "allocated trace"
        [ "print_int(1)"; "print_int(3)"; "print_int(5)" ]
        out

(* The same procedure on the full rs6k CR file must not spill any CR —
   the transfer machinery only engages under real pressure. *)
let test_cr_spill_only_under_pressure () =
  let cfg = cr_pressure_cfg () in
  match R.allocate machine cfg with
  | Error m -> Alcotest.failf "roomy CR file: %s" m
  | Ok alloc ->
      Alcotest.(check int) "no cr transfers" 0 alloc.R.cr_spill_moves;
      Alcotest.(check bool) "no CR spilled" true
        (List.for_all (fun (r, _) -> r.Reg.cls <> Reg.Cr) alloc.R.spilled)

(* ------------------------------------------------------------------ *)
(* The verifier rejects a genuinely broken assignment.                 *)
(* ------------------------------------------------------------------ *)

let test_verifier_catches_conflict () =
  let compiled, baseline, cfg, stats = compile_schedule Minmax.source in
  let alloc = Option.get stats.Pipeline.regalloc in
  let input = Gis_driver.Driver.default_input compiled ~elements:64 ~seed:3 in
  (* Find two overlapping GPR intervals and force them into the same
     physical register. *)
  let gprs =
    List.filter (fun iv -> iv.R.reg.Reg.cls = Reg.Gpr) alloc.R.intervals
  in
  let overlapping =
    List.find_map
      (fun a ->
        List.find_map
          (fun b ->
            if
              (not (Reg.equal a.R.reg b.R.reg))
              && a.R.start <= b.R.start && b.R.start <= a.R.stop
            then Some (a.R.reg, b.R.reg)
            else None)
          gprs)
      gprs
  in
  match overlapping with
  | None -> Alcotest.fail "minmax has no overlapping GPR intervals?"
  | Some (ra, rb) -> (
      let pa = List.assoc ra alloc.R.assignment in
      let broken =
        {
          alloc with
          R.assignment =
            List.map
              (fun (r, p) -> if Reg.equal r rb then (r, pa) else (r, p))
              alloc.R.assignment;
        }
      in
      match
        R.verify ~machine ~baseline ~allocated:cfg broken input
      with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "verifier accepted overlapping live ranges")

(* ------------------------------------------------------------------ *)
(* Pressure-aware scheduling is inert when the file is large.          *)
(* ------------------------------------------------------------------ *)

let test_pressure_rule_inert_on_roomy_file () =
  (* With 32 registers per class no candidate's import penalty is ever
     non-zero, so the prepended rule compares all-equal and the
     schedule must be byte-identical — the golden-schedule guarantee
     extends to the flag itself as long as pressure stays under
     budget. *)
  let _, _, off_cfg, _ = compile_schedule Minmax.source in
  let _, _, on_cfg, _ = compile_schedule ~pressure_aware:true Minmax.source in
  Alcotest.(check string) "identical schedule"
    (Fmt.str "%a" Cfg.pp off_cfg)
    (Fmt.str "%a" Cfg.pp on_cfg)

let test_pressure_aware_tight_still_correct () =
  List.iter
    (fun (name, src) ->
      let compiled, baseline, cfg, stats =
        compile_schedule ~regs:6 ~pressure_aware:true src
      in
      let input = Gis_driver.Driver.default_input compiled ~elements:64 ~seed:3 in
      let alloc = Option.get stats.Pipeline.regalloc in
      match
        R.verify ~gprs:6 ~fprs:6 ~machine ~baseline ~allocated:cfg alloc input
      with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s pressure-aware at 6 regs: %s" name m)
    workloads

(* ------------------------------------------------------------------ *)
(* Fuzzer-found reproducers, pinned as corpus fixtures.                *)
(* ------------------------------------------------------------------ *)

module F = Gis_fuzz.Fuzz

(* Each fixture is the shrunk program of a real fuzzer finding from
   before spill storage was isolated / condition registers could spill;
   the header comment in the .tc file records the original failure.
   Replaying the exact failing cell through the full oracle (legality
   checker + allocation verifier + trace comparison against the
   unscheduled reference) must now pass. *)
let corpus_source name =
  let path =
    let candidates =
      [
        Filename.concat "fuzz-corpus" name;
        Filename.concat (Filename.concat ".." "fuzz-corpus") name;
      ]
    in
    match List.find_opt Sys.file_exists candidates with
    | Some p -> p
    | None -> Alcotest.failf "corpus fixture %s not found" name
  in
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  src

let test_corpus_fixture ~file ~seed ~cell () =
  let src = corpus_source file in
  Label.reset_fresh_counter ();
  let compiled = Codegen.compile_string src in
  (* The shrinker evaluates candidates under the input derived from the
     original seed, so the fixture must be replayed with exactly that
     input to hit the original failure path. *)
  let input = Random_prog.random_input ~seed compiled in
  let reference =
    Simulator.observables
      (Simulator.run F.reference_machine compiled.Codegen.cfg input)
  in
  match F.run_cell cell compiled input ~reference with
  | Ok () -> ()
  | Error kind ->
      Alcotest.failf "%s still fails in %a: %s" file F.pp_cell cell
        (F.kind_label kind)

(* Seed 532: out-of-bounds program address arithmetic used to read a
   spill slot (check-failure: verifier observable mismatch). *)
let test_corpus_seed532 =
  test_corpus_fixture ~file:"seed532_base_rs6k_ra.tc" ~seed:532
    ~cell:{ F.level = Config.Local; regalloc = true; machine = Machine.rs6k }

(* Seed 658: CR pressure above the file used to crash with "cannot
   spill condition register". *)
let test_corpus_seed658 =
  test_corpus_fixture ~file:"seed658_speculative_rs6k_ra.tc" ~seed:658
    ~cell:
      { F.level = Config.Speculative; regalloc = true; machine = Machine.rs6k }

(* Seed 1741 (no regalloc involved): the checker's off-path clobber
   rule used to flag a speculated definition that a later hoisted
   definition of the same register killed inside the target block —
   a false positive surfaced by the first default-grammar campaign
   over the isolated spill segment. *)
let test_corpus_seed1741 =
  test_corpus_fixture ~file:"seed1741_speculative_superscalar-2_sym.tc"
    ~seed:1741
    ~cell:
      {
        F.level = Config.Speculative;
        regalloc = false;
        machine = Machine.superscalar ~width:2;
      }

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "gis_regalloc"
    [
      ( "allocation",
        [
          Alcotest.test_case "workloads verify" `Quick test_workloads_verify;
          Alcotest.test_case "forced spills" `Quick test_forced_spills;
          Alcotest.test_case "file too small" `Quick
            test_file_too_small_to_spill;
          Alcotest.test_case "cr overflow rejected" `Quick
            test_cr_overflow_rejected;
          Alcotest.test_case "cr spill roundtrip" `Quick
            test_cr_spill_roundtrip;
          Alcotest.test_case "cr spill only under pressure" `Quick
            test_cr_spill_only_under_pressure;
        ] );
      ( "fuzz corpus",
        [
          Alcotest.test_case "seed 532 (spill address isolation)" `Quick
            test_corpus_seed532;
          Alcotest.test_case "seed 658 (cr spilling)" `Quick
            test_corpus_seed658;
          Alcotest.test_case "seed 1741 (off-path kill false positive)"
            `Quick test_corpus_seed1741;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "catches conflicts" `Quick
            test_verifier_catches_conflict;
        ] );
      ( "pressure-aware scheduling",
        [
          Alcotest.test_case "inert on a roomy file" `Quick
            test_pressure_rule_inert_on_roomy_file;
          Alcotest.test_case "correct on a tight file" `Quick
            test_pressure_aware_tight_still_correct;
        ] );
    ]
