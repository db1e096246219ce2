(* Schedule-quality bounds (Gis_bounds): the lower bound must never
   exceed the achieved issue span, and the accounting identity
   (achieved = lower bound + attributed gap, per region and
   program-wide) must be exact — on the paper's workloads at every
   level, on hand-built programs where each bound kind dominates, and
   on random programs across machines, levels and register
   allocation. *)

open Gis_ir
open Gis_machine
open Gis_core
open Gis_sim
open Gis_frontend
module Bounds = Gis_bounds.Bounds

let rs6k = Machine.rs6k

let bound_of_cfg ~machine ~config cfg0 input =
  let cfg = Cfg.deep_copy cfg0 in
  let stats = Pipeline.run machine config cfg in
  let sched_input, frame =
    match stats.Pipeline.regalloc with
    | Some alloc ->
        ( Gis_regalloc.Regalloc.remap_input alloc input,
          alloc.Gis_regalloc.Regalloc.frame )
    | None -> (input, None)
  in
  let os = Simulator.run ?frame machine cfg sched_input in
  ( Bounds.compute ~machine
      ~halted:(os.Simulator.stop = Simulator.Halted)
      cfg os.Simulator.telemetry,
    os )

let sound (b : Bounds.t) =
  Bounds.identity_holds b && b.Bounds.lower_bound <= b.Bounds.achieved
  && b.Bounds.gap >= 0

(* ---- exact identity on every workload x level ---- *)

let test_workload_identity () =
  List.iter
    (fun (name, (cfg0, input)) ->
      List.iter
        (fun level ->
          let config = Config.of_level level in
          let b, _ = bound_of_cfg ~machine:rs6k ~config cfg0 input in
          let ctx = Fmt.str "%s/%a" name Config.pp_level level in
          Alcotest.(check bool) (ctx ^ " identity") true (Bounds.identity_holds b);
          Alcotest.(check bool)
            (ctx ^ " bound <= achieved") true
            (b.Bounds.lower_bound <= b.Bounds.achieved);
          Alcotest.(check int)
            (ctx ^ " bound = max(cp,res)")
            (max b.Bounds.cp_lb b.Bounds.res_lb)
            b.Bounds.lower_bound;
          Alcotest.(check int)
            (ctx ^ " credits sum to gap") b.Bounds.gap
            (List.fold_left
               (fun acc (c : Bounds.credit) -> acc + c.Bounds.cycles)
               0 b.Bounds.credits))
        [ Config.Local; Config.Useful; Config.Speculative ])
    (Test_support.standard_programs ())

(* ---- per-instruction slack is consistent with the region statics ---- *)

let test_slack_consistent () =
  let programs = Test_support.standard_programs () in
  let _, (cfg0, input) = List.hd programs in
  let b, _ = bound_of_cfg ~machine:rs6k ~config:Config.speculative cfg0 input in
  List.iter
    (fun (r : Bounds.region_bound) ->
      List.iter
        (fun (i : Bounds.instr_bound) ->
          Alcotest.(check bool)
            "slack = lstart - estart" true
            (i.Bounds.slack = i.Bounds.lstart - i.Bounds.estart);
          Alcotest.(check bool) "slack >= 0" true (i.Bounds.slack >= 0);
          Alcotest.(check (option int))
            "slack_of_uid agrees" (Some i.Bounds.slack)
            (Bounds.slack_of_uid b i.Bounds.uid))
        r.Bounds.instrs;
      List.iter
        (fun (e : Bounds.binding_edge) ->
          Alcotest.(check bool)
            "edge rank bounded by region cp" true
            (e.Bounds.e_rank <= r.Bounds.static_cp_lb))
        r.Bounds.binding;
      Alcotest.(check bool)
        "a zero-slack instruction exists" true
        (r.Bounds.instrs = []
        || List.exists (fun (i : Bounds.instr_bound) -> i.Bounds.slack = 0)
             r.Bounds.instrs))
    b.Bounds.regions

(* ---- hand-built programs where each bound kind dominates ---- *)

(* A pointer-chasing chain of dependent loads: the weighted dependence
   chain dwarfs what unit capacity alone would force. *)
let chain_source =
  {|
int a[16];
int h;
h = 0;
h = a[h];
h = a[h];
h = a[h];
h = a[h];
h = a[h];
h = a[h];
h = a[h];
h = a[h];
h = a[h];
h = a[h];
h = a[h];
h = a[h];
print(h);
|}

(* Independent adds off the same operand: no chain to speak of, but
   every one of them needs the single fixed-point unit for a cycle. *)
let independent_source =
  {|
int n;
int a; int b; int c; int d; int e; int f; int g; int h;
int i; int j; int k; int l; int m; int o; int p; int q;
a = n + 1; b = n + 2; c = n + 3; d = n + 4;
e = n + 5; f = n + 6; g = n + 7; h = n + 8;
i = n + 9; j = n + 10; k = n + 11; l = n + 12;
m = n + 13; o = n + 14; p = n + 15; q = n + 16;
print(q);
|}

let compile_and_bound source =
  let compiled = Codegen.compile_string source in
  bound_of_cfg ~machine:rs6k ~config:Config.base compiled.Codegen.cfg
    Simulator.no_input

let test_cp_dominates () =
  let b, _ = compile_and_bound chain_source in
  Alcotest.(check bool) "identity" true (sound b);
  Alcotest.(check bool)
    (Fmt.str "chain bound dominates (cp %d > res %d)" b.Bounds.cp_lb
       b.Bounds.res_lb)
    true
    (b.Bounds.cp_lb > b.Bounds.res_lb);
  Alcotest.(check int) "lower bound is the chain bound" b.Bounds.cp_lb
    b.Bounds.lower_bound

let test_res_dominates () =
  let b, _ = compile_and_bound independent_source in
  Alcotest.(check bool) "identity" true (sound b);
  Alcotest.(check bool)
    (Fmt.str "resource bound dominates (res %d > cp %d)" b.Bounds.res_lb
       b.Bounds.cp_lb)
    true
    (b.Bounds.res_lb > b.Bounds.cp_lb);
  Alcotest.(check int) "lower bound is the resource bound" b.Bounds.res_lb
    b.Bounds.lower_bound

(* ---- per-run counts and JSON shape ---- *)

let test_export () =
  let _, (cfg0, input) = List.hd (Test_support.standard_programs ()) in
  let b, _ = bound_of_cfg ~machine:rs6k ~config:Config.speculative cfg0 input in
  let stats = Pipeline.run rs6k Config.speculative (Cfg.deep_copy cfg0) in
  let counts = Gis_driver.Driver.run_counts ~bounds:b ~events:[] stats in
  let gauge name =
    match List.assoc_opt name counts with
    | Some (Gis_obs.Counts.Gauge v) -> int_of_float v
    | _ -> Alcotest.failf "gauge %s missing" name
  in
  Alcotest.(check int) "achieved gauge" b.Bounds.achieved
    (gauge "bound.achieved_cycles");
  Alcotest.(check int) "lower gauge" b.Bounds.lower_bound
    (gauge "bound.lower_cycles");
  Alcotest.(check int) "gap gauge" b.Bounds.gap (gauge "bound.gap_cycles");
  match Bounds.to_json b with
  | Gis_obs.Json.Obj fields ->
      List.iter
        (fun k ->
          Alcotest.(check bool) ("json has " ^ k) true (List.mem_assoc k fields))
        [
          "achieved_cycles"; "cp_lower_cycles"; "res_lower_cycles";
          "lower_bound_cycles"; "gap_cycles"; "credits"; "identity_exact";
          "regions";
        ]
  | _ -> Alcotest.fail "bound json is not an object"

(* ---- the per-rule tie-break counts ---- *)

let rule_decides config =
  let _, (cfg0, _) = List.hd (Test_support.standard_programs ()) in
  let cfg = Cfg.deep_copy cfg0 in
  Label.reset_fresh_counter ();
  let stats = Pipeline.run rs6k config cfg in
  let reports = stats.Pipeline.pass1 @ stats.Pipeline.pass2 in
  ( Asm.print cfg,
    reports,
    List.fold_left
      (fun acc (k, v) ->
        match v with
        | Gis_obs.Counts.Counter n
          when String.starts_with ~prefix:"priority.rule_decides_total." k ->
            acc + n
        | _ -> acc)
      0 (Global_sched.counts reports) )

let test_rule_decides_counters () =
  let prov = Gis_obs.Provenance.create () in
  let _, _, total =
    rule_decides { Config.speculative with Config.prov = Some prov }
  in
  Alcotest.(check bool)
    (Fmt.str "some ready-queue tie was broken (%d recorded)" total)
    true (total > 0)

(* Without provenance no pick is tallied, even with a sink attached (as
   the batch driver attaches one): every report's tally is empty, and
   the schedule is the one the tallying run produced. *)
let test_no_tally_without_prov () =
  let sink, events = Gis_obs.Sink.memory () in
  let code, reports, total =
    rule_decides { Config.speculative with Config.obs = sink }
  in
  Alcotest.(check bool) "events were emitted" true (events () <> []);
  Alcotest.(check bool) "no region tallied" true
    (List.for_all
       (fun (r : Global_sched.region_report) ->
         r.Global_sched.rule_decides = [||])
       reports);
  Alcotest.(check int) "no decision counted" 0 total;
  let prov = Gis_obs.Provenance.create () in
  let tallied, _, _ =
    rule_decides { Config.speculative with Config.prov = Some prov }
  in
  Alcotest.(check string) "same schedule as the tallying run" tallied code

(* ---- QCheck soundness across levels, machines, regalloc ---- *)

let prop_sound ~machine ~config seed =
  let compiled, input = Test_support.baseline_compiled seed in
  match bound_of_cfg ~machine ~config compiled.Codegen.cfg input with
  | exception Gis_regalloc.Regalloc.Infeasible _ -> true
  | b, _ -> sound b

let qtest name count prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count QCheck.(int_range 1 1_000_000) prop)

let () =
  Alcotest.run "bounds"
    [
      ( "identity",
        [
          Alcotest.test_case "workloads x levels" `Quick test_workload_identity;
          Alcotest.test_case "slack consistent" `Quick test_slack_consistent;
          Alcotest.test_case "chain bound dominates" `Quick test_cp_dominates;
          Alcotest.test_case "resource bound dominates" `Quick
            test_res_dominates;
          Alcotest.test_case "metrics and json export" `Quick test_export;
          Alcotest.test_case "tie-break rule counters" `Quick
            test_rule_decides_counters;
          Alcotest.test_case "no tally without provenance" `Quick
            test_no_tally_without_prov;
        ] );
      ( "soundness",
        [
          qtest "random local rs6k" 40
            (prop_sound ~machine:rs6k ~config:Config.base);
          qtest "random useful rs6k" 40
            (prop_sound ~machine:rs6k ~config:Config.useful_only);
          qtest "random speculative rs6k" 40
            (prop_sound ~machine:rs6k ~config:Config.speculative);
          qtest "random speculative detailed machine" 25
            (prop_sound ~machine:Machine.rs6k_detailed
               ~config:Config.speculative);
          qtest "random speculative width 4" 25
            (prop_sound ~machine:(Machine.superscalar ~width:4)
               ~config:Config.speculative);
          qtest "random speculative + regalloc" 25
            (prop_sound ~machine:rs6k
               ~config:{ Config.speculative with Config.regalloc = true });
        ] );
    ]
