(* Property-based differential testing: the scheduler, at every level and
   under every configuration knob, must preserve the observable
   behaviour (output trace, final memory, termination) of randomly
   generated structured programs. This is the repo's strongest
   correctness evidence: each case compiles a random Tiny-C program,
   schedules it, and compares simulations. *)

open Gis_ir
open Gis_machine
open Gis_core
open Gis_sim
open Gis_frontend
open Gis_workloads

let machine = Test_support.machine
let observe = Test_support.observe
let baseline_compiled = Test_support.baseline_compiled
let baseline_and_input = Test_support.baseline_and_input

let preserves_observables ~config seed =
  let cfg, input = baseline_and_input seed in
  let expected = observe cfg input in
  let scheduled = Cfg.deep_copy cfg in
  ignore (Pipeline.run machine config scheduled);
  Validate.check_exn scheduled;
  String.equal expected (observe scheduled input)

let qtest name count prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count QCheck.(int_range 1 1_000_000) prop)

let prop_local seed = preserves_observables ~config:Config.base seed

let prop_useful seed = preserves_observables ~config:Config.useful_only seed

let prop_speculative seed = preserves_observables ~config:Config.speculative seed

let prop_no_rename seed =
  preserves_observables ~config:{ Config.speculative with Config.rename = false } seed

let prop_no_prune seed =
  preserves_observables
    ~config:{ Config.speculative with Config.prune_transitive = false }
    seed

let prop_no_transforms seed =
  preserves_observables
    ~config:
      {
        Config.speculative with
        Config.unroll_small_loops = false;
        rotate_small_loops = false;
      }
    seed

let prop_degree_2 seed =
  preserves_observables
    ~config:{ Config.speculative with Config.max_speculation_degree = 2 }
    seed

let prop_degree_3_with_webs seed =
  preserves_observables
    ~config:
      {
        Config.speculative with
        Config.max_speculation_degree = 3;
        split_webs = true;
      }
    seed

let prop_webs seed =
  preserves_observables
    ~config:{ Config.speculative with Config.split_webs = true }
    seed

let prop_profile_guided seed =
  (* Profile on one random input, schedule with it, then validate
     observables on a *different* input — speculation gating must never
     be load-bearing for correctness. *)
  let compiled, input = baseline_compiled seed in
  let cfg = compiled.Codegen.cfg in
  let other_input = Random_prog.random_input ~seed:(seed + 5000) compiled in
  let profile_outcome = Simulator.run machine cfg input in
  let scheduled = Cfg.deep_copy cfg in
  ignore
    (Pipeline.run machine
       {
         Config.speculative with
         Config.profile = Some (Simulator.profile_fn profile_outcome);
         min_speculation_probability = 0.4;
       }
       scheduled);
  Validate.check_exn scheduled;
  String.equal (observe cfg input) (observe scheduled input)
  && String.equal (observe cfg other_input) (observe scheduled other_input)

let prop_duplication seed =
  preserves_observables
    ~config:{ Config.speculative with Config.allow_duplication = true }
    seed

let prop_duplication_with_everything seed =
  preserves_observables
    ~config:
      {
        Config.speculative with
        Config.allow_duplication = true;
        split_webs = true;
        max_speculation_degree = 2;
      }
    seed

let prop_detailed_local_machine seed =
  preserves_observables
    ~config:
      { Config.speculative with Config.local_machine = Some Machine.rs6k_detailed }
    seed

let prop_wide_machine seed =
  let cfg, input = baseline_and_input seed in
  let expected = observe cfg input in
  let scheduled = Cfg.deep_copy cfg in
  ignore (Pipeline.run (Machine.superscalar ~width:4) Config.speculative scheduled);
  Validate.check_exn scheduled;
  (* Observables are machine-independent: check against rs6k execution
     of the scheduled code too. *)
  String.equal expected (observe scheduled input)

(* Scheduling twice is still sound (idempotence of correctness, not of
   code): the second pass sees already-moved code. *)
let prop_reschedule seed =
  let cfg, input = baseline_and_input seed in
  let expected = observe cfg input in
  let scheduled = Cfg.deep_copy cfg in
  ignore (Pipeline.run machine Config.speculative scheduled);
  ignore
    (Pipeline.run machine
       {
         Config.speculative with
         Config.unroll_small_loops = false;
         rotate_small_loops = false;
       }
       scheduled);
  Validate.check_exn scheduled;
  String.equal expected (observe scheduled input)

(* Unroll and rotate on their own preserve semantics for arbitrary
   generated programs. *)
let prop_unroll seed =
  let cfg, input = baseline_and_input seed in
  let expected = observe cfg input in
  let t = Cfg.deep_copy cfg in
  ignore (Unroll.unroll_small_inner_loops ~max_blocks:6 t);
  Validate.check_exn t;
  String.equal expected (observe t input)

let prop_rotate seed =
  let cfg, input = baseline_and_input seed in
  let expected = observe cfg input in
  let t = Cfg.deep_copy cfg in
  ignore (Rotate.rotate_small_inner_loops ~max_blocks:6 t);
  Validate.check_exn t;
  String.equal expected (observe t input)

(* Composing the transforms: unrolled-then-rotated loops are still
   semantically equivalent, both as bare transforms and after the full
   pipeline re-schedules the pre-transformed body at every level. *)
let prop_unroll_then_rotate_all_levels seed =
  let cfg, input = baseline_and_input seed in
  let expected = observe cfg input in
  let t = Cfg.deep_copy cfg in
  ignore (Unroll.unroll_small_inner_loops ~max_blocks:6 t);
  ignore (Rotate.rotate_small_inner_loops ~max_blocks:6 t);
  Validate.check_exn t;
  String.equal expected (observe t input)
  && List.for_all
       (fun level ->
         let c = Cfg.deep_copy t in
         ignore (Pipeline.run machine { Config.default with Config.level } c);
         Validate.check_exn c;
         String.equal expected (observe c input))
       [ Config.Local; Config.Useful; Config.Speculative ]

(* Linear-scan allocation on a deliberately small register file: the
   allocated code must verify (disjoint intervals per physical
   register, within budget, evaluator-identical — spill storage lives
   in its own segment, so observables compare exactly). Random
   sampling: the soundness gaps the fuzzer found here (wild program
   addresses aliasing spill slots, CR spill capacity) are fixed and
   pinned as corpus fixtures in test_regalloc. *)
let prop_regalloc_verifies seed =
  let cfg, input = baseline_and_input seed in
  let scheduled = Cfg.deep_copy cfg in
  let config =
    { Config.speculative with Config.regalloc = true; regs = Some 8 }
  in
  let stats = Pipeline.run machine config scheduled in
  Validate.check_exn scheduled;
  match stats.Pipeline.regalloc with
  | None -> false
  | Some alloc -> (
      match
        Gis_regalloc.Regalloc.verify ~gprs:8 ~fprs:8 ~machine ~baseline:cfg
          ~allocated:scheduled alloc input
      with
      | Ok () -> true
      | Error _ -> false)

(* Dominators from the optimized algorithm agree with the naive
   reference on every generated CFG. *)
let prop_dominance seed =
  let cfg, _ = baseline_and_input seed in
  let flow = Gis_analysis.Flow.of_cfg ~entry:(Cfg.entry cfg) cfg in
  let dom = Gis_analysis.Dominance.compute flow in
  let naive = Gis_analysis.Dominance.naive_dominators flow in
  let ok = ref true in
  for a = 0 to flow.Gis_analysis.Flow.num_nodes - 1 do
    for b = 0 to flow.Gis_analysis.Flow.num_nodes - 1 do
      let fast = Gis_analysis.Dominance.dominates dom a b in
      let slow =
        (not (Gis_util.Ints.Int_set.is_empty naive.(b)))
        && Gis_util.Ints.Int_set.mem a naive.(b)
      in
      if fast <> slow then ok := false
    done
  done;
  !ok

(* Region dependence graphs are acyclic, and every edge goes from a
   node to one in the same or a reachable view node. *)
let prop_ddg_wellformed seed =
  let cfg, _ = baseline_and_input seed in
  let regions = Gis_analysis.Regions.compute cfg in
  List.for_all
    (fun region ->
      match Gis_analysis.Regions.view cfg regions region with
      | exception Invalid_argument _ -> true
      | view ->
          let ddg = Gis_ddg.Ddg.build cfg machine regions view in
          let reach =
            Gis_analysis.Flow.reachable_matrix view.Gis_analysis.Regions.flow
          in
          let ok = ref (Gis_ddg.Ddg.is_acyclic ddg) in
          Gis_ddg.Ddg.iter_edges
            (fun e ->
              let va = (Gis_ddg.Ddg.node ddg e.Gis_ddg.Ddg.src).Gis_ddg.Ddg.view_node in
              let vb = (Gis_ddg.Ddg.node ddg e.Gis_ddg.Ddg.dst).Gis_ddg.Ddg.view_node in
              if not reach.(va).(vb) then ok := false)
            ddg;
          !ok)
    (Gis_analysis.Regions.regions regions)

(* Memory disambiguation only ever removes constraints: every edge of
   the symbolically refined DDG is present in the conservative one, on
   every region of every generated program. Node indices agree because
   [sym] affects only the edge decisions, never the node layout. *)
let prop_disambig_subset seed =
  let cfg, _ = baseline_and_input seed in
  let sym = Gis_analysis.Symaddr.compute cfg in
  let regions = Gis_analysis.Regions.compute cfg in
  List.for_all
    (fun region ->
      match Gis_analysis.Regions.view cfg regions region with
      | exception Invalid_argument _ -> true
      | view ->
          let refined = Gis_ddg.Ddg.build ~sym cfg machine regions view in
          let conservative = Gis_ddg.Ddg.build cfg machine regions view in
          let cons = Hashtbl.create 64 in
          Gis_ddg.Ddg.iter_edges
            (fun (e : Gis_ddg.Ddg.edge) ->
              Hashtbl.replace cons
                (e.Gis_ddg.Ddg.src, e.Gis_ddg.Ddg.dst, e.Gis_ddg.Ddg.kind)
                ())
            conservative;
          let subset = ref true in
          Gis_ddg.Ddg.iter_edges
            (fun (e : Gis_ddg.Ddg.edge) ->
              if
                not
                  (Hashtbl.mem cons
                     ( e.Gis_ddg.Ddg.src,
                       e.Gis_ddg.Ddg.dst,
                       e.Gis_ddg.Ddg.kind ))
              then subset := false)
            refined;
          !subset
          && Gis_ddg.Ddg.num_edges refined
             <= Gis_ddg.Ddg.num_edges conservative)
    (Gis_analysis.Regions.regions regions)

(* Disambiguation-on schedules at every level and machine width are
   certified by the static checker (every pruned edge re-proved from
   the stage's own input by the independent checker-side analysis) and
   still reproduce the unscheduled observables. *)
let prop_disambig_checked seed =
  let cfg0, input = baseline_and_input seed in
  let expected = observe cfg0 input in
  List.for_all
    (fun (level, width) ->
      let m = Machine.superscalar ~width in
      let scheduled = Cfg.deep_copy cfg0 in
      let prov = Gis_obs.Provenance.create () in
      let collector =
        Gis_check.Check.collector ~prov
          ~max_speculation_degree:
            Config.default.Config.max_speculation_degree ()
      in
      let config =
        {
          Config.default with
          Config.level;
          prov = Some prov;
          check = Some (Gis_check.Check.hook collector);
        }
      in
      ignore (Pipeline.run m config scheduled);
      Validate.check_exn scheduled;
      Gis_check.Check.errors
        (List.concat_map snd (Gis_check.Check.diagnostics collector))
      = []
      && String.equal expected (observe scheduled input))
    [ (Config.Local, 1); (Config.Useful, 2); (Config.Speculative, 4) ]

(* The --no-disambig control configuration is itself sound. *)
let prop_no_disambig seed =
  preserves_observables
    ~config:{ Config.speculative with Config.disambiguate = false }
    seed

(* Liveness is a sound upper bound: running the program never reads a
   register that liveness considers dead at the entry... approximated
   here by the cheaper internal-consistency property live_in >=
   use U (live_out - def). *)
let prop_liveness_consistent seed =
  let cfg, _ = baseline_and_input seed in
  let live = Gis_analysis.Liveness.compute cfg in
  List.for_all
    (fun id ->
      let b = Cfg.block cfg id in
      let out = Test_support.live_set Gis_analysis.Liveness.iter_live_out live id in
      let inn = Test_support.live_set Gis_analysis.Liveness.iter_live_in live id in
      (* Successor consistency. *)
      List.for_all
        (fun (s, _) ->
          Reg.Set.subset
            (Test_support.live_set Gis_analysis.Liveness.iter_live_in live s)
            out)
        (Cfg.successors cfg id)
      &&
      (* Transfer consistency: anything live out and not defined in the
         block is live in. *)
      let defs =
        List.concat_map Instr.defs (Block.instrs b) |> Reg.Set.of_list
      in
      Reg.Set.subset (Reg.Set.diff out defs) inn)
    (Cfg.layout cfg)

(* The paper's minmax on random inputs at every level. *)
let prop_minmax_all_levels seed =
  let rng = Prng.create ~seed in
  let elements = List.init (2 * (2 + Prng.int rng 30)) (fun _ -> Prng.int rng 2000 - 1000) in
  let t = Minmax.build () in
  let input = Minmax.input t elements in
  let expected = observe t.Minmax.cfg input in
  List.for_all
    (fun level ->
      let c = Cfg.deep_copy t.Minmax.cfg in
      ignore
        (Pipeline.run machine
           { Config.default with Config.level } c);
      Validate.check_exn c;
      String.equal expected (observe c input))
    [ Config.Local; Config.Useful; Config.Speculative ]

(* The batch driver is deterministic in the worker count: scheduling a
   batch of random Tiny-C programs with one domain and with four must
   produce byte-identical results (code, observables, cycle counts, and
   the scrubbed JSON report). The seed picks the batch; the batch picks
   everything else. *)
let prop_driver_jobs_deterministic seed =
  let tasks =
    Gis_driver.Driver.corpus_tasks
      ~seeds:(List.init 6 (fun i -> (seed * 7) + i))
  in
  let run jobs =
    Gis_driver.Driver.run ~jobs machine Config.speculative tasks
  in
  let seq = run 1 and par = run 4 in
  let json r =
    Gis_obs.Json.to_string
      (Gis_driver.Driver.report_to_json ~deterministic:true r)
  in
  seq.Gis_driver.Driver.pool.Gis_driver.Driver.failed = 0
  && String.equal (json seq) (json par)

let () =
  Alcotest.run "gis_props"
    [
      ( "scheduling preserves observables",
        [
          qtest "local" 60 prop_local;
          qtest "useful" 60 prop_useful;
          qtest "speculative" 60 prop_speculative;
          qtest "no-rename" 40 prop_no_rename;
          qtest "no-prune" 40 prop_no_prune;
          qtest "no-transforms" 40 prop_no_transforms;
          qtest "wide machine" 40 prop_wide_machine;
          qtest "reschedule" 30 prop_reschedule;
          qtest "degree 2" 40 prop_degree_2;
          qtest "degree 3 + webs" 40 prop_degree_3_with_webs;
          qtest "webs" 40 prop_webs;
          qtest "profile-guided" 40 prop_profile_guided;
          qtest "detailed local machine" 40 prop_detailed_local_machine;
          qtest "duplication" 60 prop_duplication;
          qtest "duplication + everything" 40 prop_duplication_with_everything;
          qtest "no-disambig control" 40 prop_no_disambig;
        ] );
      ( "memory disambiguation",
        [
          qtest "pruned DDG is a subset" 40 prop_disambig_subset;
          qtest "checked at all levels x widths" 25 prop_disambig_checked;
        ] );
      ( "transforms preserve observables",
        [
          qtest "unroll" 40 prop_unroll;
          qtest "rotate" 40 prop_rotate;
          qtest "unroll then rotate, all levels" 40
            prop_unroll_then_rotate_all_levels;
        ] );
      ( "register allocation",
        [ qtest "tight file verifies" 40 prop_regalloc_verifies ] );
      ( "batch driver determinism",
        [ qtest "jobs 1 = jobs 4" 12 prop_driver_jobs_deterministic ] );
      ( "analysis invariants",
        [
          qtest "dominance vs naive" 40 prop_dominance;
          qtest "ddg wellformed" 30 prop_ddg_wellformed;
          qtest "liveness consistent" 40 prop_liveness_consistent;
          qtest "minmax all levels" 30 prop_minmax_all_levels;
        ] );
    ]
