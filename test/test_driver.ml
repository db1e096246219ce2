(* The batch driver and the scheduler hot path, locked down.

   - A differential regression corpus pins cycle counts and motion
     counts for the paper's workloads at every level. The constants
     were recorded from the scheduler BEFORE the priority-heap rewrite
     and the lazy-dataflow caching; the suite therefore proves the perf
     refactor changed compile time, not schedules.
   - Driver.run must be deterministic in the worker count: jobs:1 and
     jobs:N produce byte-identical scheduled code, observables and
     (scrubbed) JSON reports.
   - A crashing task must not take down the pool, and a task budget
     must be enforced. *)

open Gis_ir
open Gis_core
open Gis_sim
open Gis_frontend
open Gis_workloads
open Gis_driver
open Gis_driver.Driver

let machine = Test_support.machine

let parallel_jobs =
  (* CI runs the suite with GIS_TEST_JOBS=4; default stays multi-domain
     but modest so laptops are not oversubscribed. *)
  match Sys.getenv_opt "GIS_TEST_JOBS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 1 -> n | _ -> 4)
  | None -> 4

(* ------------------------------------------------------------------ *)
(* Differential regression corpus                                      *)
(* ------------------------------------------------------------------ *)

(* (program, level, cycles, dynamic instructions, moves, speculative
   moves, renames) — recorded from the pre-heap scheduler at commit
   "telemetry layer", simulating each workload on its standard input.
   The espresso and gcc rows were re-recorded when those proxies grew
   their memory-resident statistics counters (the A1 disambiguation
   workloads); scheduling runs with symbolic disambiguation on, the
   pipeline default. *)
let golden =
  [
    ("minmax", Config.Local, 655, 375, 0, 0, 0);
    ("minmax", Config.Useful, 431, 375, 4, 0, 0);
    ("minmax", Config.Speculative, 395, 407, 6, 2, 1);
    ("li", Config.Local, 8998, 7460, 0, 0, 0);
    ("li", Config.Useful, 7657, 7460, 1, 0, 0);
    ("li", Config.Speculative, 6646, 7878, 4, 3, 0);
    ("eqntott", Config.Local, 8656, 6865, 0, 0, 0);
    ("eqntott", Config.Useful, 6837, 6865, 3, 0, 0);
    ("eqntott", Config.Speculative, 6837, 7286, 4, 1, 0);
    ("espresso", Config.Local, 15375, 15761, 0, 0, 0);
    ("espresso", Config.Useful, 15375, 15761, 0, 0, 0);
    ("espresso", Config.Speculative, 15375, 15761, 0, 0, 0);
    ("gcc", Config.Local, 14760, 14469, 0, 0, 0);
    ("gcc", Config.Useful, 14760, 14469, 1, 0, 0);
    ("gcc", Config.Speculative, 14332, 14706, 4, 3, 0);
  ]

let standard_programs = Test_support.standard_programs

let test_golden_schedules () =
  let programs = standard_programs () in
  List.iter
    (fun (name, level, cycles, instrs, moves, spec, renames) ->
      let cfg0, input = List.assoc name programs in
      let cfg = Cfg.deep_copy cfg0 in
      let stats = Pipeline.run machine (Config.of_level level) cfg in
      let ms = Pipeline.moves stats in
      let outcome = Simulator.run machine cfg input in
      let got =
        ( outcome.Simulator.cycles,
          outcome.Simulator.instructions,
          List.length ms,
          List.length
            (List.filter
               (fun (m : Global_sched.move) -> m.Global_sched.speculative)
               ms),
          List.length
            (List.filter
               (fun (m : Global_sched.move) -> m.Global_sched.renamed <> None)
               ms) )
      in
      Alcotest.(check (list int))
        (Fmt.str "%s @ %a" name Config.pp_level level)
        [ cycles; instrs; moves; spec; renames ]
        (let a, b, c, d, e = got in
         [ a; b; c; d; e ]))
    golden

(* ------------------------------------------------------------------ *)
(* Driver determinism                                                  *)
(* ------------------------------------------------------------------ *)

let batch () = workload_tasks () @ corpus_tasks ~seeds:[ 11; 22; 33; 44 ]

let summary_key (r : task_result) =
  match r.outcome with
  | Ok s ->
      Fmt.str "%s|%d|%d|%d|%d|%d|%d|%d|%d|%s|%s" r.task s.blocks s.instrs
        s.moves s.spec_moves s.renames s.events s.base_cycles s.sched_cycles
        s.observables s.code
  | Error e -> Fmt.str "%s|ERR|%a" r.task pp_error e

(* Provenance on, so each task's counts include its rule tallies. *)
let counted_config () =
  { Config.speculative with Config.prov = Some (Gis_obs.Provenance.create ()) }

let counts_of (r : task_result) =
  match r.outcome with
  | Ok s -> Gis_obs.Json.to_string (Gis_obs.Counts.to_json s.counts)
  | Error e -> Fmt.str "ERR %a" pp_error e

let test_jobs_determinism () =
  let config = counted_config () in
  let seq = Driver.run ~jobs:1 machine config (batch ()) in
  let par = Driver.run ~jobs:parallel_jobs machine config (batch ()) in
  Alcotest.(check int) "all sequential tasks ok" 0 seq.pool.failed;
  Alcotest.(check int) "all parallel tasks ok" 0 par.pool.failed;
  Alcotest.(check (list string))
    "byte-identical summaries across job counts"
    (List.map summary_key seq.results)
    (List.map summary_key par.results);
  let json r =
    Gis_obs.Json.to_string (report_to_json ~deterministic:true r)
  in
  Alcotest.(check string)
    "deterministic JSON reports identical" (json seq) (json par);
  (* Each task's counts belong to its own run: the same at any job
     count, and the same as the task compiled alone. *)
  Alcotest.(check (list string))
    "per-task counts identical across job counts"
    (List.map counts_of seq.results)
    (List.map counts_of par.results);
  List.iter2
    (fun task (r : task_result) ->
      let alone = Driver.run ~jobs:1 machine config [ task ] in
      Alcotest.(check string)
        (r.task ^ " counts as compiled alone")
        (counts_of (List.hd alone.results))
        (counts_of r))
    (batch ()) par.results;
  let total key =
    match List.assoc_opt key (batch_counts par) with
    | Some (Gis_obs.Counts.Counter n) -> n
    | _ -> Alcotest.failf "%s missing from the batch counts" key
  in
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " counted") true (total key > 0))
    [
      "sched.moves_useful_total"; "sched.regions_scheduled_total";
      "alias.queries_total"; "priority.rule_decides_total.max-delay";
      "sim.runs_total";
    ];
  Alcotest.(check int) "driver.tasks_total" (List.length (batch ()))
    (total "driver.tasks_total")

(* The ["metrics"] object of [gisc --stats]: one run carries every key,
   whether or not it was simulated, allocated or bounded. *)
let run_count_keys =
  [
    "alias.fallback_total.call"; "alias.fallback_total.disabled";
    "alias.fallback_total.origin-mismatch"; "alias.fallback_total.overlap";
    "alias.fallback_total.top"; "alias.mem_edges_kept_total";
    "alias.mem_edges_pruned_total.inter"; "alias.mem_edges_pruned_total.intra";
    "alias.queries_total"; "bound.achieved_cycles"; "bound.cp_lower_cycles";
    "bound.gap_cycles"; "bound.lower_cycles"; "bound.regions";
    "bound.res_lower_cycles"; "driver.queue_wait_us"; "driver.task_run_us";
    "driver.tasks_failed_total"; "driver.tasks_total";
    "priority.rule_decides_total.max-critical-path";
    "priority.rule_decides_total.max-delay";
    "priority.rule_decides_total.min-pressure";
    "priority.rule_decides_total.order-fallback";
    "priority.rule_decides_total.program-order";
    "priority.rule_decides_total.useful-first"; "regalloc.allocations_total";
    "regalloc.cr_spill_moves_total"; "regalloc.spill_instrs_total";
    "regalloc.spilled_regs_total"; "sched.blocked_motions_total";
    "sched.duplication_copies_total"; "sched.moves_speculative_total";
    "sched.moves_useful_total"; "sched.regions_scheduled_total";
    "sched.regions_skipped_total"; "sched.renames_total";
    "sim.instructions_total"; "sim.issue_span_cycles"; "sim.runs_total";
  ]

let test_run_count_keys () =
  let cfg0, input = List.assoc "minmax" (standard_programs ()) in
  let cfg = Cfg.deep_copy cfg0 in
  let sink, events = Gis_obs.Sink.memory () in
  let stats =
    Pipeline.run machine { Config.speculative with Config.obs = sink } cfg
  in
  let sim = Simulator.run machine cfg input in
  let keys counts = List.sort compare (List.map fst counts) in
  let plain = Driver.run_counts ~events:(events ()) stats in
  let simulated = Driver.run_counts ~sim ~events:(events ()) stats in
  Alcotest.(check (list string)) "every key, unsimulated" run_count_keys
    (keys plain);
  Alcotest.(check (list string)) "every key, simulated" run_count_keys
    (keys simulated);
  let value counts key = List.assoc key counts in
  Alcotest.(check bool) "one run is no batch" true
    (value simulated "driver.tasks_total" = Gis_obs.Counts.Counter 0);
  Alcotest.(check bool) "the scheduled simulation counted" true
    (value simulated "sim.runs_total" = Gis_obs.Counts.Counter 1
    && value plain "sim.runs_total" = Gis_obs.Counts.Counter 0);
  Alcotest.(check bool) "motions counted from the run's events" true
    (value plain "sched.moves_useful_total" <> Gis_obs.Counts.Counter 0)

let test_pool_telemetry () =
  let tasks = batch () in
  let r = Driver.run ~jobs:parallel_jobs machine Config.speculative tasks in
  let p = r.pool in
  Alcotest.(check int) "task count" (List.length tasks) p.tasks;
  Alcotest.(check int)
    "every task ran on some worker" (List.length tasks)
    (Array.fold_left ( + ) 0 p.tasks_run);
  Alcotest.(check int)
    "queue high water is the initial depth" (List.length tasks)
    p.queue_high_water;
  Alcotest.(check bool) "wall clock advanced" true (p.wall_seconds > 0.0);
  let u = utilization p in
  Alcotest.(check bool) "utilization in (0,1]" true (u > 0.0 && u <= 1.0)

(* ------------------------------------------------------------------ *)
(* Fault isolation                                                     *)
(* ------------------------------------------------------------------ *)

let test_fault_isolation () =
  let tasks =
    [
      { name = "good-1"; source = Tiny_c Minmax.source };
      { name = "broken"; source = Tiny_c "int x = (;" };
      { name = "good-2"; source = Generated 7 };
      { name = "trap"; source = File "/nonexistent/gis-no-such-file.c" };
    ]
  in
  let r = Driver.run ~jobs:parallel_jobs machine Config.speculative tasks in
  Alcotest.(check int) "results in input order" 4 (List.length r.results);
  Alcotest.(check (list string))
    "input order preserved"
    [ "good-1"; "broken"; "good-2"; "trap" ]
    (List.map (fun t -> t.task) r.results);
  let by_name n = List.find (fun t -> String.equal t.task n) r.results in
  (match (by_name "broken").outcome with
  | Error (Compile_error _) -> ()
  | Error e -> Alcotest.failf "expected compile error, got %a" pp_error e
  | Ok _ -> Alcotest.fail "broken task unexpectedly compiled");
  (match (by_name "trap").outcome with
  | Error (Crashed _) -> ()
  | Error e -> Alcotest.failf "expected crash, got %a" pp_error e
  | Ok _ -> Alcotest.fail "trapping task unexpectedly succeeded");
  List.iter
    (fun n ->
      match (by_name n).outcome with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s should have survived: %a" n pp_error e)
    [ "good-1"; "good-2" ];
  Alcotest.(check int) "two failures counted" 2 r.pool.failed;
  Alcotest.(check int) "failures accessor agrees" 2 (List.length (failures r))

let test_timeout () =
  let r =
    Driver.run ~jobs:2 ~timeout:0.0 machine Config.speculative
      (workload_tasks ())
  in
  Alcotest.(check int) "every task over a zero budget" r.pool.tasks
    r.pool.failed;
  List.iter
    (fun t ->
      match t.outcome with
      | Error (Timed_out s) ->
          Alcotest.(check bool) "recorded time positive" true (s > 0.0)
      | Error e -> Alcotest.failf "expected timeout, got %a" pp_error e
      | Ok _ -> Alcotest.fail "expected timeout, task succeeded")
    r.results

(* An exhausted budget must pre-empt the queue, not merely label tasks
   after letting them all run: tasks dequeued after the budget is spent
   are skipped entirely (zero task seconds, no worker charged). *)
let test_timeout_preempts_queue () =
  let r =
    Driver.run ~jobs:1 ~timeout:0.0 machine Config.speculative
      (workload_tasks ())
  in
  List.iter
    (fun t ->
      Alcotest.(check (float 0.0))
        (t.task ^ " was never executed")
        0.0 t.seconds)
    r.results;
  Alcotest.(check (float 0.0)) "no worker time charged" 0.0
    (Array.fold_left ( +. ) 0.0 r.pool.busy_seconds);
  Alcotest.(check int) "no task counted as run" 0
    (Array.fold_left ( + ) 0 r.pool.tasks_run);
  (* ... and a timeout-only batch is distinguishable from a crash. *)
  let timeout_only =
    List.for_all
      (fun (_, e) -> match e with Timed_out _ -> true | _ -> false)
      (failures r)
  in
  Alcotest.(check bool) "all failures are timeouts" true timeout_only

(* ------------------------------------------------------------------ *)
(* Provenance and explainability                                       *)
(* ------------------------------------------------------------------ *)

module Provenance = Gis_obs.Provenance

let reachable_instr_count cfg =
  let reach = Cfg.reachable cfg in
  let n = ref 0 in
  List.iter
    (fun id ->
      if Gis_util.Ints.Int_set.mem id reach then begin
        let b = Cfg.block cfg id in
        Gis_util.Vec.iter (fun _ -> incr n) b.Block.body;
        incr n
      end)
    (Cfg.layout cfg);
  !n

(* Conservation: whatever combination of passes ran, every reachable
   instruction of the final CFG has exactly one provenance record, and
   the per-kind counts tile the instruction count. The generator sweeps
   workload x level x unroll/rotate x regalloc. *)
let prop_provenance_conservation =
  QCheck.Test.make ~count:60 ~name:"provenance conservation"
    QCheck.(
      quad (int_bound 4) (int_bound 2) bool bool)
    (fun (wi, li, unroll, regalloc) ->
      let task = List.nth (workload_tasks ()) wi in
      Label.reset_fresh_counter ();
      let compiled = compile_task task in
      let prov = Provenance.create () in
      let level = List.nth [ Config.Local; Config.Useful; Config.Speculative ] li in
      let config =
        {
          (Config.of_level level) with
          Config.unroll_small_loops = unroll;
          rotate_small_loops = unroll;
          regalloc;
          prov = Some prov;
        }
      in
      let cfg = Cfg.deep_copy compiled.Codegen.cfg in
      ignore (Pipeline.run machine config cfg);
      let count = reachable_instr_count cfg in
      Provenance.missing prov cfg = []
      && List.length (Provenance.entries prov) = count
      && List.fold_left (fun a (_, c) -> a + c) 0 (Provenance.counts prov)
         = count)

(* The E-A accounting identity: the per-block attribution credits sum
   exactly (integer-exactly, not approximately) to the difference of
   the base and scheduled issue spans, on every workload, with and
   without the allocator's spill code in the mix. *)
let test_explain_identity () =
  List.iter
    (fun (cname, config) ->
      List.iter
        (fun task ->
          match Explain.explain machine config task with
          | Error e ->
              Alcotest.failf "%s (%s): %a" task.name cname pp_error e
          | Ok e ->
              Alcotest.(check int)
                (Fmt.str "%s (%s): credits sum to the E-A delta" task.name
                   cname)
                (e.Explain.base_last_issue - e.Explain.sched_last_issue)
                (Provenance.attribution_total e.Explain.attribution);
              Alcotest.(check bool)
                (Fmt.str "%s (%s): identity holds" task.name cname)
                true (Explain.identity_holds e))
        (workload_tasks ()))
    [
      ("speculative", Config.speculative);
      ("regalloc", { Config.speculative with Config.regalloc = true });
    ]

(* Pinned: attaching a provenance table must not change one byte of the
   scheduled code — recording is observation, not participation. *)
let test_provenance_zero_cost () =
  List.iter
    (fun task ->
      let print_with prov =
        Label.reset_fresh_counter ();
        let compiled = compile_task task in
        let cfg = Cfg.deep_copy compiled.Codegen.cfg in
        ignore
          (Pipeline.run machine
             { Config.speculative with Config.prov; regalloc = true }
             cfg);
        Fmt.str "%a" Cfg.pp cfg
      in
      Alcotest.(check string)
        (task.name ^ ": schedule byte-identical with provenance on")
        (print_with None)
        (print_with (Some (Provenance.create ()))))
    (workload_tasks ())

(* The minmax walkthrough documented in EXPERIMENTS.md: speculative
   scheduling must show actual useful and speculative motions, and the
   JSON report must carry the identity flag. *)
let test_explain_minmax_motions () =
  match
    Explain.explain machine Config.speculative
      { name = "minmax"; source = Tiny_c Minmax.source }
  with
  | Error e -> Alcotest.failf "minmax: %a" pp_error e
  | Ok e ->
      let count k =
        match List.assoc_opt k (Provenance.counts e.Explain.prov) with
        | Some c -> c
        | None -> 0
      in
      Alcotest.(check bool) "useful motions recorded" true
        (count Provenance.Useful > 0);
      Alcotest.(check bool) "speculative motions recorded" true
        (count Provenance.Speculative > 0);
      Alcotest.(check bool) "scheduled faster than base" true
        (Explain.delta_total e > 0);
      (match Gis_obs.Json.member "identity_exact" (Explain.to_json e) with
      | Some (Gis_obs.Json.Bool true) -> ()
      | _ -> Alcotest.fail "identity_exact missing or false in JSON")

(* ------------------------------------------------------------------ *)
(* One run per program                                                 *)
(* ------------------------------------------------------------------ *)

(* Run [gisc ARGS --json FILE] and return the report. *)
let gisc_json args =
  let out = Filename.temp_file "gisc" ".json" in
  let cmd =
    Filename.quote_command ~stdout:Filename.null
      Filename.(concat (dirname Sys.executable_name) "../bin/gisc.exe")
      (args @ [ "--json"; out ])
  in
  let code = Sys.command cmd in
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  Alcotest.(check int) (String.concat " " args ^ " exits 0") 0 code;
  match Gis_obs.Json.of_string text with
  | Ok j -> j
  | Error m -> Alcotest.failf "%s: bad JSON: %s" (String.concat " " args) m

(* Run [gisc ARGS] and return its exit code, stdout and stderr. *)
let gisc_run args =
  let out = Filename.temp_file "gisc" ".out"
  and err = Filename.temp_file "gisc" ".err" in
  let code =
    Sys.command
      (Filename.quote_command ~stdout:out ~stderr:err
         Filename.(concat (dirname Sys.executable_name) "../bin/gisc.exe")
         args)
  in
  let read f =
    let text = In_channel.with_open_bin f In_channel.input_all in
    Sys.remove f;
    text
  in
  (code, read out, read err)

(* A command line cmdliner cannot parse is a usage error (exit 2), with
   the message on stderr and nothing on stdout; the header example's
   form, flags before the file, compiles. *)
let test_usage_errors () =
  let file = Filename.temp_file "gisc" ".tc" in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc "int s;\ns = 1;\nprint(s);\n");
  List.iter
    (fun args ->
      let name = String.concat " " args in
      let code, out, err = gisc_run args in
      Alcotest.(check int) (name ^ " exits 2") Exit_codes.usage_error code;
      Alcotest.(check string) (name ^ ": no stdout") "" out;
      Alcotest.(check bool) (name ^ ": message on stderr") true (err <> ""))
    [ [ "--bogus"; file ]; [ "check"; "--bogus"; file ]; [ file; "--simulate" ] ];
  let code, _, _ =
    gisc_run [ "--level"; "useful"; "--width"; "4"; "--simulate"; file ]
  in
  Sys.remove file;
  Alcotest.(check int) "flags before the file exit 0" Exit_codes.ok code

(* Every integer under a [uid], [src_uid] or [dst_uid] key. *)
let rec uids acc = function
  | Gis_obs.Json.Obj kvs ->
      List.fold_left
        (fun acc (k, v) ->
          match (k, v) with
          | ("uid" | "src_uid" | "dst_uid"), Gis_obs.Json.Int u -> u :: acc
          | _ -> uids acc v)
        acc kvs
  | Gis_obs.Json.List vs -> List.fold_left uids acc vs
  | _ -> acc

(* `gisc bound` and `gisc explain` run the same [Driver.run_one], so
   every instruction the bound report names is one of the instructions
   explain's provenance lists for the same program. *)
let test_bound_explain_one_numbering () =
  List.iter
    (fun args ->
      let explained =
        match
          Gis_obs.Json.member "provenance" (gisc_json ("explain" :: args))
        with
        | Some p -> (
            match Gis_obs.Json.member "instructions" p with
            | Some is -> uids [] is
            | None -> Alcotest.fail "provenance lacks instructions")
        | None -> Alcotest.fail "explain report lacks provenance"
      in
      let bound = uids [] (gisc_json ("bound" :: args)) in
      Alcotest.(check bool) "bound names instructions" true (bound <> []);
      Alcotest.(check (list int))
        (String.concat " " args ^ ": bound uids explain does not list")
        []
        (List.sort_uniq compare
           (List.filter (fun u -> not (List.mem u explained)) bound)))
    [
      [ "-w"; "espresso"; "-l"; "speculative" ];
      [ "-w"; "minmax"; "-l"; "speculative"; "--regalloc"; "--regs"; "6" ];
    ]

(* With memory dependences dropped, the schedule of generated program 1
   reorders a load across a store and changes what it prints: explain
   must report the mismatch, not attribute its cycles. *)
let test_explain_catches_mismatch () =
  let flag = Gis_ddg.Ddg.drop_mem_edges_for_testing in
  flag := true;
  Fun.protect
    ~finally:(fun () -> flag := false)
    (fun () ->
      match
        Explain.explain machine Config.speculative
          { name = "rand-1"; source = Generated 1 }
      with
      | Error (Mismatch _) -> ()
      | Error e -> Alcotest.failf "expected a mismatch, got %a" pp_error e
      | Ok _ -> Alcotest.fail "divergent schedule explained as Ok")

(* The BASE compile only feeds the simulation: an unsimulated batch
   skips it and schedules exactly the same code, uids included. *)
let test_unsimulated_same_code () =
  let config =
    {
      Config.speculative with
      Config.regalloc = true;
      regs = Some 6;
      pressure_aware = true;
    }
  in
  let tasks = workload_tasks () @ corpus_tasks ~seeds:[ 0; 1; 2; 3 ] in
  let codes ~simulate =
    List.map
      (fun (r : task_result) ->
        match r.outcome with
        | Ok s -> (s.code, s.base_cycles)
        | Error e -> Alcotest.failf "%s: %a" r.task pp_error e)
      (Driver.run ~simulate machine config tasks).results
  in
  List.iter2
    (fun task ((off, off_base), (on, on_base)) ->
      Alcotest.(check string) (task.name ^ ": same code") on off;
      Alcotest.(check int) (task.name ^ ": unsimulated") (-1) off_base;
      Alcotest.(check bool) (task.name ^ ": simulated") true (on_base > 0))
    tasks
    (List.combine (codes ~simulate:false) (codes ~simulate:true))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "gis_driver"
    [
      ( "differential corpus",
        [
          Alcotest.test_case "golden cycles and motions" `Quick
            test_golden_schedules;
        ] );
      ( "pool",
        [
          Alcotest.test_case "jobs determinism" `Quick test_jobs_determinism;
          Alcotest.test_case "telemetry" `Quick test_pool_telemetry;
          Alcotest.test_case "fault isolation" `Quick test_fault_isolation;
          Alcotest.test_case "timeout budget" `Quick test_timeout;
          Alcotest.test_case "timeout preempts queue" `Quick
            test_timeout_preempts_queue;
          Alcotest.test_case "run count keys" `Quick test_run_count_keys;
        ] );
      ( "provenance",
        [
          QCheck_alcotest.to_alcotest prop_provenance_conservation;
          Alcotest.test_case "accounting identity" `Quick test_explain_identity;
          Alcotest.test_case "zero cost when off" `Quick
            test_provenance_zero_cost;
          Alcotest.test_case "minmax explain" `Quick test_explain_minmax_motions;
        ] );
      ( "one run",
        [
          Alcotest.test_case "bound and explain share uids" `Quick
            test_bound_explain_one_numbering;
          Alcotest.test_case "usage errors exit 2" `Quick test_usage_errors;
          Alcotest.test_case "explain catches a mismatch" `Quick
            test_explain_catches_mismatch;
          Alcotest.test_case "unsimulated batch, same code" `Quick
            test_unsimulated_same_code;
        ] );
    ]
