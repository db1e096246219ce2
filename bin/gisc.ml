(* gisc — the global instruction scheduling compiler driver.

   Compiles Tiny-C source (a file, or one of the built-in workloads)
   through the full pipeline of the paper and optionally simulates the
   result on a parametric superscalar machine:

     gisc --workload minmax --level speculative --show-code --simulate
     gisc --level useful --width 4 --simulate my_program.tc
     gisc --workload minmax --simulate --trace-issue
     gisc --workload minmax --simulate --stats out.json

   Every subcommand that compiles one program (the default command,
   explain, bound, check, profile) does it through one
   [Driver.run_one], so they all number instructions, pick inputs and
   compare BASE against scheduled observables the same way; a failed
   run exits through [exit_on_error]. Batch mode runs the same function
   once per file on the driver pool.
*)

open Gis_ir
open Gis_machine
open Gis_core
open Gis_sim
open Gis_frontend
open Gis_obs
open Cmdliner
module Exit = Gis_driver.Exit_codes

type source =
  | From_file of string
  | Workload of string

module Driver = Gis_driver.Driver

(* What every compiling subcommand shares, built once by [setup_term]
   from the common flags: the program, the machine, and the
   configuration the level and allocation flags select. *)
type setup = {
  source : source;
  machine : Machine.t;
  config : Config.t;
  verbose : bool;
}

let init_logs verbose =
  if verbose then begin
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some Logs.Debug)
  end

let setup source level width regalloc pressure_aware regs no_disambig verbose =
  init_logs verbose;
  let level =
    match level with
    | "local" -> Config.Local
    | "useful" -> Config.Useful
    | "speculative" | "spec" -> Config.Speculative
    | other ->
        Fmt.epr "unknown level %s (local|useful|speculative)@." other;
        exit Exit.usage_error
  in
  {
    source;
    machine = (if width = 1 then Machine.rs6k else Machine.superscalar ~width);
    config =
      {
        (Config.of_level level) with
        Config.regalloc;
        pressure_aware;
        regs;
        disambiguate = not no_disambig;
      };
    verbose;
  }

(* The file is read here, so an unreadable one is an input error (exit
   1) in every subcommand. Files ending in .s hold pseudo-assembly in
   the paper's Figure 2 notation; everything else is Tiny-C. *)
let task_of_source = function
  | From_file path -> (
      match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error m ->
          Fmt.epr "%s@." m;
          exit Exit.compile_error
      | src ->
          {
            Driver.name = Filename.basename path;
            source =
              (if Filename.check_suffix path ".s" then Driver.Asm src
               else Driver.Tiny_c src);
          })
  | Workload name -> (
      let workloads = Driver.workload_tasks () in
      match
        List.find_opt (fun (t : Driver.task) -> t.Driver.name = name) workloads
      with
      | Some task -> task
      | None ->
          Fmt.epr "unknown workload %s (available: %a)@." name
            Fmt.(list ~sep:comma string)
            (List.map (fun (t : Driver.task) -> t.Driver.name) workloads);
          exit Exit.usage_error)

(* The one map from a failed run to gisc's exit code. A crash is a
   compiler bug: it exits with the verification code, as an observable
   mismatch does, under the INTERNAL ERROR prefix. *)
let exit_on_error name e =
  let code, prefix =
    match e with
    | Driver.Compile_error _ -> (Exit.compile_error, "")
    | Driver.Mismatch _ -> (Exit.verification_failure, "")
    | Driver.Crashed _ -> (Exit.verification_failure, "INTERNAL ERROR: ")
    | Driver.Infeasible _ -> (Exit.regalloc_infeasible, "")
    (* only the batch pool reports timeouts *)
    | Driver.Timed_out _ -> (Exit.batch_timeout_only, "")
  in
  Fmt.epr "%s%s: %a@." prefix name Driver.pp_error e;
  exit code

(* [Driver.run_one] on the setup's program and machine, exiting on
   failure. *)
let run_one ?simulate ?trace ?elements ?seed s config =
  let task = task_of_source s.source in
  match
    Driver.run_one ?simulate ?trace ?elements ?seed s.machine config task
  with
  | Ok run -> (task.Driver.name, run)
  | Error e -> exit_on_error task.Driver.name e

let move_to_json (m : Global_sched.move) =
  Json.Obj
    [
      ("uid", Json.Int m.Global_sched.uid);
      ("from", Json.String m.Global_sched.from_label);
      ("to", Json.String m.Global_sched.to_label);
      ("speculative", Json.Bool m.Global_sched.speculative);
      ( "renamed",
        match m.Global_sched.renamed with
        | None -> Json.Null
        | Some (a, b) ->
            Json.Obj
              [
                ("from_reg", Json.String (Fmt.str "%a" Reg.pp a));
                ("to_reg", Json.String (Fmt.str "%a" Reg.pp b));
              ] );
      ( "duplicated_into",
        Json.List
          (List.map (fun l -> Json.String l) m.Global_sched.duplicated_into) );
    ]

let outcome_to_json (o : Simulator.outcome) =
  Json.Obj
    [
      ("stop", Json.String (Fmt.str "%a" Simulator.pp_stop_reason o.Simulator.stop));
      ("cycles", Json.Int o.Simulator.cycles);
      ("instructions", Json.Int o.Simulator.instructions);
      ("telemetry", Trace.to_json o.Simulator.telemetry);
    ]

let write_file path s =
  match open_out path with
  | exception Sys_error m ->
      Fmt.epr "cannot write %s: %s@." path m;
      exit Exit.usage_error
  | oc ->
      output_string oc s;
      output_char oc '\n';
      close_out oc

let write_json path json = write_file path (Json.to_string json)

(* The fields every single-program JSON report opens with. *)
let report_head name machine config =
  [
    ("program", Json.String name);
    ("machine", Json.String (Machine.name machine));
    ("level", Json.String (Fmt.str "%a" Config.pp_level config.Config.level));
  ]

(* Batch mode: schedule every file in DIR (plus nothing else) across a
   pool of [jobs] domains. Exit code 0 when the whole batch succeeds,
   5 when every failure is a budget timeout, 4 when any task actually
   crashed, mismatched, or failed to compile. *)
let run_batch dir jobs machine simulate elements seed deterministic stats_file
    config timeout =
  let entries =
    match Sys.readdir dir with
    | exception Sys_error m ->
        Fmt.epr "cannot read batch directory: %s@." m;
        exit Exit.usage_error
    | names ->
        Array.sort String.compare names;
        Array.to_list names
        |> List.filter (fun n -> not (Sys.is_directory (Filename.concat dir n)))
        |> List.map (fun n -> Driver.task_of_file (Filename.concat dir n))
  in
  if entries = [] then begin
    Fmt.epr "batch directory %s has no files@." dir;
    exit Exit.usage_error
  end;
  (* A stats report counts rule decisions, which each task tallies
     into a provenance table of its own. *)
  let prov = if stats_file <> None then Some (Provenance.create ()) else None in
  let report =
    Driver.run ~jobs ?timeout ~simulate ~elements ~seed machine
      { config with Config.prov } entries
  in
  Fmt.pr "batch %s: %d tasks, %d jobs@.%a" dir report.Driver.pool.Driver.tasks
    report.Driver.pool.Driver.jobs Driver.pp_table report;
  (* Fault-isolation post-mortem: each failed task carries its worker's
     flight-recorder ring — the last events before the failure. *)
  List.iter
    (fun (t : Driver.task_result) ->
      match t.Driver.outcome with
      | Error e when t.Driver.flight <> [] ->
          Fmt.epr "@.%s failed (%a); flight recorder, oldest first:@."
            t.Driver.task Driver.pp_error e;
          List.iter (fun m -> Fmt.epr "  %s@." m) t.Driver.flight
      | _ -> ())
    report.Driver.results;
  Option.iter
    (fun path ->
      let json =
        match Driver.report_to_json ~deterministic report with
        | Json.Obj fields ->
            Json.Obj
              (fields
              @ [
                  ( "metrics",
                    Counts.to_json ~deterministic (Driver.batch_counts report)
                  );
                ])
        | j -> j
      in
      write_json path json;
      Fmt.pr "@.stats written to %s@." path)
    stats_file;
  (* A batch that only ran out of budget is a different condition than
     one whose tasks crashed: timeouts say "give me more time", crashes
     say "the compiler is broken". *)
  match Driver.failures report with
  | [] -> exit Exit.ok
  | fails ->
      let timeout_only =
        List.for_all
          (fun (_, e) ->
            match e with Driver.Timed_out _ -> true | _ -> false)
          fails
      in
      exit
        (if timeout_only then Exit.batch_timeout_only
         else Exit.batch_partial_failure)

let run_gisc s batch jobs show_code simulate elements seed trace_issue
    trace_out pipeline_view deterministic stats_file timeout flight_cap =
  Option.iter
    (fun cap ->
      if cap < 1 then begin
        Fmt.epr "--flight-cap must be >= 1 (got %d)@." cap;
        exit Exit.usage_error
      end;
      Flight.set_default_capacity cap)
    flight_cap;
  let machine = s.machine in
  (match batch with
  | Some dir ->
      run_batch dir jobs machine simulate elements seed deterministic
        stats_file s.config timeout
  | None -> ());
  let sink, sink_events = Sink.memory () in
  (* A provenance table costs a hashtable insert per instruction and
     motion, so only attach one when a JSON report will use it. Same
     for the self-profiler: it feeds the stats report, the Chrome
     trace's profiler process and the --verbose phase times. *)
  let prov =
    if stats_file <> None then Some (Provenance.create ()) else None
  in
  let prof =
    if stats_file <> None || trace_out <> None || s.verbose then
      Some (Prof.create ())
    else None
  in
  let config = { s.config with Config.obs = sink; prov; prof } in
  let prof_root () =
    match prof with
    | None -> None
    | Some p -> ( match Prof.roots p with r :: _ -> Some r | [] -> None)
  in
  let want_trace = trace_issue || trace_out <> None || pipeline_view in
  let name, { Driver.cfg; stats; sim; _ } =
    run_one ~simulate ~trace:want_trace ~elements ~seed s config
  in
  Fmt.pr "%s: %d blocks, %d instructions; machine %a; level %a@." name
    (Cfg.num_blocks cfg) (Cfg.instr_count cfg) Machine.pp machine
    Config.pp_level config.Config.level;
  Fmt.pr "unrolled %d loops, rotated %d; %d interblock motions@."
    stats.Pipeline.unrolled stats.Pipeline.rotated
    (List.length (Pipeline.moves stats));
  Option.iter
    (fun alloc ->
      Fmt.pr "regalloc: %a@." Gis_regalloc.Regalloc.pp alloc)
    stats.Pipeline.regalloc;
  List.iter
    (fun m -> Fmt.pr "  %a@." Global_sched.pp_move m)
    (Pipeline.moves stats);
  if s.verbose then
    Option.iter
      (fun (root : Prof.node) ->
        List.iter
          (fun (n : Prof.node) ->
            Fmt.pr "  phase %s: %.6fs@." n.Prof.name
              (Prof.seconds_of_ns n.Prof.wall_ns))
          root.Prof.children)
      (prof_root ());
  if show_code then Fmt.pr "@.%a@." Cfg.pp cfg;
  if (trace_out <> None || pipeline_view) && not simulate then
    Fmt.epr "note: --trace-out and --pipeline-view need --simulate@.";
  let simulation =
    match sim with
    | None -> None
    | Some { Driver.baseline; input; base = ob; sched = os; _ } ->
      (* With --regalloc the scheduled code ran on physical names; the
         full post-allocation verifier checks it against the symbolic
         baseline. *)
      Option.iter
        (fun alloc ->
          match
            Gis_regalloc.Regalloc.verify ?gprs:config.Config.regs
              ?fprs:config.Config.regs ~machine
              ~baseline ~allocated:cfg alloc input
          with
          | Ok () -> Fmt.pr "regalloc: verified@."
          | Error m ->
              Fmt.epr "INTERNAL ERROR: allocation verifier failed: %s@." m;
              exit Exit.verification_failure)
        stats.Pipeline.regalloc;
      Fmt.pr "@.simulation (%d array elements):@." elements;
      Fmt.pr "  base      %7d cycles, %6d instructions@." ob.Simulator.cycles
        ob.Simulator.instructions;
      Fmt.pr "  scheduled %7d cycles, %6d instructions (%.1f%% faster)@."
        os.Simulator.cycles os.Simulator.instructions
        (100.0
        *. (1.0 -. (float_of_int os.Simulator.cycles /. float_of_int ob.Simulator.cycles)));
      Fmt.pr "  output: %a@."
        Fmt.(list ~sep:comma string)
        os.Simulator.output;
      (* Schedule-quality bound on the run we just simulated: how
         many of the achieved cycles were forced by dependences and
         unit capacity, and how many are attributable gap. *)
      let bounds =
        Gis_bounds.Bounds.compute ~machine
          ~halted:(os.Simulator.stop = Simulator.Halted)
          cfg os.Simulator.telemetry
      in
      Fmt.pr
        "  bound     %7d cycles lower bound (critical path %d, resources \
         %d); gap %d@."
        bounds.Gis_bounds.Bounds.lower_bound bounds.Gis_bounds.Bounds.cp_lb
        bounds.Gis_bounds.Bounds.res_lb bounds.Gis_bounds.Bounds.gap;
      Fmt.pr "@.stall breakdown (scheduled):@.";
      Report.pp_summary Fmt.stdout os.Simulator.telemetry;
      if trace_issue then begin
        Fmt.pr "@.issue trace (scheduled):@.";
        Report.pp_issue_diagram Fmt.stdout os.Simulator.telemetry
      end;
      if pipeline_view then begin
        Fmt.pr "@.pipeline view (scheduled):@.";
        Report.pp_pipeline Fmt.stdout os.Simulator.telemetry
      end;
      Option.iter
        (fun path ->
          write_file path
            (Chrome_trace.to_string ~process_name:name
               ?profile:(prof_root ())
               ~slack:(Gis_bounds.Bounds.slack_of_uid bounds)
               os.Simulator.telemetry);
          Fmt.pr "@.chrome trace written to %s (load in Perfetto)@." path)
        trace_out;
      Some (ob, os, bounds)
  in
  match stats_file with
  | None -> ()
  | Some path ->
      (* --deterministic: zero every wall-clock field so reports
         from different runs and machines diff cleanly. *)
      let report =
        Json.Obj
          (report_head name machine config
          @ [
             ("elements", Json.Int elements);
             ("seed", Json.Int seed);
             ( "metrics",
               Counts.to_json ~deterministic
                 (Driver.run_counts
                    ?sim:(Option.map (fun (_, os, _) -> os) simulation)
                    ?bounds:(Option.map (fun (_, _, b) -> b) simulation)
                    ~events:(sink_events ()) stats) );
             ( "profile",
               match prof_root () with
               | None -> Json.Null
               | Some r ->
                   Prof.to_json (if deterministic then Prof.scrub r else r)
             );
             ( "provenance",
               match prov with
               | None -> Json.Null
               | Some p -> Provenance.to_json p );
             ( "scheduler",
               Json.Obj
                 [
                   ("unrolled", Json.Int stats.Pipeline.unrolled);
                   ("rotated", Json.Int stats.Pipeline.rotated);
                   ( "moves",
                     Json.List (List.map move_to_json (Pipeline.moves stats))
                   );
                   ( "events",
                     Json.List
                       (List.map Sink.event_to_json (sink_events ())) );
                   ( "regalloc",
                     match stats.Pipeline.regalloc with
                     | None -> Json.Null
                     | Some a ->
                         Json.Obj
                           [
                             ( "spilled_regs",
                               Json.Int
                                 (List.length a.Gis_regalloc.Regalloc.spilled)
                             );
                             ( "spill_loads",
                               Json.Int a.Gis_regalloc.Regalloc.spill_loads );
                             ( "spill_stores",
                               Json.Int a.Gis_regalloc.Regalloc.spill_stores
                             );
                             ("slots", Json.Int a.Gis_regalloc.Regalloc.slots);
                             ( "classes",
                               Json.List
                                 (List.map
                                    (fun (s : Gis_regalloc.Regalloc.cls_stat) ->
                                      Json.Obj
                                        [
                                          ( "class",
                                            Json.String
                                              (Fmt.str "%a" Reg.pp_cls
                                                 s.Gis_regalloc.Regalloc.cls)
                                          );
                                          ( "budget",
                                            Json.Int
                                              s.Gis_regalloc.Regalloc.budget );
                                          ( "pressure",
                                            Json.Int
                                              s.Gis_regalloc.Regalloc.pressure
                                          );
                                          ( "used",
                                            Json.Int
                                              s.Gis_regalloc.Regalloc.used );
                                        ])
                                    a.Gis_regalloc.Regalloc.per_class) );
                           ] );
                 ] );
           ]
          @
          match simulation with
          | None -> []
          | Some (ob, os, bounds) ->
              [
                ( "simulation",
                  Json.Obj
                    [
                      ("base", outcome_to_json ob);
                      ("scheduled", outcome_to_json os);
                      ("bound", Gis_bounds.Bounds.to_json bounds);
                    ] );
              ])
      in
      write_json path report;
      Fmt.pr "@.stats written to %s@." path

(* `gisc explain`: provenance-tracked run of one program — where each
   final instruction came from and what the motions bought, block by
   block. The attribution identity (credits sum exactly to the base vs
   scheduled issue-cycle delta) is checked on every run. *)
let run_explain s elements seed json_file trace_out =
  let task = task_of_source s.source in
  let name = task.Driver.name in
  let trace = trace_out <> None in
  match
    Gis_driver.Explain.explain ~elements ~seed ~trace s.machine s.config task
  with
  | Error e -> exit_on_error name e
  | Ok e ->
      Fmt.pr "%a" Gis_driver.Explain.pp e;
      if not (Gis_driver.Explain.identity_holds e) then begin
        Fmt.epr
          "INTERNAL ERROR: cycle attribution does not sum to the base vs \
           scheduled issue delta@.";
        exit Exit.verification_failure
      end;
      Option.iter
        (fun path ->
          write_json path (Gis_driver.Explain.to_json e);
          Fmt.pr "@.explain report written to %s@." path)
        json_file;
      Option.iter
        (fun path ->
          write_file path
            (Chrome_trace.to_string ~process_name:name
               e.Gis_driver.Explain.sched_telemetry);
          Fmt.pr "@.chrome trace written to %s (load in Perfetto)@." path)
        trace_out

(* `gisc bound`: schedule-quality lower bounds for one program. The
   scheduled program is simulated once; from the checker's trusted
   dependence reconstruction we compute per-region critical-path and
   resource lower bounds, per-instruction slack, and the binding
   dependence edges, then attribute the distance between the achieved
   cycles and the bound per stall category under an exact accounting
   identity (exit 3 on violation). *)
let run_bound s elements seed top_k json_file =
  let machine = s.machine and config = s.config in
  let name, { Driver.cfg; sim; _ } = run_one ~elements ~seed s config in
  let os = (Option.get sim).Driver.sched in
  let bounds =
    Gis_bounds.Bounds.compute ~top_k ~disambig:config.Config.disambiguate
      ~machine
      ~halted:(os.Simulator.stop = Simulator.Halted)
      cfg os.Simulator.telemetry
  in
  Fmt.pr "== %s: schedule bounds (machine %a, level %a) ==@.%a" name
    Machine.pp machine Config.pp_level config.Config.level
    Gis_bounds.Bounds.pp bounds;
  Option.iter
    (fun path ->
      write_json path
        (Json.Obj
           (report_head name machine config
           @ [
               ("elements", Json.Int elements);
               ("seed", Json.Int seed);
               ("bound", Gis_bounds.Bounds.to_json bounds);
             ]));
      Fmt.pr "bound report written to %s@." path)
    json_file;
  if not (Gis_bounds.Bounds.identity_holds bounds) then begin
    Fmt.epr
      "INTERNAL ERROR: bound accounting identity violated (achieved <> \
       lower bound + attributed gap)@.";
    exit Exit.verification_failure
  end

(* `gisc check`: static certification of one program's schedule. The
   pipeline runs with the per-stage verification hook installed; every
   stage transition is checked against a dependence graph and
   control-dependence relation reconstructed independently from the
   stage's input, plus an IR lint over the source and final programs.
   No simulation is involved. Exit code 3 on any legality Error. The
   report holds no timing, so --deterministic (still accepted, as by
   every reporting subcommand) changes nothing. *)
let run_check s json_file _deterministic =
  let prov = Provenance.create () in
  let collector =
    Gis_check.Check.collector ~prov
  ~max_speculation_degree:s.config.Config.max_speculation_degree ()
  in
  let config =
    {
  s.config with
  Config.prov = Some prov;
  check = Some (Gis_check.Check.hook collector);
    }
  in
  let name, { Driver.compiled; cfg; stats = pstats; _ } =
    run_one ~simulate:false s config
  in
  (* The run scheduled a copy, so the compiled program is still the
     source the pipeline started from. *)
  let input_lint = Gis_check.Lint.run ~stage:"input" compiled.Codegen.cfg in
  let staged_slots =
    match pstats.Pipeline.regalloc with
    | Some alloc -> Gis_regalloc.Regalloc.staged_slots alloc
    | None -> []
  in
  let final_lint =
    Gis_check.Lint.run ~prov ~staged_slots ~stage:"final" cfg
  in
  let results =
    (("input", input_lint) :: Gis_check.Check.diagnostics collector)
    @ [ ("final", final_lint) ]
  in
  let all = List.concat_map snd results in
  let errors = Gis_check.Check.errors all in
  let stats = Gis_check.Check.stats collector in
  List.iter
    (fun (_, ds) ->
      List.iter (fun d -> Fmt.pr "%a@." Gis_check.Diagnostic.pp d) ds)
    results;
  if all <> [] then
    List.iter
      (fun (rule, n) -> Fmt.pr "  %4d %s@." n rule)
      (Gis_check.Diagnostic.counts all);
  Fmt.pr
    "check %s: %d stages, %d dependences checked, %d motions classified; \
     %d errors, %d warnings@."
    name stats.Gis_check.Check.stages
    stats.Gis_check.Check.deps_checked
    stats.Gis_check.Check.motions_classified (List.length errors)
    (List.length all - List.length errors);
  Option.iter
    (fun path ->
      let json =
        match Gis_check.Check.report_to_json ~stats results with
        | Json.Obj fields ->
            Json.Obj
              (("program", Json.String name)
               :: ( "level",
                    Json.String
                      (Fmt.str "%a" Config.pp_level config.Config.level) )
               :: fields)
        | j -> j
      in
      write_json path json;
      Fmt.pr "diagnostics written to %s@." path)
    json_file;
  if errors <> [] then exit Exit.verification_failure

(* `gisc profile`: self-profiling run of one program — wall clock,
   allocation and GC collections attributed per pipeline phase and per
   compiled region, under the exact accounting identity of
   [Gis_obs.Prof] (checked on every run; exit 3 on violation). *)
let run_profile s json_file folded_file folded_alloc trace_file deterministic =
  let machine = s.machine in
  let prof = Prof.create () in
  let config = { s.config with Config.prof = Some prof } in
  let name, { Driver.cfg; stats; _ } = run_one ~simulate:false s config in
  match Prof.roots prof with
  | [] ->
      Fmt.epr "INTERNAL ERROR: pipeline recorded no profile tree@.";
      exit Exit.verification_failure
  | root :: _ as roots ->
      Fmt.pr "%s: %d blocks, %d instructions; level %a; %d motions@." name
        (Cfg.num_blocks cfg) (Cfg.instr_count cfg) Config.pp_level
        config.Config.level
        (List.length (Pipeline.moves stats));
      Fmt.pr "@.%a@." Prof.pp root;
      if not (List.for_all Prof.identity_ok roots) then begin
        Fmt.epr
          "INTERNAL ERROR: profile accounting identity violated (self \
           values do not sum to the root totals)@.";
        exit Exit.verification_failure
      end;
      Fmt.pr "@.profile: %d nodes, accounting identity holds@."
        (Prof.node_count root);
      Option.iter
        (fun path ->
          let node = if deterministic then Prof.scrub root else root in
          write_json path
            (Json.Obj
               (report_head name machine config
               @ [ ("profile", Prof.to_json node) ]));
          Fmt.pr "profile written to %s@." path)
        json_file;
      Option.iter
        (fun path ->
          let metric = if folded_alloc then `Alloc else `Wall in
          write_file path (String.concat "\n" (Prof.folded ~metric root));
          Fmt.pr "folded stacks written to %s (flamegraph.pl/speedscope)@."
            path)
        folded_file;
      Option.iter
        (fun path ->
          write_file path (Chrome_trace.profile_to_string root);
          Fmt.pr "profile trace written to %s (load in Perfetto)@." path)
        trace_file

let source_arg =
  let file =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Tiny-C source file.")
  in
  let workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "w"; "workload" ] ~docv:"NAME"
          ~doc:"Built-in workload: minmax, li, eqntott, espresso, gcc.")
  in
  let combine file workload =
    match file, workload with
    | Some f, None -> Ok (From_file f)
    | None, Some w -> Ok (Workload w)
    | None, None -> Ok (Workload "minmax")
    | Some _, Some _ -> Error (`Msg "give either FILE or --workload, not both")
  in
  Term.(term_result (const combine $ file $ workload))

let level_arg =
  Arg.(
    value & opt string "speculative"
    & info [ "l"; "level" ] ~docv:"LEVEL"
        ~doc:"Scheduling level: local, useful, or speculative.")

let width_arg =
  Arg.(
    value & opt int 1
    & info [ "width" ] ~docv:"N"
        ~doc:"Issue width: 1 selects the RS/6000 model, larger values a \
              superscalar with N units of each type.")

let show_code_arg =
  Arg.(value & flag & info [ "show-code" ] ~doc:"Print the scheduled code.")

let simulate_arg =
  Arg.(value & flag & info [ "simulate" ] ~doc:"Simulate base vs scheduled.")

let elements_arg =
  Arg.(
    value & opt int 128
    & info [ "elements" ] ~docv:"N" ~doc:"Array elements for simulation inputs.")

let seed_arg =
  Arg.(
    value & opt int 3
    & info [ "seed" ] ~docv:"N"
        ~doc:"PRNG seed for the default simulation input arrays.")

let trace_issue_arg =
  Arg.(
    value & flag
    & info [ "trace-issue" ]
        ~doc:"With --simulate, print the cycle-by-cycle issue diagram of \
              the scheduled program (which instruction issued on which \
              unit, and the binding stall reason for silent cycles).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"With $(b,--simulate), write the scheduled run's issue trace \
              as Chrome trace-event JSON to $(docv): one track per \
              functional unit, each dynamic instruction a complete slice \
              from issue to completion, attributed stalls as instant \
              events. Load in Perfetto or chrome://tracing.")

let pipeline_view_arg =
  Arg.(
    value & flag
    & info [ "pipeline-view" ]
        ~doc:"With $(b,--simulate), print an ASCII pipeline occupancy view \
              of the scheduled run: one row per functional unit, $(b,#) \
              issue, $(b,=) executing, $(b,.) idle.")

let stats_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "stats" ] ~docv:"FILE"
        ~doc:"Write a machine-readable JSON report: the compiler's \
              self-profile (wall clock and allocation per pipeline \
              phase), decision trace, the scheduled run's counts, \
              interblock motions, and (with --simulate) \
              stall-attributed simulation telemetry.")

let verbose_arg =
  Arg.(value & flag & info [ "verbose" ] ~doc:"Scheduler debug logging.")

let batch_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "batch" ] ~docv:"DIR"
        ~doc:"Compile and schedule every file in $(docv) as one batch \
              ($(b,.s) files as pseudo-assembly, the rest as Tiny-C), \
              spread across $(b,--jobs) worker domains. Results are \
              deterministic in the job count. Exit code 4 means some \
              tasks failed but the pool survived.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Worker domains for $(b,--batch) (default 1).")

let regalloc_arg =
  Arg.(
    value & flag
    & info [ "regalloc" ]
        ~doc:"Run linear-scan register allocation after scheduling: rewrite \
              the code onto the machine's physical register file, insert \
              spill loads/stores where it overflows, and (with \
              $(b,--simulate)) verify the allocated code against the \
              symbolic baseline.")

let pressure_aware_arg =
  Arg.(
    value & flag
    & info [ "pressure-aware" ]
        ~doc:"Prepend a register-pressure priority rule to the scheduler: \
              among ready candidates, prefer the one whose upward motion \
              imports fewest new live ranges into a block already at its \
              register budget.")

let regs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "regs" ] ~docv:"N"
        ~doc:"Override the machine's GPR and FPR file sizes with $(docv) \
              each, for $(b,--regalloc) and $(b,--pressure-aware) \
              experiments. Condition registers keep the machine's count.")

let no_disambig_arg =
  Arg.(
    value & flag
    & info [ "no-disambig" ]
        ~doc:"Disable symbolic memory disambiguation: dependence graphs \
              (scheduler and bound sides) keep every Mem edge the \
              syntactic same-base rule cannot rule out, instead of \
              consulting the whole-procedure affine address analysis. \
              The control configuration of the A1 disambiguation \
              experiment.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"Wall-clock budget for $(b,--batch): tasks dequeued after the \
              budget is spent are marked timed out without running. A batch \
              whose only failures are timeouts exits with code 5.")

let flight_cap_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "flight-cap" ] ~docv:"N"
        ~doc:"Capacity of each worker domain's flight-recorder ring \
              (default 64): the number of recent scheduler events kept \
              for the post-mortem dump when a $(b,--batch) task crashes \
              or times out.")

let deterministic_arg =
  Arg.(
    value & flag
    & info [ "deterministic" ]
        ~doc:"Zero all wall-clock timing fields in $(b,--stats) output so \
              reports diff stably across runs, machines, and job counts.")

let explain_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the explain report (per-instruction provenance, \
              motion-kind counts, per-block cycle attribution) as JSON to \
              $(docv).")

(* `gisc fuzz`: the differential fuzzing campaign. Each seed in the
   window denotes one random Tiny-C program + input; its observable
   trace must survive every (level x regalloc x machine) cell of the
   matrix, with the static legality checker hooked into every pipeline
   run. Findings are shrunk to minimal reproducers and written to the
   corpus directory. Exit 6 when the campaign found anything. *)
let run_fuzz seeds start corpus max_findings shrink_fuel jobs grammar
    no_disambig json_file verbose =
  init_logs verbose;
  if seeds <= 0 then begin
    Fmt.epr "gisc fuzz: --seeds must be positive@.";
    exit Exit.usage_error
  end;
  let params =
    match grammar with
    | "default" -> Gis_workloads.Random_prog.default
    | "hardened" -> Gis_workloads.Random_prog.hardened
    | g ->
        Fmt.epr "gisc fuzz: unknown grammar %S (default|hardened)@." g;
        exit Exit.usage_error
  in
  let report =
    Gis_fuzz.Fuzz.campaign ~params ~max_findings ~shrink_fuel ~jobs
      ~log:(fun line -> Fmt.pr "FINDING %s@." line)
      ~disambig:(not no_disambig) ~start ~seeds ()
  in
  Option.iter
    (fun path -> write_json path (Gis_fuzz.Fuzz.report_to_json report))
    json_file;
  match report.Gis_fuzz.Fuzz.findings with
  | [] ->
      Fmt.pr "fuzz: %d seeds x %d cells, no findings@."
        report.Gis_fuzz.Fuzz.seeds_run report.Gis_fuzz.Fuzz.cells_per_seed
  | findings ->
      let paths = Gis_fuzz.Corpus.write_all ~dir:corpus findings in
      List.iter (fun p -> Fmt.pr "reproducer written to %s@." p) paths;
      Fmt.pr "fuzz: %d seeds x %d cells, %d finding%s@."
        report.Gis_fuzz.Fuzz.seeds_run report.Gis_fuzz.Fuzz.cells_per_seed
        (List.length findings)
        (if List.length findings = 1 then "" else "s");
      exit Exit.fuzz_finding

(* The flags every compiling subcommand shares. [gisc profile] has no
   --no-disambig, so it passes [Term.const false] instead. *)
let setup_term ?(no_disambig = no_disambig_arg) () =
  Term.(
    const setup $ source_arg $ level_arg $ width_arg $ regalloc_arg
    $ pressure_aware_arg $ regs_arg $ no_disambig $ verbose_arg)

let main_term =
  Term.(
    const run_gisc $ setup_term () $ batch_arg $ jobs_arg $ show_code_arg
    $ simulate_arg $ elements_arg $ seed_arg $ trace_issue_arg
    $ trace_out_arg $ pipeline_view_arg $ deterministic_arg $ stats_arg
    $ timeout_arg $ flight_cap_arg)

(* The exit statuses every command's man page lists. *)
let exits =
  List.map (fun c -> Cmd.Exit.info c ~doc:(Exit.describe c)) Exit.all
  @ [ Cmd.Exit.info Cmd.Exit.internal_error ~doc:"uncaught exception" ]

let explain_cmd =
  let doc =
    "show where every scheduled instruction came from (motion kind, \
     priority scores, unroll copy) and attribute the cycle savings per \
     block"
  in
  Cmd.v
    (Cmd.info "explain" ~doc ~exits)
    Term.(
      const run_explain $ setup_term () $ elements_arg $ seed_arg
      $ explain_json_arg $ trace_out_arg)

let profile_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the profile tree (per-phase and per-region wall clock, \
              allocation, GC collections, self and total) as JSON to \
              $(docv).")

let folded_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "folded" ] ~docv:"FILE"
        ~doc:"Write folded-stack lines ($(b,pipeline;global-pass1;region-0 \
              VALUE)) to $(docv) — the input format of flamegraph.pl and \
              speedscope.")

let folded_alloc_arg =
  Arg.(
    value & flag
    & info [ "alloc" ]
        ~doc:"With $(b,--folded), weight stacks by self allocated bytes \
              instead of self wall-clock nanoseconds.")

let profile_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write the profile as standalone Chrome trace-event JSON to \
              $(docv): one slice track of phases and regions plus \
              allocation and GC counter tracks. Load in Perfetto.")

let profile_cmd =
  let doc =
    "profile the compiler itself: attribute wall clock, allocation and GC \
     collections to every pipeline phase and compiled region, under an \
     exact accounting identity (self values sum back to the run totals; \
     exits 3 if they do not)"
  in
  Cmd.v
    (Cmd.info "profile" ~doc ~exits)
    Term.(
      const run_profile
      $ setup_term ~no_disambig:(const false) ()
      $ profile_json_arg $ folded_arg $ folded_alloc_arg $ profile_trace_arg
      $ deterministic_arg)

let bound_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the bound report (program and per-region lower \
              bounds, slack, binding edges, gap attribution per stall \
              category) as JSON to $(docv).")

let top_k_arg =
  Arg.(
    value & opt int 5
    & info [ "top-k" ] ~docv:"N"
        ~doc:"Binding dependence edges kept per region, ranked by how \
              close the edge is to the region's critical path \
              (default 5).")

let bound_cmd =
  let doc =
    "lower-bound the achieved schedule: from an independently \
     reconstructed dependence graph, compute per-region critical-path \
     and unit-capacity lower bounds, per-instruction slack and the \
     binding dependence edges, then attribute the gap between achieved \
     cycles and the bound per stall category under an exact accounting \
     identity (exits 3 if it does not hold)"
  in
  Cmd.v
    (Cmd.info "bound" ~doc ~exits)
    Term.(
      const run_bound $ setup_term () $ elements_arg $ seed_arg $ top_k_arg
      $ bound_json_arg)

let check_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the structured diagnostics (per stage, with rule \
              counts and checker statistics) as JSON to $(docv).")

let check_cmd =
  let doc =
    "statically certify a schedule: re-derive the dependence graph and \
     control dependences of every pipeline stage's input, verify the \
     stage's output preserves them, classify each cross-block motion \
     against the paper's speculation rules, and lint the IR — no \
     simulation involved; exits 3 on any legality violation"
  in
  Cmd.v
    (Cmd.info "check" ~doc ~exits)
    Term.(
      const run_check $ setup_term () $ check_json_arg $ deterministic_arg)

let fuzz_seeds_arg =
  Arg.(
    value & opt int 500
    & info [ "seeds" ] ~docv:"N"
        ~doc:"Number of consecutive seeds to fuzz.")

let fuzz_start_arg =
  Arg.(
    value & opt int 0
    & info [ "start" ] ~docv:"N"
        ~doc:"First seed of the window (campaigns are deterministic in \
              the window, so disjoint windows explore disjoint programs).")

let fuzz_corpus_arg =
  Arg.(
    value & opt string "fuzz-corpus"
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:"Directory shrunk reproducers are written to (created if \
              missing). Each finding becomes one runnable Tiny-C file \
              with its provenance in a comment header.")

let fuzz_max_findings_arg =
  Arg.(
    value & opt int 5
    & info [ "max-findings" ] ~docv:"N"
        ~doc:"Stop the campaign after $(docv) findings.")

let fuzz_shrink_fuel_arg =
  Arg.(
    value & opt int Gis_fuzz.Shrink.default_fuel
    & info [ "shrink-fuel" ] ~docv:"N"
        ~doc:"Budget of candidate evaluations per shrink.")

let fuzz_jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:"Detect $(docv) seeds concurrently on separate domains. \
              Findings are identical at any job count.")

let fuzz_grammar_arg =
  Arg.(
    value & opt string "hardened"
    & info [ "grammar" ] ~docv:"NAME"
        ~doc:"Program-generator grammar: $(b,hardened) (the campaign \
              default: calls with argument expressions, do/while, \
              masked wild array indices, extra pressure) or \
              $(b,default) (the plain generator — wild indices \
              unmasked, so out-of-bounds loads stress the spill \
              segment isolation).")

let fuzz_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the campaign report (seeds run, matrix size, every \
              finding with its shrunk program) as JSON to $(docv).")

let fuzz_cmd =
  let doc =
    "differential fuzzing: random Tiny-C programs through every \
     level/regalloc/machine cell of a parametric matrix, each schedule \
     statically checked and its observable trace compared against the \
     unscheduled reference; findings are delta-debugged to minimal \
     reproducers in the corpus directory (exit 6 if any)"
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc ~exits)
    Term.(
      const run_fuzz $ fuzz_seeds_arg $ fuzz_start_arg $ fuzz_corpus_arg
      $ fuzz_max_findings_arg $ fuzz_shrink_fuel_arg $ fuzz_jobs_arg
      $ fuzz_grammar_arg $ no_disambig_arg $ fuzz_json_arg $ verbose_arg)

let cmd =
  let doc =
    "global instruction scheduling for superscalar machines (Bernstein & \
     Rodeh, PLDI 1991)"
  in
  Cmd.group ~default:main_term
    (Cmd.info "gisc" ~version:"1.0.0" ~doc ~exits)
    [ explain_cmd; bound_cmd; check_cmd; profile_cmd; fuzz_cmd ]

(* A command line cmdliner cannot parse is a usage error, as every
   other bad flag is. *)
let () =
  let code = Cmd.eval ~term_err:Exit.usage_error cmd in
  exit (if code = Cmd.Exit.cli_error then Exit.usage_error else code)
