(* The traced run's view of the compiler: the pipeline driven stage by
   stage through public calls, in the order Pipeline.run_phases uses,
   with a span around every call into a layer and counters taken at the
   same boundaries.

   Global_sched.schedule computes the symbolic address analysis once per
   pass and one dependence graph per scheduled region internally, out of
   reach of a span. Both are replayed on a snapshot of each pass's input
   as [Replay] spans, so their cost is priced without being subtracted
   from the pass. Later regions of a pass see a graph already changed by
   earlier ones, so the replay is an estimate of that share, not a
   measurement of it. *)

open Gis_ir
open Gis_core
module Regions = Gis_analysis.Regions
module Symaddr = Gis_analysis.Symaddr
module Ddg = Gis_ddg.Ddg
module Simulator = Gis_sim.Simulator
module Regalloc = Gis_regalloc.Regalloc
module Check = Gis_check.Check
module Fuzz = Gis_fuzz.Fuzz
module Driver = Gis_driver.Driver
module Codegen = Gis_frontend.Codegen

(* Work counted per traced run; divided by the traced rounds at the end. *)
type counts = {
  mutable symaddr_calls : int;
  mutable ddg_builds : int;
  mutable ddg_edges : int;
  mutable mem_kept : int;
  mutable mem_pruned : int;
  mutable regions_scheduled : int;
  mutable regions_skipped : int;
  mutable moves : int;
  mutable spec_moves : int;
  mutable spilled_regs : int;
  mutable spill_instrs : int;
  mutable check_stages : int;
  mutable deps_checked : int;
  mutable sim_runs : int;
  mutable dyn_instrs : int;
  mutable tokens : int;
  mutable cells : int;
  mutable findings : int;
  mutable base_cycles : int;  (** BASE side of every (BASE, speculative) pair *)
  mutable spec_cycles : int;
}

type t = { tr : Spans.t; c : counts }

let create () =
  {
    tr = Spans.create ();
    c =
      {
        symaddr_calls = 0; ddg_builds = 0; ddg_edges = 0; mem_kept = 0;
        mem_pruned = 0; regions_scheduled = 0; regions_skipped = 0; moves = 0;
        spec_moves = 0; spilled_regs = 0; spill_instrs = 0; check_stages = 0;
        deps_checked = 0; sim_runs = 0; dyn_instrs = 0; tokens = 0; cells = 0;
        findings = 0; base_cycles = 0; spec_cycles = 0;
      };
  }

let span t name f = Spans.record t.tr name f

(* [input] is a deep copy of the pass's input with its own region
   analysis: deep copies renumber blocks in layout order, so the live
   regions are matched to the copy's by entry label. *)
let replay t machine (config : Config.t) ~live ~live_regions (input, input_regions)
    reports =
  let key cfg (r : Regions.region) =
    ((Cfg.block cfg r.Regions.entry_block).Block.label, r.Regions.loop = None)
  in
  let copies = Hashtbl.create 16 in
  List.iter
    (fun r -> Hashtbl.replace copies (key input r) r)
    (Regions.regions input_regions);
  let sym =
    if config.Config.disambiguate then begin
      t.c.symaddr_calls <- t.c.symaddr_calls + 1;
      Some
        (Spans.record ~kind:Replay t.tr "symaddr" (fun () -> Symaddr.compute input))
    end
    else None
  in
  List.iter2
    (fun region (r : Global_sched.region_report) ->
      if r.Global_sched.scheduled then begin
        let region = Hashtbl.find copies (key live region) in
        let ddg =
          Spans.record ~kind:Replay t.tr "ddg" (fun () ->
              let view = Regions.view input input_regions region in
              let ddg = Ddg.build ?sym input machine input_regions view in
              if config.Config.prune_transitive then
                ignore (Ddg.prune_transitive ddg);
              ddg)
        in
        t.c.ddg_builds <- t.c.ddg_builds + 1;
        t.c.ddg_edges <- t.c.ddg_edges + Ddg.num_edges ddg;
        t.c.mem_kept <- t.c.mem_kept + Ddg.mem_kept ddg;
        t.c.mem_pruned <- t.c.mem_pruned + Ddg.mem_pruned ddg
      end)
    (Regions.regions live_regions) reports

let count_pass t only regions reports =
  List.iter2
    (fun region (r : Global_sched.region_report) ->
      if r.Global_sched.scheduled then
        t.c.regions_scheduled <- t.c.regions_scheduled + 1
      else if only region then t.c.regions_skipped <- t.c.regions_skipped + 1;
      List.iter
        (fun (m : Global_sched.move) ->
          t.c.moves <- t.c.moves + 1;
          if m.Global_sched.speculative then t.c.spec_moves <- t.c.spec_moves + 1)
        r.Global_sched.moves)
    (Regions.regions regions) reports

(* Pipeline.run, stage by stage; returns the allocation when
   [config.regalloc] is set. Raises Regalloc.Infeasible exactly where
   the pipeline does. *)
let pipeline t machine (config : Config.t) cfg =
  let snapshot () =
    match config.Config.check with
    | Some _ -> Some (span t "check" (fun () -> Cfg.deep_copy cfg))
    | None -> None
  in
  let stage name run =
    let pre = snapshot () in
    let v = run () in
    (match (config.Config.check, pre) with
    | Some f, Some pre -> f ~stage:name ~pre ~post:cfg
    | _ -> ());
    v
  in
  let global = config.Config.level <> Config.Local in
  let regions_cache = ref None in
  let regions () =
    match !regions_cache with
    | Some r -> r
    | None ->
        let r = span t "regions" (fun () -> Regions.compute cfg) in
        regions_cache := Some r;
        r
  in
  let global_pass ~span_name ~stage_name only =
    let input =
      Spans.record ~kind:Replay t.tr "snapshot" (fun () ->
          let copy = Cfg.deep_copy cfg in
          (copy, Regions.compute copy))
    in
    let reports =
      span t span_name (fun () ->
          stage stage_name (fun () ->
              Global_sched.schedule ~only ~regions:(regions ()) machine config cfg))
    in
    replay t machine config ~live:cfg ~live_regions:(regions ()) input reports;
    count_pass t only (regions ()) reports
  in
  let small = config.Config.small_loop_blocks in
  if global && config.Config.unroll_small_loops then
    span t "unroll" (fun () ->
        stage "unroll" (fun () ->
            ignore (Unroll.unroll_small_inner_loops ~max_blocks:small cfg)));
  if global then
    global_pass ~span_name:"global_sched.pass1" ~stage_name:"global-pass1"
      Global_sched.is_inner_region;
  let rotated =
    if global && config.Config.rotate_small_loops then
      span t "rotate" (fun () ->
          stage "rotate" (fun () ->
              Rotate.rotate_small_inner_loops ~max_blocks:small cfg))
    else 0
  in
  if rotated > 0 then regions_cache := None;
  if global then
    global_pass ~span_name:"global_sched.pass2" ~stage_name:"global-pass2"
      (fun r -> rotated > 0 || not (Global_sched.is_inner_region r));
  if config.Config.local_post_pass then
    span t "local_sched" (fun () ->
        stage "local" (fun () ->
            Local_sched.schedule_cfg ~rules:config.Config.rules
              ~obs:config.Config.obs ~disambig:config.Config.disambiguate
              (Option.value ~default:machine config.Config.local_machine)
              cfg));
  if not config.Config.regalloc then None
  else begin
    let alloc =
      span t "regalloc" (fun () ->
          stage "regalloc" (fun () ->
              match
                Regalloc.allocate ?gprs:config.Config.regs
                  ?fprs:config.Config.regs machine cfg
              with
              | Ok alloc -> alloc
              | Error msg -> raise (Regalloc.Infeasible msg)))
    in
    t.c.spilled_regs <- t.c.spilled_regs + List.length alloc.Regalloc.spilled;
    t.c.spill_instrs <-
      t.c.spill_instrs + alloc.Regalloc.spill_loads + alloc.Regalloc.spill_stores;
    Some alloc
  end

let simulate t ?frame machine cfg input =
  let o = span t "simulator" (fun () -> Simulator.run ?frame machine cfg input) in
  t.c.sim_runs <- t.c.sim_runs + 1;
  t.c.dyn_instrs <- t.c.dyn_instrs + o.Simulator.instructions;
  o

(* Compile [src] at BASE and at the speculative level and simulate both:
   the staged twin of Workloads.compile_and_run, returning the same
   (base, spec, base outcome, spec outcome). *)
let program t machine ~tokens src input =
  Label.reset_fresh_counter ();
  let compiled = span t "frontend" (fun () -> Codegen.compile_string src) in
  t.c.tokens <- t.c.tokens + tokens;
  let base = Cfg.deep_copy compiled.Codegen.cfg in
  ignore (span t "compile.base" (fun () -> pipeline t machine Config.base base));
  let spec = compiled.Codegen.cfg in
  ignore
    (span t "compile.spec" (fun () -> pipeline t machine Config.speculative spec));
  let ob = simulate t machine base input in
  let os = simulate t machine spec input in
  t.c.base_cycles <- t.c.base_cycles + ob.Simulator.cycles;
  t.c.spec_cycles <- t.c.spec_cycles + os.Simulator.cycles;
  (base, spec, ob, os)

let config_of_level = function
  | Config.Local -> Config.base
  | Config.Useful -> Config.useful_only
  | Config.Speculative -> Config.speculative

let compile_span_of_level = function
  | Config.Local -> "compile.base"
  | Config.Useful -> "compile.useful"
  | Config.Speculative -> "compile.spec"

(* Fuzz.run_cell, stage by stage, with Check.hook wrapped in a "check"
   span and passed as Config.check. Returns the verdict and the
   simulated cycles of the scheduled code when it ran. *)
let fuzz_cell t (cell : Fuzz.cell) compiled input ~reference =
  let cycles = ref None in
  let verdict =
    match
      let cfg = Cfg.deep_copy compiled.Codegen.cfg in
      let base_config = config_of_level cell.Fuzz.level in
      let collector =
        Check.collector
          ~max_speculation_degree:base_config.Config.max_speculation_degree ()
      in
      let hook ~stage ~pre ~post =
        span t "check" (fun () -> Check.hook collector ~stage ~pre ~post)
      in
      let regs = Fuzz.regalloc_regs in
      let config =
        {
          base_config with
          Config.regalloc = cell.Fuzz.regalloc;
          regs = (if cell.Fuzz.regalloc then Some regs else None);
          disambiguate = true;
          check = Some hook;
        }
      in
      let alloc =
        span t (compile_span_of_level cell.Fuzz.level) (fun () ->
            pipeline t cell.Fuzz.machine config cfg)
      in
      let stats = Check.stats collector in
      t.c.check_stages <- t.c.check_stages + stats.Check.stages;
      t.c.deps_checked <- t.c.deps_checked + stats.Check.deps_checked;
      span t "check" (fun () -> Validate.check_exn cfg);
      let errors =
        List.concat_map
          (fun (stage, ds) ->
            List.map
              (fun d -> Fmt.str "%s: %a" stage Gis_check.Diagnostic.pp d)
              (Check.errors ds))
          (Check.diagnostics collector)
      in
      let finish ?frame input =
        let o = simulate t ?frame cell.Fuzz.machine cfg input in
        cycles := Some o.Simulator.cycles;
        let got = Simulator.observables o in
        if String.equal got reference then Ok ()
        else Error (Fuzz.Divergence { expected = reference; got })
      in
      if errors <> [] then Error (Fuzz.Check_failure errors)
      else
        match alloc with
        | None -> finish input
        | Some alloc -> (
            match
              span t "regalloc.verify" (fun () ->
                  Regalloc.verify ~gprs:regs ~fprs:regs ~machine:cell.Fuzz.machine
                    ~baseline:compiled.Codegen.cfg ~allocated:cfg alloc input)
            with
            | Error msg ->
                Error (Fuzz.Check_failure [ Fmt.str "regalloc verifier: %s" msg ])
            | Ok () ->
                finish ?frame:alloc.Regalloc.frame (Regalloc.remap_input alloc input))
    with
    | r -> r
    | exception Regalloc.Infeasible _ -> Ok ()
    | exception e -> Error (Fuzz.Crash (Printexc.to_string e))
  in
  t.c.cells <- t.c.cells + 1;
  if Result.is_error verdict then t.c.findings <- t.c.findings + 1;
  (verdict, !cycles)

type task_output = {
  code : string;
  base_observables : string;
  sched_observables : string;
  base_cycles : int;
  sched_cycles : int;
}

(* One batch task as Driver.run_task runs it (BASE compile, scheduled
   compile under [config], validation, both simulations), stage by
   stage. *)
let batch_task t machine config ~tokens ~elements ~seed (task : Driver.task) =
  let name = task.Driver.name in
  Label.reset_fresh_counter ();
  Gis_obs.Flight.clear ();
  Gis_obs.Flight.notef "task %s: start" name;
  let compiled =
    (* A generated task is drawn and lowered from an AST, never lexed. *)
    let name =
      match task.Driver.source with
      | Driver.Generated _ -> "frontend.generated"
      | Driver.Tiny_c _ | Driver.Asm _ | Driver.File _ -> "frontend"
    in
    span t name (fun () -> Driver.compile_task task)
  in
  t.c.tokens <- t.c.tokens + tokens;
  Gis_obs.Flight.notef "task %s: compiled, %d blocks" name
    (Cfg.num_blocks compiled.Codegen.cfg);
  (* The pool records every scheduler event of a task in memory and in
     the flight recorder; so does the replay. *)
  let events, _ = Gis_obs.Sink.memory () in
  let config =
    { config with Config.obs = Gis_obs.Sink.tee events (Gis_obs.Flight.sink ()) }
  in
  let baseline = Cfg.deep_copy compiled.Codegen.cfg in
  ignore (span t "compile.base" (fun () -> pipeline t machine Config.base baseline));
  let cfg = Cfg.deep_copy compiled.Codegen.cfg in
  let alloc = span t "compile.spec" (fun () -> pipeline t machine config cfg) in
  span t "check" (fun () -> Validate.check_exn cfg);
  Gis_obs.Flight.notef "task %s: scheduled, simulating" name;
  let input =
    match task.Driver.source with
    | Driver.Generated g -> Gis_workloads.Random_prog.random_input ~seed:g compiled
    | Driver.Tiny_c _ | Driver.Asm _ | Driver.File _ ->
        Driver.default_input compiled ~elements ~seed
  in
  let sched_input, frame =
    match alloc with
    | Some a -> (Regalloc.remap_input a input, a.Regalloc.frame)
    | None -> (input, None)
  in
  let ob = simulate t machine baseline input in
  let os = simulate t ?frame machine cfg sched_input in
  t.c.base_cycles <- t.c.base_cycles + ob.Simulator.cycles;
  t.c.spec_cycles <- t.c.spec_cycles + os.Simulator.cycles;
  {
    code = Fmt.str "%a" Cfg.pp cfg;
    base_observables = Simulator.observables ob;
    sched_observables = Simulator.observables os;
    base_cycles = ob.Simulator.cycles;
    sched_cycles = os.Simulator.cycles;
  }
