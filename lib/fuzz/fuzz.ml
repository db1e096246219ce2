open Gis_ir
open Gis_machine
open Gis_core
open Gis_frontend
open Gis_workloads

(* Differential fuzzing: one seed denotes one random Tiny-C program and
   one random input; its observable trace (stop reason, call outputs,
   final memories) is computed once on the unscheduled code under the
   narrow reference machine, then every (level x regalloc x machine)
   cell of the matrix must reproduce it exactly, pass the static
   legality checker, and keep the IR well-formed. Anything else is a
   finding, which the shrinker reduces to a minimal reproducer. *)

type kind =
  | Divergence of { expected : string; got : string }
  | Check_failure of string list
  | Crash of string

let kind_label = function
  | Divergence _ -> "divergence"
  | Check_failure _ -> "check-failure"
  | Crash _ -> "crash"

(* The shrinking predicate keys on the failure class, not the exact
   payload: the minimal program rarely diverges with the very same
   trace as the original. *)
let same_kind a b =
  match (a, b) with
  | Divergence _, Divergence _
  | Check_failure _, Check_failure _
  | Crash _, Crash _ ->
      true
  | _ -> false

type cell = { level : Config.level; regalloc : bool; machine : Machine.t }

let level_name = function
  | Config.Local -> "base"
  | Config.Useful -> "useful"
  | Config.Speculative -> "speculative"

let slug s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> Char.lowercase_ascii c
      | _ -> '-')
    s

let cell_name c =
  Fmt.str "%s_%s_%s" (level_name c.level)
    (slug (Machine.name c.machine))
    (if c.regalloc then "ra" else "sym")

let pp_cell ppf c =
  Fmt.pf ppf "level=%s machine=%s regalloc=%s" (level_name c.level)
    (Machine.name c.machine)
    (if c.regalloc then "on" else "off")

(* The machine matrix of the paper's closing remark: the RS/6000
   reference, wider superscalars (every unit type replicated), a
   latency-stretched single-issue machine, and an asymmetric unit mix.
   Register allocation runs against an 8-register file on the narrowest
   and a wide machine — the two ends where spill placement interacts
   differently with the schedule. *)
let slow_machine =
  Machine.make ~name:"slow3x" ~fixed_units:1 ~float_units:1 ~branch_units:1
    ~exec_time:Machine.rs6k_exec_time
    ~delay:(fun ~producer ~consumer ~reg ->
      3 * Machine.rs6k_delay ~producer ~consumer ~reg)
    ()

let lopsided_machine =
  Machine.make ~name:"lopsided4-1-1" ~fixed_units:4 ~float_units:1
    ~branch_units:1 ()

let machines =
  [
    Machine.rs6k;
    Machine.superscalar ~width:2;
    Machine.superscalar ~width:4;
    Machine.superscalar ~width:8;
    slow_machine;
    lopsided_machine;
  ]

let regalloc_machines = [ Machine.rs6k; Machine.superscalar ~width:4 ]
let levels = [ Config.Local; Config.Useful; Config.Speculative ]

let cells =
  List.concat_map
    (fun level ->
      List.map (fun machine -> { level; regalloc = false; machine }) machines
      @ List.map
          (fun machine -> { level; regalloc = true; machine })
          regalloc_machines)
    levels

(* Registers regalloc cells target: small enough to force spills on
   hardened programs, large enough for the allocator's base + 3 scratch
   reservation. *)
let regalloc_regs = 8

let reference_machine = Machine.rs6k

let reference_observables compiled input =
  Gis_sim.Simulator.observables
    (Gis_sim.Simulator.run reference_machine compiled.Codegen.cfg input)

let run_cell ?(disambig = true) cell compiled input ~reference =
  match
    let cfg = Cfg.deep_copy compiled.Codegen.cfg in
    let base_config = Config.of_level cell.level in
    let collector =
      Gis_check.Check.collector
        ~max_speculation_degree:base_config.Config.max_speculation_degree ()
    in
    let config =
      {
        base_config with
        Config.regalloc = cell.regalloc;
        regs = (if cell.regalloc then Some regalloc_regs else None);
        disambiguate = disambig;
        check = Some (Gis_check.Check.hook collector);
      }
    in
    let stats = Pipeline.run cell.machine config cfg in
    Validate.check_exn cfg;
    let check_errors =
      List.concat_map
        (fun (stage, ds) ->
          List.map
            (fun d -> Fmt.str "%s: %a" stage Gis_check.Diagnostic.pp d)
            (Gis_check.Check.errors ds))
        (Gis_check.Check.diagnostics collector)
    in
    if check_errors <> [] then Error (Check_failure check_errors)
    else
      match stats.Pipeline.regalloc with
      | Some alloc -> (
          let input' = Gis_regalloc.Regalloc.remap_input alloc input in
          match
            Gis_regalloc.Regalloc.verify ~gprs:regalloc_regs
              ~fprs:regalloc_regs ~machine:cell.machine
              ~baseline:compiled.Codegen.cfg ~allocated:cfg alloc input
          with
          | Error msg ->
              Error (Check_failure [ Fmt.str "regalloc verifier: %s" msg ])
          | Ok () ->
              let obs =
                Gis_sim.Simulator.observables
                  (Gis_sim.Simulator.run
                     ?frame:alloc.Gis_regalloc.Regalloc.frame cell.machine cfg
                     input')
              in
              if String.equal obs reference then Ok ()
              else Error (Divergence { expected = reference; got = obs }))
      | None ->
          let obs =
            Gis_sim.Simulator.observables
              (Gis_sim.Simulator.run cell.machine cfg input)
          in
          if String.equal obs reference then Ok ()
          else Error (Divergence { expected = reference; got = obs })
  with
  | r -> r
  (* Infeasibility is a typed, deterministic outcome of the allocator
     (the register file is too small for the program), not a bug in the
     scheduler — the well-defined answer, so not a finding. *)
  | exception Gis_regalloc.Regalloc.Infeasible _ -> Ok ()
  | exception e -> Error (Crash (Printexc.to_string e))

(* Generate-and-compile with the deterministic retry chain, keeping the
   source program alongside the compiled result (the shrinker needs the
   AST). The fresh-label counter is reset before every candidate so a
   seed denotes one exact compiled artifact regardless of what ran
   before. *)
let program_of_seed params ~seed =
  Random_prog.generate_compiled_via
    ~compile:(fun prog ->
      Label.reset_fresh_counter ();
      match Codegen.compile prog with
      | compiled -> Ok (prog, compiled)
      | exception Codegen.Error m -> Error m)
    params ~seed

type cell_failure = { cell : cell; kind : kind }

(* Run one already-compiled program through every cell, stopping at the
   first failure. *)
let first_failure ~disambig compiled input ~reference =
  List.find_map
    (fun cell ->
      match run_cell ~disambig cell compiled input ~reference with
      | Ok () -> None
      | Error kind -> Some { cell; kind })
    cells

(* Does [prog] still fail in [cell] with the same failure class, using
   the input derived from [input_seed]? Compilation failures reject the
   candidate, which is what keeps every accepted shrink step a valid
   Tiny-C program. The candidate must also still HALT on the reference
   machine: shrinking a loop condition can produce an infinite loop,
   and a non-terminating candidate fails any trace comparison trivially
   (schedules stop at different output positions when the cycle budget
   runs out), which would let the shrinker walk away from the real bug
   onto a meaningless reproducer. Generated programs always terminate,
   so this keeps accepted steps inside the generator's invariant. *)
let reproduces ~disambig ~cell ~input_seed ~kind prog =
  Label.reset_fresh_counter ();
  match Codegen.compile prog with
  | exception _ -> false
  | compiled -> (
      let input = Random_prog.random_input ~seed:input_seed compiled in
      let outcome =
        Gis_sim.Simulator.run reference_machine compiled.Codegen.cfg input
      in
      if outcome.Gis_sim.Simulator.stop <> Gis_sim.Simulator.Halted then false
      else
        let reference = Gis_sim.Simulator.observables outcome in
        match run_cell ~disambig cell compiled input ~reference with
        | Ok () -> false
        | Error k -> same_kind k kind)

type finding = {
  seed : int;
  cell : cell;
  kind : kind;
  program : Gis_frontend.Ast.program;
  shrunk : Gis_frontend.Ast.program;
}

(* Detection only: run one seed through the matrix, returning the first
   failing cell unshrunk. Self-contained per call (reset + compile
   inside), so seeds can be detected on any domain in any order with
   identical results. *)
let detect_seed ~disambig params seed =
  let prog, compiled = program_of_seed params ~seed in
  let input = Random_prog.random_input ~seed compiled in
  let reference = reference_observables compiled input in
  match first_failure ~disambig compiled input ~reference with
  | None -> None
  | Some { cell; kind } ->
      Some { seed; cell; kind; program = prog; shrunk = prog }

let shrink_finding ~disambig ~shrink_fuel f =
  let shrunk =
    Shrink.shrink ~fuel:shrink_fuel
      ~pred:(reproduces ~disambig ~cell:f.cell ~input_seed:f.seed ~kind:f.kind)
      f.program
  in
  { f with shrunk }

type report = {
  seeds_run : int;
  cells_per_seed : int;
  findings : finding list;  (** in seed order *)
}

(* Detect a round of seeds, one per domain. [jobs = 1] stays entirely
   on the current domain. Detection is deterministic per seed, so the
   round's combined result does not depend on [jobs]. *)
let detect_round ~disambig params seeds =
  match seeds with
  | [ seed ] -> [ detect_seed ~disambig params seed ]
  | seeds ->
      seeds
      |> List.map (fun seed ->
             Domain.spawn (fun () -> detect_seed ~disambig params seed))
      |> List.map Domain.join

let campaign ?(params = Random_prog.hardened) ?(max_findings = 5)
    ?(shrink_fuel = Shrink.default_fuel) ?(jobs = 1) ?(log = ignore)
    ?(disambig = true) ~start ~seeds () =
  let jobs = max 1 jobs in
  (* Rounds of [jobs] seeds; stop dispatching once enough findings are
     in. Every dispatched round runs to completion, so the set of seeds
     examined — hence the findings — is independent of [jobs]. *)
  let findings = ref [] and ran = ref 0 in
  let next = ref start in
  let stop = start + seeds in
  while !next < stop && List.length !findings < max_findings do
    let round =
      List.init (min jobs (stop - !next)) (fun i -> !next + i)
    in
    next := !next + List.length round;
    ran := !ran + List.length round;
    List.iter
      (Option.iter (fun f -> findings := f :: !findings))
      (detect_round ~disambig params round)
  done;
  let findings =
    List.rev !findings
    |> List.filteri (fun i _ -> i < max_findings)
    |> List.map (fun f ->
           let f = shrink_finding ~disambig ~shrink_fuel f in
           log
             (Fmt.str "seed %d: %s in [%a] (%d -> %d statements)" f.seed
                (kind_label f.kind) pp_cell f.cell
                (Shrink.stmt_count f.program)
                (Shrink.stmt_count f.shrunk));
           f)
  in
  { seeds_run = !ran; cells_per_seed = List.length cells; findings }

let kind_to_json = function
  | Divergence { expected; got } ->
      Gis_obs.Json.Obj
        [
          ("kind", Gis_obs.Json.String "divergence");
          ("expected", Gis_obs.Json.String expected);
          ("got", Gis_obs.Json.String got);
        ]
  | Check_failure msgs ->
      Gis_obs.Json.Obj
        [
          ("kind", Gis_obs.Json.String "check-failure");
          ( "errors",
            Gis_obs.Json.List
              (List.map (fun m -> Gis_obs.Json.String m) msgs) );
        ]
  | Crash msg ->
      Gis_obs.Json.Obj
        [
          ("kind", Gis_obs.Json.String "crash");
          ("message", Gis_obs.Json.String msg);
        ]

let finding_to_json f =
  Gis_obs.Json.Obj
    [
      ("seed", Gis_obs.Json.Int f.seed);
      ("cell", Gis_obs.Json.String (Fmt.str "%a" pp_cell f.cell));
      ("failure", kind_to_json f.kind);
      ("original_statements", Gis_obs.Json.Int (Shrink.stmt_count f.program));
      ("shrunk_statements", Gis_obs.Json.Int (Shrink.stmt_count f.shrunk));
      ( "shrunk_program",
        Gis_obs.Json.String (Fmt.str "%a" Gis_frontend.Ast.pp_program f.shrunk)
      );
    ]

let report_to_json r =
  Gis_obs.Json.Obj
    [
      ("seeds_run", Gis_obs.Json.Int r.seeds_run);
      ("cells_per_seed", Gis_obs.Json.Int r.cells_per_seed);
      ("findings", Gis_obs.Json.List (List.map finding_to_json r.findings));
    ]
