(* The four workloads. Each builds its inputs from the seed in its
   set-up, runs closed-loop with one client, and checks every output
   against a reference the compiler under test did not produce: the
   observables of the unscheduled program on the simulator (the static
   checker adds its verdict in fuzz-oracle). *)

open Gis_ir
open Gis_core
open Gis_frontend
module Simulator = Gis_sim.Simulator
module Driver = Gis_driver.Driver
module Fuzz = Gis_fuzz.Fuzz
module Random_prog = Gis_workloads.Random_prog

let machine = Gis_machine.Machine.rs6k

(* One untraced pass over every input: the latency samples it took, in
   seconds, and one verdict per output checked. *)
type round = { latencies : float list; oks : bool list }

type instance = {
  programs : (string * int) list;
      (** name and unscheduled block count, indexed like the spans' [prog] *)
  round : unit -> round;
  ops_per_sample : int;
      (** consecutive traced ops that make up one latency sample *)
  traced_round : Staged.t -> bool list;
      (** the same pass, staged and traced, each op then verified *)
  overhead_reference : unit -> float list option;
      (** untraced op latencies to price tracing against, when the
          untraced rounds' own are not comparable *)
  driver_metrics : unit -> float * float;
      (** pool utilization (%) and jobs=nproc speedup; 0 without a pool *)
}

let timed f =
  let t0 = Spans.now () in
  let v = f () in
  (v, Spans.seconds_between t0 (Spans.now ()))

let printed cfg = Fmt.str "%a" Cfg.pp cfg
let token_count src = List.length (Lexer.tokenize src)
let verify (st : Staged.t) f = Spans.record ~kind:Spans.Verify st.Staged.tr "verify" f

(* ------------------------------------------------------------------ *)
(* Source programs: paper-proxies and large-programs                   *)
(* ------------------------------------------------------------------ *)

type source_prog = {
  name : string;
  src : string;
  tokens : int;
  blocks : int;
  input : Simulator.input;
  reference : string;  (** observables of the unscheduled program *)
}

let source_prog name src input_of =
  Label.reset_fresh_counter ();
  let compiled = Codegen.compile_string src in
  let input = input_of compiled in
  {
    name;
    src;
    tokens = token_count src;
    blocks = Cfg.num_blocks compiled.Codegen.cfg;
    input;
    reference =
      Simulator.observables (Simulator.run machine compiled.Codegen.cfg input);
  }

(* One op: source to simulated cycles, compiled at BASE (the Figure 7
   denominator) and at the speculative level. *)
let compile_and_run p =
  Label.reset_fresh_counter ();
  let compiled = Codegen.compile_string p.src in
  let base = Cfg.deep_copy compiled.Codegen.cfg in
  ignore (Pipeline.run machine Config.base base);
  let spec = compiled.Codegen.cfg in
  ignore (Pipeline.run machine Config.speculative spec);
  let ob = Simulator.run machine base p.input in
  let os = Simulator.run machine spec p.input in
  (base, spec, ob, os)

let outputs_ok p (base, spec, ob, os) =
  Validate.check base = Ok ()
  && Validate.check spec = Ok ()
  && String.equal (Simulator.observables ob) p.reference
  && String.equal (Simulator.observables os) p.reference

(* One latency sample is a whole pass over [progs]. Single programs are
   too few and too unlike: their median sits on one program, and moves
   with whatever the host does to that program alone. *)
let source_instance progs =
  ignore (compile_and_run (List.hd progs));
  {
    programs = List.map (fun p -> (p.name, p.blocks)) progs;
    ops_per_sample = List.length progs;
    round =
      (fun () ->
        let runs, seconds = timed (fun () -> List.map compile_and_run progs) in
        { latencies = [ seconds ]; oks = List.map2 outputs_ok progs runs });
    traced_round =
      (fun st ->
        List.mapi
          (fun i p ->
            let ((base, spec, _, _) as r) =
              Spans.op st.Staged.tr ~prog:i "program" (fun () ->
                  Staged.program st machine ~tokens:p.tokens p.src p.input)
            in
            (* The staged pipeline must print exactly what Pipeline.run
               produces from the same source. *)
            verify st (fun () ->
                let base', spec', _, _ = compile_and_run p in
                outputs_ok p r
                && String.equal (printed base) (printed base')
                && String.equal (printed spec) (printed spec')))
          progs);
    overhead_reference = (fun () -> None);
    driver_metrics = (fun () -> (0.0, 0.0));
  }

let paper_proxies ~smoke:_ ~seed =
  let sources =
    ("minmax", Gis_workloads.Minmax.source)
    :: List.map
         (fun (p : Gis_workloads.Spec_proxy.t) ->
           (p.Gis_workloads.Spec_proxy.name, p.Gis_workloads.Spec_proxy.source))
         Gis_workloads.Spec_proxy.all
  in
  source_instance
    (List.map
       (fun (name, src) ->
         source_prog name src (fun c -> Driver.default_input c ~elements:128 ~seed))
       sources)

(* Hardened-grammar programs with up to 66 top-level statements reach a
   few hundred blocks. The ladder is one fixed draw: generator seeds from
   [ladder_first_seed] upward, each program kept while its block-count
   bucket is short. Compile time varies fivefold between programs of
   equal size, so a ladder redrawn from --seed could hold no bound;
   --seed picks the programs' inputs instead. *)
let ladder_params = { Random_prog.hardened with Random_prog.body_len = 64 }
let ladder_buckets = [ (32, 63); (64, 127); (128, 191) ]
let ladder_per_bucket = 3
let ladder_first_seed = 1

let ladder () =
  let counts = Array.make (List.length ladder_buckets) 0 in
  let rec draw s acc =
    if Array.for_all (fun n -> n >= ladder_per_bucket) counts then acc
    else if s > ladder_first_seed + 1000 then failwith "ladder: buckets not filled"
    else
      let src =
        Fmt.str "%a" Ast.pp_program (Random_prog.generate_with ladder_params ~seed:s)
      in
      Label.reset_fresh_counter ();
      match Codegen.compile_string src with
      | exception (Codegen.Error _ | Parser.Error _ | Lexer.Error _) ->
          draw (s + 1) acc
      | compiled -> (
          let blocks = Cfg.num_blocks compiled.Codegen.cfg in
          match
            List.find_index
              (fun (lo, hi) -> lo <= blocks && blocks <= hi)
              ladder_buckets
          with
          | Some b when counts.(b) < ladder_per_bucket ->
              counts.(b) <- counts.(b) + 1;
              draw (s + 1) ((s, src, blocks) :: acc)
          | Some _ | None -> draw (s + 1) acc)
  in
  List.sort (fun (_, _, a) (_, _, b) -> compare a b) (draw ladder_first_seed [])

let large_programs ~smoke ~seed =
  let rungs = ladder () in
  let rungs = if smoke then List.filteri (fun i _ -> i < 3) rungs else rungs in
  source_instance
    (List.mapi
       (fun i (s, src, _) ->
         source_prog (Fmt.str "ladder-%d" s) src (fun c ->
             Random_prog.random_input ~seed:(seed + i) c))
       rungs)

(* ------------------------------------------------------------------ *)
(* fuzz-oracle                                                         *)
(* ------------------------------------------------------------------ *)

(* A fixed window of hardened fuzz seeds. One seed's oracle costs from
   0.3 s to 14 s, so a window that moved with --seed could hold no
   bound; --seed picks the random inputs the oracle simulates. *)
let fuzz_first_seed = 15
let fuzz_pool = 6

(* Fuzz's own program_of_seed: the deterministic retry chain, with the
   label counter reset before every candidate. [frontend] wraps each
   code generation call. *)
let fuzz_program ?(frontend = fun f -> f ()) seed =
  Random_prog.generate_compiled_via
    ~compile:(fun prog ->
      frontend (fun () ->
          Label.reset_fresh_counter ();
          match Codegen.compile prog with
          | compiled -> Ok compiled
          | exception Codegen.Error m -> Error m))
    Random_prog.hardened ~seed

let reference_observables compiled input =
  Simulator.observables
    (Simulator.run Fuzz.reference_machine compiled.Codegen.cfg input)

let same_verdict a b =
  match (a, b) with
  | Ok (), Ok () -> true
  | Error x, Error y -> Fuzz.same_kind x y
  | Ok (), Error _ | Error _, Ok () -> false

(* Cycles of the BASE and speculative cells that share a machine and an
   allocation setting, summed into the staged counters. *)
let pair_cycles (st : Staged.t) cycles =
  Hashtbl.iter
    (fun (level, key) c ->
      if level = Config.Local then
        match Hashtbl.find_opt cycles (Config.Speculative, key) with
        | Some s ->
            st.Staged.c.base_cycles <- st.Staged.c.base_cycles + c;
            st.Staged.c.spec_cycles <- st.Staged.c.spec_cycles + s
        | None -> ())
    cycles

let fuzz_oracle ~smoke ~seed =
  let seeds = List.init (if smoke then 1 else fuzz_pool) (fun i -> fuzz_first_seed + i) in
  let programs =
    List.map
      (fun s ->
        (Fmt.str "fuzz-%d" s, Cfg.num_blocks (fuzz_program s).Codegen.cfg))
      seeds
  in
  let input_of i compiled = Random_prog.random_input ~seed:(seed + i) compiled in
  (let compiled = fuzz_program (List.hd seeds) in
   let input = input_of 0 compiled in
   ignore
     (Fuzz.run_cell (List.hd Fuzz.cells) compiled input
        ~reference:(reference_observables compiled input)));
  {
    programs;
    ops_per_sample = 1;
    round =
      (fun () ->
        let cells =
          List.concat
            (List.mapi
               (fun i s ->
                 let compiled = fuzz_program s in
                 let input = input_of i compiled in
                 let reference = reference_observables compiled input in
                 List.map
                   (fun cell ->
                     let r, seconds =
                       timed (fun () -> Fuzz.run_cell cell compiled input ~reference)
                     in
                     (seconds, Result.is_ok r))
                   Fuzz.cells)
               seeds)
        in
        { latencies = List.map fst cells; oks = List.map snd cells });
    traced_round =
      (fun st ->
        let tr = st.Staged.tr in
        List.concat
          (List.mapi
             (fun i s ->
               let compiled =
                 Spans.for_prog tr ~prog:i "fuzz.generate" (fun () ->
                     fuzz_program ~frontend:(Staged.span st "frontend.generated") s)
               in
               let input = input_of i compiled in
               let reference =
                 Spans.for_prog tr ~prog:i "fuzz.reference" (fun () ->
                     reference_observables compiled input)
               in
               let cycles = Hashtbl.create 8 in
               let oks =
                 List.map
                   (fun (cell : Fuzz.cell) ->
                     let verdict, c =
                       Spans.op tr ~prog:i "cell" (fun () ->
                           Staged.fuzz_cell st cell compiled input ~reference)
                     in
                     Option.iter
                       (fun c ->
                         Hashtbl.replace cycles
                           ( cell.Fuzz.level,
                             (Gis_machine.Machine.name cell.Fuzz.machine, cell.Fuzz.regalloc) )
                           c)
                       c;
                     Result.is_ok verdict
                     && verify st (fun () ->
                            same_verdict verdict
                              (Fuzz.run_cell cell compiled input ~reference)))
                   Fuzz.cells
               in
               pair_cycles st cycles;
               oks)
             seeds));
    overhead_reference = (fun () -> None);
    driver_metrics = (fun () -> (0.0, 0.0));
  }

(* ------------------------------------------------------------------ *)
(* batch-regalloc                                                      *)
(* ------------------------------------------------------------------ *)

let batch_config =
  {
    Config.speculative with
    Config.regalloc = true;
    regs = Some 6;
    pressure_aware = true;
  }

let batch_corpus = 200
let batch_elements = 128

type batch_task = {
  task : Driver.task;
  task_tokens : int;
  task_blocks : int;
  task_reference : string;
}

let batch_regalloc ~smoke ~seed =
  let jobs = Domain.recommended_domain_count () in
  let corpus = if smoke then 5 else batch_corpus in
  let tasks =
    Driver.workload_tasks ()
    @ Driver.corpus_tasks
        ~seeds:(List.init corpus (fun i -> (seed * batch_corpus) + i))
  in
  (* Each task's reference: its unscheduled code on the input Driver.run
     gives it. *)
  let tasks =
    Array.of_list
      (List.map
         (fun (task : Driver.task) ->
           Label.reset_fresh_counter ();
           let compiled = Driver.compile_task task in
           let input, task_tokens =
             match task.Driver.source with
             | Driver.Generated g -> (Random_prog.random_input ~seed:g compiled, 0)
             | Driver.Tiny_c src ->
                 ( Driver.default_input compiled ~elements:batch_elements ~seed,
                   token_count src )
             | Driver.Asm _ | Driver.File _ -> invalid_arg "batch task source"
           in
           {
             task;
             task_tokens;
             task_blocks = Cfg.num_blocks compiled.Codegen.cfg;
             task_reference =
               Simulator.observables
                 (Simulator.run machine compiled.Codegen.cfg input);
           })
         tasks)
  in
  let run_batch jobs =
    timed (fun () ->
        Driver.run ~jobs ~elements:batch_elements ~seed machine batch_config
          (Array.to_list (Array.map (fun t -> t.task) tasks)))
  in
  ignore
    (Driver.run ~jobs ~elements:batch_elements ~seed machine batch_config
       [ tasks.(0).task ]);
  let walls = ref [] and utilizations = ref [] in
  let last = ref None and sequential = ref None in
  let round () =
    let report, wall = run_batch jobs in
    walls := wall :: !walls;
    utilizations := Driver.utilization report.Driver.pool :: !utilizations;
    last := Some report;
    {
      latencies = [ wall ];
      oks =
        List.mapi
          (fun i (r : Driver.task_result) ->
            match r.Driver.outcome with
            | Ok s -> String.equal s.Driver.observables tasks.(i).task_reference
            | Error _ -> false)
          report.Driver.results;
    }
  in
  (* The pool is opaque to spans: its tasks are replayed one by one, and
     each replay must print the code and reproduce the observables and
     cycles the pool reported. The replay runs in one spawned domain, as
     a jobs=1 pool does, so the two are timed alike. *)
  let traced_round st =
    if !sequential = None then sequential := Some (run_batch 1);
    let report =
      match !last with Some r -> r | None -> fst (run_batch jobs)
    in
    let results = Array.of_list report.Driver.results in
    Domain.join @@ Domain.spawn @@ fun () ->
    Array.to_list
      (Array.mapi
         (fun i t ->
           let out =
             Spans.op st.Staged.tr ~prog:i "task" (fun () ->
                 Staged.batch_task st machine batch_config ~tokens:t.task_tokens
                   ~elements:batch_elements ~seed t.task)
           in
           verify st (fun () ->
               match results.(i).Driver.outcome with
               | Error _ -> false
               | Ok s ->
                   String.equal s.Driver.code out.Staged.code
                   && String.equal s.Driver.observables out.Staged.sched_observables
                   && s.Driver.base_cycles = out.Staged.base_cycles
                   && s.Driver.sched_cycles = out.Staged.sched_cycles
                   && String.equal out.Staged.base_observables t.task_reference
                   && String.equal out.Staged.sched_observables t.task_reference))
         tasks)
  in
  {
    programs =
      Array.to_list (Array.map (fun t -> (t.task.Driver.name, t.task_blocks)) tasks);
    ops_per_sample = 1;
    round;
    traced_round;
    overhead_reference =
      (fun () ->
        Option.map
          (fun ((r : Driver.report), _) ->
            List.map (fun (t : Driver.task_result) -> t.Driver.seconds) r.Driver.results)
          !sequential);
    driver_metrics =
      (fun () ->
        ( 100.0 *. Stats.median !utilizations,
          match !sequential with
          | Some (_, wall1) -> wall1 /. Stats.median !walls
          | None -> 0.0 ));
  }

(* Why each workload exists is recorded in BENCHMARK.json and README.md. *)
type t = {
  name : string;
  op : string;  (** what one latency sample and one checked output are *)
  setup : smoke:bool -> seed:int -> instance;
}

let all =
  [
    {
      name = "paper-proxies";
      op =
        "latency: one pass over the five programs, each source to \
         simulated cycles at BASE and speculative; output: one program";
      setup = paper_proxies;
    };
    {
      name = "large-programs";
      op =
        "latency: one pass over the whole ladder, each program source to \
         simulated cycles at BASE and speculative; output: one program";
      setup = large_programs;
    };
    {
      name = "fuzz-oracle";
      op = "latency and output: one oracle cell (schedule, check, simulate, compare)";
      setup = fuzz_oracle;
    };
    {
      name = "batch-regalloc";
      op = "latency: one Driver.run batch over all tasks; output: one task";
      setup = batch_regalloc;
    };
  ]
