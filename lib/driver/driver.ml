open Gis_ir
open Gis_core
open Gis_sim
open Gis_frontend
open Gis_workloads
open Gis_obs
module Regalloc = Gis_regalloc.Regalloc

type source =
  | Tiny_c of string
  | Asm of string
  | File of string
  | Generated of int

type task = { name : string; source : source }

let task_of_file path = { name = Filename.basename path; source = File path }

let workload_tasks () =
  { name = "minmax"; source = Tiny_c Minmax.source }
  :: List.map
       (fun (p : Spec_proxy.t) ->
         { name = p.Spec_proxy.name; source = Tiny_c p.Spec_proxy.source })
       Spec_proxy.all

let corpus_tasks ~seeds =
  List.map (fun s -> { name = Fmt.str "rand-%d" s; source = Generated s }) seeds

type summary = {
  blocks : int;
  instrs : int;
  unrolled : int;
  rotated : int;
  moves : int;
  spec_moves : int;
  renames : int;
  events : int;
  spilled_regs : int;
  spill_instrs : int;
  spill_slots : int;
  max_pressure : int;
  base_cycles : int;
  sched_cycles : int;
  observables : string;
  code : string;
  counts : Counts.t;
}

type error =
  | Compile_error of string
  | Crashed of string
  | Timed_out of float
  | Mismatch of string
  | Infeasible of string

let pp_error ppf = function
  | Compile_error m -> Fmt.pf ppf "compile error: %s" m
  | Crashed m -> Fmt.pf ppf "crashed: %s" m
  | Timed_out s -> Fmt.pf ppf "timed out after %.3fs" s
  | Mismatch m -> Fmt.pf ppf "observable mismatch: %s" m
  | Infeasible m -> Fmt.pf ppf "regalloc infeasible: %s" m

type task_result = {
  task : string;
  outcome : (summary, error) result;
  seconds : float;
  queued : float option;
  worker : int;
  flight : string list;
}

type pool_stats = {
  jobs : int;
  tasks : int;
  failed : int;
  wall_seconds : float;
  busy_seconds : float array;
  tasks_run : int array;
  queue_high_water : int;
}

let utilization p =
  if p.jobs = 0 || p.wall_seconds <= 0.0 then 0.0
  else
    Array.fold_left ( +. ) 0.0 p.busy_seconds
    /. (float_of_int p.jobs *. p.wall_seconds)

type report = { results : task_result list; pool : pool_stats }

let failures r =
  List.filter_map
    (fun t -> match t.outcome with Ok _ -> None | Error e -> Some (t.task, e))
    r.results

(* ------------------------------------------------------------------ *)
(* Counts: every one a fold over values its run returned.             *)
(* ------------------------------------------------------------------ *)

(* The pool's own counts. The histograms observe microseconds: with
   seconds everything sub-second lands in bucket 0. *)
let pool_counts results =
  let ran = List.filter (fun t -> t.queued <> None) results in
  [
    ("driver.tasks_total", Counts.Counter (List.length results));
    ( "driver.tasks_failed_total",
      Counts.Counter
        (List.length (List.filter (fun t -> Result.is_error t.outcome) results))
    );
    ( "driver.queue_wait_us",
      Counts.Histogram
        (List.map (fun t -> Option.get t.queued *. 1e6) ran) );
    ( "driver.task_run_us",
      Counts.Histogram (List.map (fun t -> t.seconds *. 1e6) ran) );
  ]

let run_counts ?sim ?bounds ~events (stats : Pipeline.stats) =
  let alloc f =
    match stats.Pipeline.regalloc with Some a -> f a | None -> 0
  in
  let simulated f = match sim with Some o -> f o | None -> 0 in
  let bound f =
    Counts.Gauge
      (match bounds with
      | Some b -> float_of_int (f b)
      | None -> 0.0)
  in
  let open Regalloc in
  let open Gis_bounds.Bounds in
  Sink.count events
  @ Global_sched.counts (stats.Pipeline.pass1 @ stats.Pipeline.pass2)
  @ Gis_ddg.Ddg.tally_counts stats.Pipeline.alias
  @ Counts.counters
      [
        ("regalloc.allocations_total", alloc (fun _ -> 1));
        ( "regalloc.spill_instrs_total",
          alloc (fun a -> a.spill_loads + a.spill_stores + a.cr_spill_moves) );
        ("regalloc.cr_spill_moves_total", alloc (fun a -> a.cr_spill_moves));
        ("regalloc.spilled_regs_total", alloc (fun a -> List.length a.spilled));
        ("sim.runs_total", simulated (fun _ -> 1));
        ( "sim.instructions_total",
          simulated (fun o -> o.Simulator.instructions) );
      ]
  @ [
      ( "sim.issue_span_cycles",
        Counts.Histogram
          (match sim with
          | Some o ->
              [ float_of_int o.Simulator.telemetry.Trace.last_issue ]
          | None -> []) );
      ("bound.achieved_cycles", bound (fun b -> b.achieved));
      ("bound.cp_lower_cycles", bound (fun b -> b.cp_lb));
      ("bound.res_lower_cycles", bound (fun b -> b.res_lb));
      ("bound.lower_cycles", bound (fun b -> b.lower_bound));
      ("bound.gap_cycles", bound (fun b -> b.gap));
      ("bound.regions", bound (fun b -> List.length b.regions));
    ]
  @ pool_counts []

(* ------------------------------------------------------------------ *)
(* One run per program: source to compared cycles.                    *)
(* ------------------------------------------------------------------ *)

(* The default simulation input: every declared array gets
   deterministic pseudo-random contents, and a variable called [n], if
   any, is set to the element count. *)
let default_input compiled ~elements ~seed =
  let rng = Prng.create ~seed in
  let arrays =
    List.map
      (fun (name, _, len) ->
        (name, List.init (min len elements) (fun _ -> Prng.int rng 1000)))
      compiled.Codegen.arrays
  in
  let n_binding =
    match List.assoc_opt "n" compiled.Codegen.vars with
    | Some reg -> [ (reg, elements) ]
    | None -> []
  in
  {
    Simulator.no_input with
    Simulator.int_regs = n_binding;
    memory = Codegen.array_input compiled arrays;
  }

let compile_task task =
  match task.source with
  | Tiny_c src -> Codegen.compile_string src
  | Asm src -> { Codegen.cfg = Asm.parse src; vars = []; arrays = [] }
  | File path ->
      (* Read inside the worker so batch IO runs in parallel and an
         unreadable file fails only its own task. *)
      let src = In_channel.with_open_bin path In_channel.input_all in
      if Filename.check_suffix path ".s" then
        { Codegen.cfg = Asm.parse src; vars = []; arrays = [] }
      else Codegen.compile_string src
  | Generated seed -> Random_prog.generate_compiled ~seed

type simulation = {
  baseline : Cfg.t;
  input : Simulator.input;
  base : Simulator.outcome;
  sched : Simulator.outcome;
  observables : string;
}

type run = {
  compiled : Codegen.compiled;
  cfg : Cfg.t;
  stats : Pipeline.stats;
  sim : simulation option;
}

let run_one ?(simulate = true) ?(trace = false) ?(elements = 128) ?(seed = 3)
    machine config task =
  (* Label streams must depend only on the task, not on which worker
     runs it or what ran before — the determinism guarantee. *)
  Label.reset_fresh_counter ();
  match compile_task task with
  | exception (Parser.Error m | Lexer.Error m | Codegen.Error m | Asm.Error m)
    ->
      Error (Compile_error m)
  | exception e -> Error (Crashed (Printexc.to_string e))
  | compiled -> (
      Flight.notef "task %s: compiled, %d blocks" task.name
        (Cfg.num_blocks compiled.Codegen.cfg);
      match
        (* The baseline copy is taken even when nothing will read it:
           every copied block draws a uid from the generator the
           scheduled copy shares, so skipping it would renumber the
           scheduled code. Only the simulation reads the BASE compile. *)
        let baseline = Cfg.deep_copy compiled.Codegen.cfg in
        if simulate then ignore (Pipeline.run machine Config.base baseline);
        let cfg = Cfg.deep_copy compiled.Codegen.cfg in
        let stats = Pipeline.run machine config cfg in
        Validate.check_exn cfg;
        let run = { compiled; cfg; stats; sim = None } in
        if not simulate then Ok run
        else begin
          Flight.notef "task %s: scheduled, simulating" task.name;
          let input =
            match task.source with
            | Generated gseed -> Random_prog.random_input ~seed:gseed compiled
            | Tiny_c _ | Asm _ | File _ ->
                default_input compiled ~elements ~seed
          in
          (* With allocation on, the scheduled code runs on physical
             names: its input moves through the assignment, and spill
             traffic is routed through the frame register to the
             simulator's dedicated spill segment — so observables
             compare exactly, no filtering. *)
          let sched_input, frame =
            Regalloc.remap_with_frame stats.Pipeline.regalloc input
          in
          let base = Simulator.run machine baseline input in
          let sched = Simulator.run ~trace ?frame machine cfg sched_input in
          let base_obs = Simulator.observables base in
          let observables = Simulator.observables sched in
          if String.equal base_obs observables then
            Ok
              {
                run with
                sim = Some { baseline; input; base; sched; observables };
              }
          else
            Error
              (Mismatch
                 (Fmt.str "base:@,%s@,scheduled:@,%s" base_obs observables))
        end
      with
      | result -> result
      | exception Regalloc.Infeasible m -> Error (Infeasible m)
      | exception e -> Error (Crashed (Printexc.to_string e)))

(* One pool task: [run_one] on a private sink and provenance table,
   folded into its summary. *)
let run_task machine config ~simulate ~elements ~seed task =
  (* Fresh flight-recorder history per task, so a dump after a failure
     shows only the events that led up to it. *)
  Flight.clear ();
  Flight.notef "task %s: start" task.name;
  let sink, sink_events = Sink.memory () in
  (* The recorder rides along on the task's own sink: every scheduler
     event lands in the ring too, memory sink first so the events count
     is unaffected. *)
  let config =
    {
      config with
      Config.obs = Sink.tee sink (Flight.sink ());
      prov = Option.map (fun _ -> Provenance.create ()) config.Config.prov;
    }
  in
  Result.map
    (fun { cfg; stats; sim; _ } ->
      let moves = Pipeline.moves stats in
      let count p = List.length (List.filter p moves) in
      let events = sink_events () in
      let alloc f = Option.fold ~none:0 ~some:f stats.Pipeline.regalloc in
      let simulated ~none f = Option.fold ~none ~some:f sim in
      {
        blocks = Cfg.num_blocks cfg;
        instrs = Cfg.instr_count cfg;
        unrolled = stats.Pipeline.unrolled;
        rotated = stats.Pipeline.rotated;
        moves = List.length moves;
        spec_moves = count (fun m -> m.Global_sched.speculative);
        renames = count (fun m -> m.Global_sched.renamed <> None);
        events = List.length events;
        spilled_regs = alloc (fun a -> List.length a.Regalloc.spilled);
        spill_instrs =
          alloc (fun a -> a.Regalloc.spill_loads + a.spill_stores);
        spill_slots = alloc (fun a -> a.Regalloc.slots);
        max_pressure =
          alloc (fun a ->
              List.fold_left
                (fun acc s -> max acc s.Regalloc.pressure)
                0 a.Regalloc.per_class);
        base_cycles = simulated ~none:(-1) (fun s -> s.base.Simulator.cycles);
        sched_cycles = simulated ~none:(-1) (fun s -> s.sched.Simulator.cycles);
        observables = simulated ~none:"" (fun s -> s.observables);
        code = Fmt.str "%a" Cfg.pp cfg;
        counts =
          run_counts ?sim:(Option.map (fun s -> s.sched) sim) ~events stats;
      })
    (run_one ~simulate ~elements ~seed machine config task)

(* ------------------------------------------------------------------ *)
(* The pool.                                                           *)
(* ------------------------------------------------------------------ *)

let run ?(jobs = 1) ?timeout ?(simulate = true) ?(elements = 128) ?(seed = 3)
    machine config tasks =
  let tasks_arr = Array.of_list tasks in
  let n = Array.length tasks_arr in
  let jobs = max 1 (min jobs (max 1 n)) in
  let results = Array.make n None in
  let busy = Array.make jobs 0.0 in
  let ran = Array.make jobs 0 in
  let mutex = Mutex.create () in
  let next = ref 0 in
  let high_water = ref 0 in
  let dequeue () =
    Mutex.protect mutex (fun () ->
        if !next >= n then None
        else begin
          let depth = n - !next in
          if depth > !high_water then high_water := depth;
          let i = !next in
          incr next;
          Some i
        end)
  in
  let batch_start = Prof.now_ns () in
  let since t0 = Prof.seconds_of_ns (Prof.now_ns () - t0) in
  let worker wid =
    let rec loop () =
      match dequeue () with
      | None -> ()
      | Some i ->
          let task = tasks_arr.(i) in
          let elapsed = since batch_start in
          (match timeout with
          | Some budget when elapsed > budget ->
              (* The batch budget is already spent: mark the task timed
                 out without running it at all, instead of letting
                 everything still queued run to completion. The payload
                 is the batch time elapsed when it was skipped. *)
              results.(i) <-
                Some
                  {
                    task = task.name;
                    outcome = Error (Timed_out elapsed);
                    seconds = 0.0;
                    queued = None;
                    worker = wid;
                    flight = [];
                  }
          | Some _ | None ->
              let t0 = Prof.now_ns () in
              let outcome =
                try run_task machine config ~simulate ~elements ~seed task
                with e -> Error (Crashed (Printexc.to_string e))
              in
              let seconds = since t0 in
              (* Per-task budget check stays: a single task that blows
                 the whole budget is reported as timed out too, even
                 though (cooperatively) it did run to completion. *)
              let outcome =
                match timeout with
                | Some budget when seconds > budget -> Error (Timed_out seconds)
                | Some _ | None -> outcome
              in
              busy.(wid) <- busy.(wid) +. seconds;
              ran.(wid) <- ran.(wid) + 1;
              (* The ring is domain-local and run_task ran right here,
                 so on failure it still holds that task's last events. *)
              let flight =
                if Result.is_error outcome then Flight.dump_messages ()
                else []
              in
              results.(i) <-
                Some
                  {
                    task = task.name;
                    outcome;
                    seconds;
                    (* every task was enqueued at batch start *)
                    queued = Some elapsed;
                    worker = wid;
                    flight;
                  });
          loop ()
    in
    loop ()
  in
  let domains = Array.init jobs (fun wid -> Domain.spawn (fun () -> worker wid)) in
  Array.iter Domain.join domains;
  let wall_seconds = since batch_start in
  let results =
    Array.to_list
      (Array.map
         (function
           | Some r -> r
           | None -> assert false (* every index was dequeued exactly once *))
         results)
  in
  let failed =
    List.length (List.filter (fun r -> Result.is_error r.outcome) results)
  in
  {
    results;
    pool =
      {
        jobs;
        tasks = n;
        failed;
        wall_seconds;
        busy_seconds = busy;
        tasks_run = ran;
        queue_high_water = !high_water;
      };
  }

(* ------------------------------------------------------------------ *)
(* Reporting.                                                          *)
(* ------------------------------------------------------------------ *)

let error_to_json e =
  let tag, detail =
    match e with
    | Compile_error m -> ("compile_error", Json.String m)
    | Crashed m -> ("crashed", Json.String m)
    | Timed_out s -> ("timed_out", Json.Float s)
    | Mismatch m -> ("mismatch", Json.String m)
    | Infeasible m -> ("infeasible", Json.String m)
  in
  Json.Obj [ ("error", Json.String tag); ("detail", detail) ]

let report_to_json ?(deterministic = false) r =
  let scrub_f x = if deterministic then 0.0 else x in
  let result_json t =
    Json.Obj
      ([
         ("task", Json.String t.task);
         ("seconds", Json.Float (scrub_f t.seconds));
         ("worker", Json.Int (if deterministic then 0 else t.worker));
       ]
      @ (* Flight-recorder messages carry wall-clock prose, so they are
           dropped from deterministic reports (which must stay
           byte-identical across runs and job counts). *)
      (if deterministic || t.flight = [] then []
       else
         [
           ( "flight",
             Json.List (List.map (fun m -> Json.String m) t.flight) );
         ])
      @
      match t.outcome with
      | Error e -> [ ("outcome", error_to_json e) ]
      | Ok s ->
          [
            ( "outcome",
              Json.Obj
                [
                  ("blocks", Json.Int s.blocks);
                  ("instrs", Json.Int s.instrs);
                  ("unrolled", Json.Int s.unrolled);
                  ("rotated", Json.Int s.rotated);
                  ("moves", Json.Int s.moves);
                  ("spec_moves", Json.Int s.spec_moves);
                  ("renames", Json.Int s.renames);
                  ("events", Json.Int s.events);
                  ("spilled_regs", Json.Int s.spilled_regs);
                  ("spill_instrs", Json.Int s.spill_instrs);
                  ("spill_slots", Json.Int s.spill_slots);
                  ("max_pressure", Json.Int s.max_pressure);
                  ("base_cycles", Json.Int s.base_cycles);
                  ("sched_cycles", Json.Int s.sched_cycles);
                  ("observables", Json.String s.observables);
                ] );
          ])
  in
  let p = r.pool in
  let pool_json =
    if deterministic then
      (* Only fields that are invariant in the worker count survive, so
         jobs:1 and jobs:N reports are byte-identical. *)
      [ ("tasks", Json.Int p.tasks); ("failed", Json.Int p.failed) ]
    else
      [
        ("jobs", Json.Int p.jobs);
        ("tasks", Json.Int p.tasks);
        ("failed", Json.Int p.failed);
        ("wall_seconds", Json.Float p.wall_seconds);
        ( "busy_seconds",
          Json.List
            (Array.to_list
               (Array.map (fun b -> Json.Float b) p.busy_seconds)) );
        ( "tasks_run",
          Json.List
            (Array.to_list (Array.map (fun k -> Json.Int k) p.tasks_run)) );
        ("queue_high_water", Json.Int p.queue_high_water);
        ("utilization", Json.Float (utilization p));
      ]
  in
  Json.Obj
    [
      ("results", Json.List (List.map result_json r.results));
      ("pool", Json.Obj pool_json);
    ]

let pp_table ppf r =
  Fmt.pf ppf "  %-14s | %7s | %7s | %6s | %6s | %s@." "task" "base" "sched"
    "moves" "sec" "status";
  List.iter
    (fun t ->
      match t.outcome with
      | Ok s ->
          Fmt.pf ppf "  %-14s | %7d | %7d | %6d | %6.3f | ok@." t.task
            s.base_cycles s.sched_cycles s.moves t.seconds
      | Error e ->
          Fmt.pf ppf "  %-14s | %7s | %7s | %6s | %6.3f | %a@." t.task "-" "-"
            "-" t.seconds pp_error e)
    r.results;
  let p = r.pool in
  Fmt.pf ppf
    "  pool: %d jobs, %d tasks (%d failed), %.3fs wall, %.0f%% utilization, \
     queue high water %d@."
    p.jobs p.tasks p.failed p.wall_seconds
    (100.0 *. utilization p)
    p.queue_high_water;
  (* The per-task latency distributions (µs, so log2 buckets actually
     discriminate between sub-second tasks). *)
  let pool = pool_counts r.results in
  List.iter
    (fun (label, key) ->
      match List.assoc key pool with
      | Counts.Histogram (_ :: _ as obs) ->
          Fmt.pf ppf "  %s: %a@." label Counts.pp_histogram obs
      | _ -> ())
    [
      ("queue wait (us)", "driver.queue_wait_us");
      ("task run (us)", "driver.task_run_us");
    ]

let batch_counts r =
  List.fold_left
    (fun acc t ->
      match t.outcome with Ok s -> Counts.add acc s.counts | Error _ -> acc)
    (pool_counts r.results) r.results
