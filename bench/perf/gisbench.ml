(* gisbench: the wall-clock benchmark of the scheduler and its simulator.

     gisbench --workload W --seed S [--seconds T] [--trace 0|1]
              [--smoke] [--json FILE] [--trace-out FILE] [--commit C]

   One process runs one workload closed-loop with a single client (the
   batch workload's pool uses one domain per core). Set-up runs five
   times and its median is [setup_s]; then whole rounds, each one pass
   over every input of the workload, run until [T] seconds have passed.
   Throughput counts checked outputs (programs, oracle cells or batch
   tasks) per second; latency samples are what Workloads.t.op names.

   With [--trace 0] every end-to-end metric is printed. With [--trace 1]
   untraced and traced rounds alternate; the traced ones drive the
   pipeline stage by stage (Staged) and give the per-layer metrics, and
   the gap between the two kinds of round is [trace_overhead_pct]. Every
   output is checked; the last line of standard output is one JSON
   object: correct, attempted, failed, metrics. *)

let fail_usage msg =
  prerr_endline ("gisbench: " ^ msg);
  exit 2

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

type window = {
  st : Staged.t;
  latencies : float list;  (** untraced latency samples, seconds *)
  untraced : bool list;  (** verdicts of the untraced rounds *)
  traced : bool list;
  rounds : int;
  traced_rounds : int;
  wall : float;
}

let run_window ~seconds ~smoke ~trace (inst : Workloads.instance) =
  let st = Staged.create () in
  let t0 = Spans.now () in
  let rec go w =
    let r = inst.Workloads.round () in
    let w =
      { w with latencies = List.rev_append r.Workloads.latencies w.latencies;
               untraced = List.rev_append r.Workloads.oks w.untraced;
               rounds = w.rounds + 1 }
    in
    let w =
      if trace then
        { w with traced = List.rev_append (inst.Workloads.traced_round st) w.traced;
                 traced_rounds = w.traced_rounds + 1 }
      else w
    in
    let wall = Spans.seconds_between t0 (Spans.now ()) in
    if smoke || wall >= seconds then { w with wall } else go w
  in
  go
    { st; latencies = []; untraced = []; traced = []; rounds = 0; traced_rounds = 0;
      wall = 0.0 }

(* Samples in ms: consecutive runs of [k] op times summed. *)
let samples_ms k seconds =
  let rec go acc sum n = function
    | [] -> List.rev acc
    | s :: rest ->
        let sum = sum +. s and n = n + 1 in
        if n = k then go ((sum *. 1e3) :: acc) 0.0 0 rest else go acc sum n rest
  in
  go [] 0.0 0 seconds

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                  *)
(* ------------------------------------------------------------------ *)

let end_to_end ~setup_s ~latency_ms w =
  let tail, _ = Stats.tail latency_ms in
  [
    ("setup_s", "s", setup_s);
    ("latency_ms_p50", "ms", Stats.median latency_ms);
    ("latency_ms_tail", "ms", tail);
    ("throughput_per_s", "1/s", float_of_int (List.length w.untraced) /. w.wall);
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer metrics, from the traced rounds                           *)
(* ------------------------------------------------------------------ *)

(* Which layer a Work or Replay span belongs to; None for the
   benchmark's own op, compile and snapshot spans. *)
let layer_of (s : Spans.span) =
  match s.Spans.name with
  | "global_sched.pass1" | "global_sched.pass2" -> Some "global_sched"
  | "fuzz.generate" | "fuzz.reference" -> Some "fuzz"
  | "frontend.generated" -> Some "frontend"
  | ( "frontend" | "regions" | "unroll" | "rotate" | "local_sched" | "regalloc"
    | "regalloc.verify" | "check" | "simulator" | "symaddr" | "ddg" ) as name ->
      Some name
  | _ -> None

let pipeline_layers =
  [ "unroll"; "regions"; "global_sched"; "rotate"; "local_sched"; "regalloc" ]

let per_layer (inst : Workloads.instance) w ~latency_ms =
  let c = w.st.Staged.c in
  let rounds = float_of_int (max 1 w.traced_rounds) in
  let spans = w.st.Staged.tr.Spans.spans in
  let selves = Spans.self_times spans in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (s : Spans.span) -> Hashtbl.replace by_id s.Spans.id s) spans;
  (* Layer time: the self time of Work spans, and the whole time of the
     Replay spans that price symaddr and ddg. *)
  let layer_spans layer =
    List.filter
      (fun ((s : Spans.span), _, _) ->
        s.Spans.kind <> Spans.Verify && layer_of s = Some layer)
      selves
  in
  let seconds layer = List.fold_left (fun a (_, d, _) -> a +. d) 0.0 (layer_spans layer) in
  (* Only spans named after the layer itself lexed source text. *)
  let lexing_seconds layer =
    List.fold_left
      (fun a ((s : Spans.span), d, _) -> if s.Spans.name = layer then a +. d else a)
      0.0 (layer_spans layer)
  in
  let alloc_mb layer =
    Spans.mb_of_words (List.fold_left (fun a (_, _, w) -> a +. w) 0.0 (layer_spans layer))
    /. rounds
  in
  let work =
    List.fold_left
      (fun a ((s : Spans.span), d, _) -> if s.Spans.kind = Spans.Work then a +. d else a)
      0.0 selves
  in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let ms layer = 1e3 *. seconds layer /. rounds in
  let share layer = 100.0 *. ratio (seconds layer) work in
  let per_round n = float_of_int n /. rounds in
  (* Growth with program size: each layer's time per program against the
     program's unscheduled block count. *)
  let growth layer =
    let per_prog = Hashtbl.create 16 in
    List.iter
      (fun ((s : Spans.span), d, _) ->
        if s.Spans.prog >= 0 then
          Hashtbl.replace per_prog s.Spans.prog
            (d +. Option.value ~default:0.0 (Hashtbl.find_opt per_prog s.Spans.prog)))
      (layer_spans layer);
    Stats.growth_exponent
      (List.mapi
         (fun i (_, blocks) ->
           (float_of_int blocks, Option.value ~default:0.0 (Hashtbl.find_opt per_prog i)))
         inst.Workloads.programs)
  in
  (* Figure 7: extra compile time of the speculative pipeline over BASE,
     both including the frontend they share. *)
  let rec compile_of (s : Spans.span) =
    if s.Spans.parent < 0 then None
    else
      let p = Hashtbl.find by_id s.Spans.parent in
      match p.Spans.name with
      | ("compile.base" | "compile.spec") as n -> Some n
      | _ -> compile_of p
  in
  let base, spec =
    List.fold_left
      (fun (b, sp) ((s : Spans.span), d, _) ->
        match layer_of s with
        | Some l when s.Spans.kind = Spans.Work && List.mem l pipeline_layers -> (
            match compile_of s with
            | Some "compile.base" -> (b +. d, sp)
            | Some _ -> (b, sp +. d)
            | None -> (b, sp))
        | _ -> (b, sp))
      (0.0, 0.0) selves
  in
  let frontend_in_ops =
    List.fold_left
      (fun a ((s : Spans.span), d, _) ->
        if s.Spans.op >= 0 && layer_of s = Some "frontend" then a +. d else a)
      0.0 selves
  in
  let traced_ms = samples_ms inst.Workloads.ops_per_sample (Spans.op_work_seconds spans) in
  let reference_ms =
    match inst.Workloads.overhead_reference () with
    | Some secs -> samples_ms inst.Workloads.ops_per_sample secs
    | None -> latency_ms
  in
  let utilization, speedup = inst.Workloads.driver_metrics () in
  let sim_s = seconds "simulator" in
  [
    ("frontend.ms", "ms", ms "frontend");
    ("frontend.share", "%", share "frontend");
    ( "frontend.tokens_per_s", "1/s",
      ratio (float_of_int c.Staged.tokens) (lexing_seconds "frontend") );
    ("symaddr.ms", "ms", ms "symaddr");
    ("symaddr.share", "%", share "symaddr");
    ("symaddr.calls", "count", per_round c.Staged.symaddr_calls);
    ("symaddr.alloc_mb", "MB", alloc_mb "symaddr");
    ("symaddr.growth_exp", "exp", growth "symaddr");
    ("regions.ms", "ms", ms "regions");
    ("regions.share", "%", share "regions");
    ("ddg.ms", "ms", ms "ddg");
    ("ddg.share", "%", share "ddg");
    ("ddg.builds", "count", per_round c.Staged.ddg_builds);
    ("ddg.edges", "count", per_round c.Staged.ddg_edges);
    ("ddg.mem_kept", "count", per_round c.Staged.mem_kept);
    ("ddg.mem_pruned", "count", per_round c.Staged.mem_pruned);
    ( "ddg.prune_ratio", "ratio",
      ratio (float_of_int c.Staged.mem_pruned)
        (float_of_int (c.Staged.mem_kept + c.Staged.mem_pruned)) );
    ("ddg.alloc_mb", "MB", alloc_mb "ddg");
    ("ddg.growth_exp", "exp", growth "ddg");
    ("unroll.ms", "ms", ms "unroll");
    ("unroll.share", "%", share "unroll");
    ("rotate.ms", "ms", ms "rotate");
    ("rotate.share", "%", share "rotate");
    ("global_sched.ms", "ms", ms "global_sched");
    ("global_sched.share", "%", share "global_sched");
    ("global_sched.regions_scheduled", "count", per_round c.Staged.regions_scheduled);
    ("global_sched.regions_skipped", "count", per_round c.Staged.regions_skipped);
    ("global_sched.moves", "count", per_round c.Staged.moves);
    ("global_sched.spec_moves", "count", per_round c.Staged.spec_moves);
    ("global_sched.alloc_mb", "MB", alloc_mb "global_sched");
    ("global_sched.growth_exp", "exp", growth "global_sched");
    ("global_sched.cto_pct", "%", 100.0 *. ratio (spec -. base) (frontend_in_ops +. base));
    ( "global_sched.cycle_gain_pct", "%",
      100.0
      *. ratio
           (float_of_int (c.Staged.base_cycles - c.Staged.spec_cycles))
           (float_of_int c.Staged.base_cycles) );
    ("local_sched.ms", "ms", ms "local_sched");
    ("local_sched.share", "%", share "local_sched");
    ("local_sched.growth_exp", "exp", growth "local_sched");
    ("regalloc.share", "%", share "regalloc");
    ("regalloc.verify_share", "%", share "regalloc.verify");
    ("regalloc.spilled_regs", "count", per_round c.Staged.spilled_regs);
    ("regalloc.spill_instrs", "count", per_round c.Staged.spill_instrs);
    ("check.share", "%", share "check");
    ("check.stages", "count", per_round c.Staged.check_stages);
    ("check.deps_checked", "count", per_round c.Staged.deps_checked);
    ("simulator.ms", "ms", ms "simulator");
    ("simulator.share", "%", share "simulator");
    ("simulator.runs", "count", per_round c.Staged.sim_runs);
    ("simulator.dyn_instrs", "count", per_round c.Staged.dyn_instrs);
    ("simulator.minstr_per_s", "1/s", ratio (float_of_int c.Staged.dyn_instrs /. 1e6) sim_s);
    ("driver.utilization", "%", utilization);
    ("driver.speedup", "ratio", speedup);
    ("fuzz.share", "%", share "fuzz");
    ("fuzz.cells", "count", per_round c.Staged.cells);
    ("fuzz.cells_per_s", "1/s", ratio (float_of_int c.Staged.cells) work);
    ("fuzz.findings", "count", per_round c.Staged.findings);
    ( "trace_overhead_pct", "%",
      100.0 *. (ratio (Stats.median traced_ms) (Stats.median reference_ms) -. 1.0) );
  ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let metrics_json metrics =
  let open Gis_obs.Json in
  Obj
    (List.map
       (fun (name, unit, value) ->
         (name, Obj [ ("value", Float value); ("unit", String unit) ]))
       metrics)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let () =
  let workload = ref "" and seed = ref None and seconds = ref 15.0 in
  let trace = ref 0 and smoke = ref false and commit = ref "unknown" in
  let json_out = ref "" and trace_out = ref "" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "W workload to run");
      ("--seed", Arg.Int (fun s -> seed := Some s), "S seed the inputs are made from");
      ("--seconds", Arg.Set_float seconds, "T how long the rounds run (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 1 runs traced rounds and prints per-layer metrics");
      ("--smoke", Arg.Set smoke, " one set-up and one round on reduced inputs");
      ("--json", Arg.Set_string json_out, "FILE also write header and result here");
      ("--trace-out", Arg.Set_string trace_out, "FILE write the spans as Chrome trace JSON");
      ("--commit", Arg.Set_string commit, "C commit recorded in the header");
    ]
  in
  let usage = "gisbench --workload W --seed S [--seconds T] [--trace 0|1] [options]" in
  Arg.parse spec (fun a -> fail_usage ("unexpected argument " ^ a)) usage;
  let w =
    match List.find_opt (fun (w : Workloads.t) -> w.Workloads.name = !workload) Workloads.all with
    | Some w -> w
    | None ->
        fail_usage
          (Fmt.str "--workload must be one of: %s"
             (String.concat ", " (List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all)))
  in
  let seed = match !seed with Some s -> s | None -> fail_usage "--seed is required" in
  if !trace <> 0 && !trace <> 1 then fail_usage "--trace must be 0 or 1";
  if not (!seconds > 0.0) then fail_usage "--seconds must be positive";
  let traced = !trace = 1 and smoke = !smoke in
  (* Set up several times; the median is setup_s and the last instance
     is measured. Each set-up includes one discarded warm-up op. *)
  let setups = if smoke then 1 else 5 in
  let times, inst =
    List.fold_left
      (fun (times, _) _ ->
        let inst, s = Workloads.timed (fun () -> w.Workloads.setup ~smoke ~seed) in
        (s :: times, Some inst))
      ([], None) (List.init setups Fun.id)
  in
  let inst = Option.get inst in
  let win = run_window ~seconds:!seconds ~smoke ~trace:traced inst in
  let latency_ms = List.map (fun s -> s *. 1e3) win.latencies in
  let metrics =
    if traced then per_layer inst win ~latency_ms
    else end_to_end ~setup_s:(Stats.median times) ~latency_ms win
  in
  let attempted = List.length win.untraced + List.length win.traced in
  let failed = List.length (List.filter not (win.untraced @ win.traced)) in
  let _, tail_pct = Stats.tail latency_ms in
  let header =
    let open Gis_obs.Json in
    Obj
      [
        ("tool", String "gisbench");
        ("commit", String !commit);
        ("workload", String w.Workloads.name);
        ("op", String w.Workloads.op);
        ("seed", Int seed);
        ("seconds", Float !seconds);
        ("trace", Bool traced);
        ("smoke", Bool smoke);
        ("nproc", Int (Domain.recommended_domain_count ()));
        ("ocaml", String Sys.ocaml_version);
        ("host", String (Unix.gethostname ()));
        ("clock", String Spans.clock_source);
        ("setups", Int setups);
        ("programs", Int (List.length inst.Workloads.programs));
        ("rounds", Int win.rounds);
        ("traced_rounds", Int win.traced_rounds);
        ("outputs_checked", Int (List.length win.untraced));
        ("traced_outputs_checked", Int (List.length win.traced));
        ("window_s", Float win.wall);
        ("latency_samples", Int (List.length latency_ms));
        ("tail_percentile", Float tail_pct);
        ( "peak_heap_mb",
          Float (Spans.mb_of_words (float_of_int (Gc.quick_stat ()).Gc.top_heap_words)) );
      ]
  in
  let result =
    let open Gis_obs.Json in
    Obj
      [
        ("correct", Bool (failed = 0));
        ("attempted", Int attempted);
        ("failed", Int failed);
        ("metrics", metrics_json metrics);
      ]
  in
  if traced then Fmt.epr "%a" Spans.pp_table (Spans.self_time_table win.st.Staged.tr.Spans.spans);
  if !json_out <> "" then
    write_file !json_out
      (Gis_obs.Json.to_string (Gis_obs.Json.Obj [ ("header", header); ("result", result) ]) ^ "\n");
  if !trace_out <> "" then
    write_file !trace_out
      (Gis_obs.Json.to_string ~minify:true
         (Spans.to_chrome_json ~header win.st.Staged.tr.Spans.spans));
  print_endline ("# " ^ Gis_obs.Json.to_string ~minify:true header);
  List.iter (fun (name, unit, value) -> Fmt.pr "%-32s %16.6g %s@." name value unit) metrics;
  print_endline (Gis_obs.Json.to_string ~minify:true result)
