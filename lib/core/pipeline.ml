open Gis_ir

type stats = {
  unrolled : int;
  rotated : int;
  pass1 : Global_sched.region_report list;
  pass2 : Global_sched.region_report list;
  regalloc : Gis_regalloc.Regalloc.t option;
  alias : Gis_ddg.Ddg.tally;
}

let moves stats =
  List.concat_map
    (fun (r : Global_sched.region_report) -> r.Global_sched.moves)
    (stats.pass1 @ stats.pass2)

let phase_names = [ "unroll"; "global-pass1"; "rotate"; "global-pass2"; "local" ]

(* The body of [run], wrapped below in the profiler's "pipeline" root
   so phase deltas sum exactly to the whole-run delta (the accounting
   identity `gisc profile` checks). *)
let run_phases machine (config : Config.t) cfg =
  let prov = config.Config.prov in
  let prof = config.Config.prof in
  (* Every original instruction gets an [Unmoved] record in its source
     block before any pass runs; passes overwrite kind/scores as they
     commit decisions, and fresh copies are recorded at creation. *)
  (match prov with
  | None -> ()
  | Some _ ->
      Cfg.iter_blocks
        (fun b ->
          let at i =
            Gis_obs.Provenance.seed prov ~uid:(Instr.uid i)
              ~origin:b.Block.label
          in
          Gis_util.Vec.iter at b.Block.body;
          at b.Block.term)
        cfg);
  let global = config.Config.level <> Config.Local in
  (* The one per-stage wrapper: a profiler node named after the stage
     and, when the stage runs and a check hook is installed, the hook on
     a pre/post pair of CFG snapshots after it. Each post snapshot is
     the next stage's pre (nothing touches the CFG between stages), so
     a checker can index each CFG version once. A stage that does not
     run still records its node (the cost of deciding to skip it), so
     every profile lists [phase_names]. *)
  let checked =
    Option.map (fun hook -> (hook, ref None)) config.Config.check
  in
  let stage name ~runs ~skipped f =
    Gis_obs.Prof.record prof name (fun () ->
        if not runs then skipped
        else
          match checked with
          | None -> f ()
          | Some (hook, snapshot) ->
              let pre =
                match !snapshot with Some s -> s | None -> Cfg.deep_copy cfg
              in
              let v = f () in
              let post = Cfg.deep_copy cfg in
              snapshot := Some post;
              hook ~stage:name ~pre ~post;
              v)
  in
  if config.Config.split_webs && global then
    stage "webs" ~runs:true ~skipped:() (fun () -> ignore (Webs.split cfg));
  (* Region analysis is a function of the CFG's shape, which interblock
     motion preserves — only unrolling and rotation change it. So it is
     kept with the shape version it was computed at, and both global
     passes share one analysis unless the shape moved in between.
     Computed inside the profiled stages, as a child node of whichever
     global pass forced it. *)
  let regions_cache = ref None in
  let regions () =
    let shape = Cfg.shape_version cfg in
    match !regions_cache with
    | Some (at, r) when at = shape -> r
    | Some _ | None ->
        let r =
          Gis_obs.Prof.record prof "regions" (fun () ->
              Gis_analysis.Regions.compute cfg)
        in
        regions_cache := Some (shape, r);
        r
  in
  let alias = Gis_ddg.Ddg.new_tally () in
  let small = config.Config.small_loop_blocks in
  let unrolled =
    stage "unroll" ~runs:(global && config.Config.unroll_small_loops)
      ~skipped:0 (fun () ->
        Unroll.unroll_small_inner_loops ?prov ~max_blocks:small cfg)
  in
  let pass1 =
    stage "global-pass1" ~runs:global ~skipped:[] (fun () ->
        Global_sched.schedule ~only:Global_sched.is_inner_region
          ~regions:(regions ()) ~alias machine config cfg)
  in
  let rotated =
    stage "rotate" ~runs:(global && config.Config.rotate_small_loops)
      ~skipped:0 (fun () ->
        Rotate.rotate_small_inner_loops ?prov ~max_blocks:small cfg)
  in
  let pass2 =
    stage "global-pass2" ~runs:global ~skipped:[] (fun () ->
        Global_sched.schedule
          ~only:(fun r -> rotated > 0 || not (Global_sched.is_inner_region r))
          ~regions:(regions ()) ~alias machine config cfg)
  in
  stage "local" ~runs:config.Config.local_post_pass ~skipped:() (fun () ->
      Local_sched.schedule_cfg ~rules:config.Config.rules
        ~obs:config.Config.obs ?prov ~disambig:config.Config.disambiguate
        ~alias
        (Option.value ~default:machine config.Config.local_machine)
        cfg);
  let regalloc =
    if config.Config.regalloc then
      stage "regalloc" ~runs:true ~skipped:None (fun () ->
          match
            Gis_regalloc.Regalloc.allocate ?gprs:config.Config.regs
              ?fprs:config.Config.regs ?prov machine cfg
          with
          | Ok alloc -> Some alloc
          | Error msg ->
              (* A typed, deterministic outcome — drivers classify it
                 as infeasibility, not a crash. *)
              raise (Gis_regalloc.Regalloc.Infeasible msg))
    else None
  in
  ignore (Cfg.reachable cfg);
  Gis_obs.Provenance.finalize prov cfg;
  { unrolled; rotated; pass1; pass2; regalloc; alias }

let run machine (config : Config.t) cfg =
  Gis_obs.Prof.record config.Config.prof "pipeline" (fun () ->
      run_phases machine config cfg)
