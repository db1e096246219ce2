open Gis_util
open Gis_ir
open Gis_ddg

let schedule_block ?(rules = Priority_rule.paper_order) ?prov ?sym ?alias
    machine (b : Block.t) =
  let ddg = Ddg.build_single_block ?sym machine b in
  (match alias with Some t -> Ddg.add_tally t ddg | None -> ());
  let heur = Heuristics.compute ddg in
  let n = Ddg.num_nodes ddg in
  let item i =
    {
      Priority.node = i;
      useful = true;
      d = Heuristics.d heur i;
      cp = Heuristics.cp heur i;
      order = i;
      pressure = 0;
    }
  in
  let order, issue =
    List_sched.run ~machine ~rules ~item
      ~commit:(fun _ -> List_sched.Accept)
      ~own:(List.init n Fun.id) ~imports:[] ~term:(n - 1) ddg
  in
  let instr_of i =
    match (Ddg.node ddg i).Ddg.instr with
    | Some ins -> ins
    | None -> assert false
  in
  (* Decision-time ranks for instructions the global pass never moved:
     fills a record's empty scores, never overwrites a motion's. *)
  (match prov with
  | None -> ()
  | Some _ ->
      List.iter
        (fun i ->
          Gis_obs.Provenance.scored prov ~uid:(Instr.uid (instr_of i))
            ~scores:(Priority.scores (item i)))
        order);
  let body_order = List.filter (fun i -> i <> n - 1) order in
  Vec.clear b.Block.body;
  List.iter (fun i -> Vec.push b.Block.body (instr_of i)) body_order;
  issue.(n - 1) + 1

let schedule_cfg ?(rules = Priority_rule.paper_order) ?(obs = Gis_obs.Sink.null)
    ?prov ?(disambig = true) ?alias machine cfg =
  (* One whole-procedure address analysis serves every block: the facts
     are per-access and reordering within a block cannot change them. *)
  let sym =
    if disambig then Some (Gis_analysis.Symaddr.compute cfg) else None
  in
  Cfg.iter_blocks
    (fun b ->
      let cycles = schedule_block ~rules ?prov ?sym ?alias machine b in
      obs.Gis_obs.Sink.emit
        (Gis_obs.Sink.Block_scheduled { block = b.Block.label; cycles }))
    cfg
