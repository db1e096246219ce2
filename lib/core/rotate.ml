open Gis_ir
open Gis_analysis
open Gis_util.Ints

let rotate ?prov cfg (loop : Loops.loop) =
  let header = Cfg.block cfg loop.Loops.header in
  let header_label = header.Block.label in
  let copy_lbl = Label.fresh ~prefix:(header_label ^ ".r") () in
  (* Place the copy after the loop's last block in layout order. *)
  let last_in_layout =
    List.fold_left
      (fun acc b -> if Int_set.mem b loop.Loops.blocks then b else acc)
      loop.Loops.header (Cfg.layout cfg)
  in
  let copy = Cfg.insert_block_after cfg ~after:last_in_layout ~label:copy_lbl in
  (* The copy branches exactly where the original header did. *)
  Gis_util.Vec.iter
    (fun i ->
      let ci = Cfg.copy_instr cfg i in
      Gis_obs.Provenance.copied prov ~orig:(Instr.uid i) ~copy:(Instr.uid ci)
        ~block:copy_lbl;
      Gis_util.Vec.push copy.Block.body ci)
    header.Block.body;
  (let term_kind =
     match Instr.kind header.Block.term with
     | Instr.Branch_cond _ | Instr.Jump _ | Instr.Halt -> Instr.kind header.Block.term
     | Instr.Load _ | Instr.Store _ | Instr.Load_imm _ | Instr.Move _
     | Instr.Binop _ | Instr.Fbinop _ | Instr.Compare _ | Instr.Fcompare _
     | Instr.Call _ ->
         invalid_arg "Rotate: non-branch terminator"
   in
   let term = Cfg.make_instr cfg term_kind in
   Gis_obs.Provenance.copied prov ~orig:(Instr.uid header.Block.term)
     ~copy:(Instr.uid term) ~block:copy_lbl;
   copy.Block.term <- term);
  (* Back edges now land on the copy. *)
  List.iter
    (fun (tail, _) ->
      let b = Cfg.block cfg tail in
      let remap t = if Label.equal t header_label then copy_lbl else t in
      match Instr.kind b.Block.term with
      | Instr.Branch_cond br ->
          b.Block.term <-
            Instr.with_kind b.Block.term
              (Instr.Branch_cond
                 { br with taken = remap br.taken; fallthru = remap br.fallthru })
      | Instr.Jump { target } ->
          b.Block.term <-
            Instr.with_kind b.Block.term (Instr.Jump { target = remap target })
      | Instr.Halt -> ()
      | Instr.Load _ | Instr.Store _ | Instr.Load_imm _ | Instr.Move _
      | Instr.Binop _ | Instr.Fbinop _ | Instr.Compare _ | Instr.Fcompare _
      | Instr.Call _ ->
          invalid_arg "Rotate: non-branch terminator")
    loop.Loops.back_edges;
  copy_lbl

let rotate_small_inner_loops ?prov ~max_blocks cfg =
  let info = Loops.compute cfg in
  if not (Loops.reducible info) then 0
  else begin
    (* One forest serves the whole stage. The targets are innermost,
       so they are disjoint; rotating one adds a block only to it and
       its ancestors, and [Cfg.insert_block_after] leaves every
       existing block id alone. So every other target's header, blocks
       and back edges are still those of its record. *)
    let targets =
      List.filter
        (fun (l : Loops.loop) ->
          l.Loops.children = [] && Int_set.cardinal l.Loops.blocks <= max_blocks)
        (Loops.innermost_first info)
    in
    List.iter (fun l -> ignore (rotate ?prov cfg l)) targets;
    List.length targets
  end
