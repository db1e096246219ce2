open Gis_ir
open Gis_analysis

let rotate ?prov ~rank cfg (loop : Loops.loop) =
  let header = Cfg.block cfg loop.Loops.header in
  let header_label = header.Block.label in
  let copy_lbl = Label.fresh ~prefix:(header_label ^ ".r") () in
  (* Place the copy after the loop's last block in layout order. *)
  let copy =
    Cfg.insert_block_after cfg ~after:(Loops.last_block ~rank loop)
      ~label:copy_lbl
  in
  (* The copy branches exactly where the original header did. *)
  Gis_util.Vec.iter
    (fun i ->
      let ci = Cfg.copy_instr cfg i in
      Gis_obs.Provenance.copied prov ~orig:(Instr.uid i) ~copy:(Instr.uid ci)
        ~block:copy_lbl;
      Gis_util.Vec.push copy.Block.body ci)
    header.Block.body;
  let term = Cfg.make_instr cfg (Instr.kind header.Block.term) in
  Gis_obs.Provenance.copied prov ~orig:(Instr.uid header.Block.term)
    ~copy:(Instr.uid term) ~block:copy_lbl;
  Cfg.set_term cfg copy.Block.id term;
  (* Back edges now land on the copy. *)
  List.iter
    (fun (tail, _) ->
      Cfg.retarget cfg tail ~f:(fun t ->
          if Label.equal t header_label then copy_lbl else t))
    loop.Loops.back_edges;
  copy_lbl

let rotate_small_inner_loops ?prov ~max_blocks cfg =
  (* One forest serves the whole stage. The targets are innermost, so
     they are disjoint; rotating one adds a block only to it and its
     ancestors, and [Cfg.insert_block_after] leaves every existing block
     id alone. So every other target's header, blocks and back edges
     are still those of its record. A copy goes after its own loop, so
     the layout order among every other target's blocks, and so one
     layout rank, holds for the whole stage. *)
  let targets = Loops.small_innermost ~max_blocks cfg in
  let rank = Cfg.layout_rank cfg in
  List.iter (fun l -> ignore (rotate ?prov ~rank cfg l)) targets;
  List.length targets
