open Gis_util
open Gis_ir
open Gis_analysis
open Ints

(* Clone the instructions of [src] into [dst] with fresh uids,
   rewriting branch targets through [map_target]. *)
let clone_block_into ?prov cfg ~map_target ~(src : Block.t) ~(dst : Block.t) =
  Vec.iter
    (fun i ->
      let copy = Cfg.copy_instr cfg i in
      Gis_obs.Provenance.copied prov ~orig:(Instr.uid i)
        ~copy:(Instr.uid copy) ~block:dst.Block.label;
      Vec.push dst.Block.body copy)
    src.Block.body;
  let term = Cfg.make_instr cfg (Instr.kind src.Block.term) in
  Gis_obs.Provenance.copied prov ~orig:(Instr.uid src.Block.term)
    ~copy:(Instr.uid term) ~block:dst.Block.label;
  Cfg.set_term cfg dst.Block.id term;
  Cfg.retarget cfg dst.Block.id ~f:map_target

let unroll_once ?prov ~rank cfg (loop : Loops.loop) =
  let header_label = (Cfg.block cfg loop.Loops.header).Block.label in
  let members = Int_set.elements loop.Loops.blocks in
  (* Fresh labels for the copy, keyed by original label. *)
  let copy_label = Hashtbl.create 8 in
  List.iter
    (fun b ->
      let l = (Cfg.block cfg b).Block.label in
      Hashtbl.replace copy_label l (Label.fresh ~prefix:(l ^ ".u") ()))
    members;
  (* Create copy blocks after the loop's last block in layout order. *)
  let anchor = ref (Loops.last_block ~rank loop) in
  let copies =
    List.map
      (fun b ->
        let l = (Cfg.block cfg b).Block.label in
        let nb =
          Cfg.insert_block_after cfg ~after:!anchor
            ~label:(Hashtbl.find copy_label l)
        in
        anchor := nb.Block.id;
        (b, nb))
      members
  in
  (* Original blocks: back edges (to the header) now enter the copy's
     header; everything else is unchanged. *)
  let to_copy l = Option.value ~default:l (Hashtbl.find_opt copy_label l) in
  let redirect_original b =
    Cfg.retarget cfg b ~f:(fun target ->
        if Label.equal target header_label then to_copy header_label else target)
  in
  (* Copy blocks: in-loop targets go to the copy's labels, except the
     header, which closes the unrolled iteration back to the original. *)
  let copy_target l =
    if Label.equal l header_label then header_label
    else Option.value ~default:l (Hashtbl.find_opt copy_label l)
  in
  List.iter
    (fun (orig_id, nb) ->
      clone_block_into ?prov cfg ~map_target:copy_target
        ~src:(Cfg.block cfg orig_id) ~dst:nb)
    copies;
  List.iter redirect_original members

let unroll_small_inner_loops ?prov ~max_blocks cfg =
  (* One forest serves the whole stage. The targets are innermost, so
     they are disjoint; unrolling one adds blocks only to it and its
     ancestors, and [Cfg.insert_block_after] leaves every existing block
     id alone. So every other target's header, blocks and back edges
     are still those of its record, and fixing the targets up front
     also keeps a loop we have just doubled from being doubled again.
     Copies go after their own loop, so the layout order among every
     other target's blocks, and so one layout rank, holds for the whole
     stage. *)
  let targets = Loops.small_innermost ~max_blocks cfg in
  let rank = Cfg.layout_rank cfg in
  List.iter (unroll_once ?prov ~rank cfg) targets;
  List.length targets
