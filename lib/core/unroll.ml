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
  let term_kind =
    match Instr.kind src.Block.term with
    | Instr.Branch_cond b ->
        Instr.Branch_cond
          { b with
            taken = map_target b.taken;
            fallthru = map_target b.fallthru
          }
    | Instr.Jump { target } -> Instr.Jump { target = map_target target }
    | Instr.Halt -> Instr.Halt
    | Instr.Load _ | Instr.Store _ | Instr.Load_imm _ | Instr.Move _
    | Instr.Binop _ | Instr.Fbinop _ | Instr.Compare _ | Instr.Fcompare _
    | Instr.Call _ ->
        invalid_arg "Unroll: non-branch terminator"
  in
  let term = Cfg.make_instr cfg term_kind in
  Gis_obs.Provenance.copied prov ~orig:(Instr.uid src.Block.term)
    ~copy:(Instr.uid term) ~block:dst.Block.label;
  dst.Block.term <- term

let unroll_once ?prov cfg (loop : Loops.loop) =
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
  let layout = Cfg.layout cfg in
  let last_in_layout =
    List.fold_left
      (fun acc b -> if Int_set.mem b loop.Loops.blocks then b else acc)
      loop.Loops.header layout
  in
  let anchor = ref last_in_layout in
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
  let redirect_original (b : Block.t) =
    let remap target =
      if Label.equal target header_label then to_copy header_label else target
    in
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
        invalid_arg "Unroll: non-branch terminator"
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
  List.iter (fun b -> redirect_original (Cfg.block cfg b)) members

let unroll_small_inner_loops ?prov ~max_blocks cfg =
  let info = Loops.compute cfg in
  if not (Loops.reducible info) then 0
  else begin
    (* One forest serves the whole stage. The targets are innermost,
       so they are disjoint; unrolling one adds blocks only to it and
       its ancestors, and [Cfg.insert_block_after] leaves every
       existing block id alone. So every other target's header, blocks
       and back edges are still those of its record, and fixing the
       targets up front also keeps a loop we have just doubled from
       being doubled again. *)
    let targets =
      List.filter
        (fun (l : Loops.loop) ->
          l.Loops.children = [] && Int_set.cardinal l.Loops.blocks <= max_blocks)
        (Loops.innermost_first info)
    in
    List.iter (unroll_once ?prov cfg) targets;
    List.length targets
  end
