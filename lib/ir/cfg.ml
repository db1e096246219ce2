open Gis_util

type edge_kind = Taken | Fallthru | Always

let pp_edge_kind ppf k =
  Fmt.string ppf
    (match k with Taken -> "taken" | Fallthru -> "fallthru" | Always -> "always")

type t = {
  blocks : Block.t Vec.t;
  layout_order : int Vec.t;
  mutable entry_id : int;
  by_label : (Label.t, int) Hashtbl.t;
  reg_gen : Reg.Gen.t;
  instr_gen : Instr.Gen.t;
}

let create ?(reg_gen = Reg.Gen.create ()) () =
  {
    blocks = Vec.create ();
    layout_order = Vec.create ();
    entry_id = 0;
    by_label = Hashtbl.create 16;
    reg_gen;
    instr_gen = Instr.Gen.create ();
  }

let regs t = t.reg_gen
let fresh_reg t cls = Reg.Gen.fresh t.reg_gen cls
let make_instr t kind = Instr.Gen.make t.instr_gen kind
let copy_instr t i = Instr.Gen.copy t.instr_gen i

let new_block t ~label =
  if Hashtbl.mem t.by_label label then
    invalid_arg (Fmt.str "Cfg.add_block: duplicate label %a" Label.pp label);
  let id = Vec.length t.blocks in
  let b =
    {
      Block.id;
      label;
      body = Vec.create ();
      term = make_instr t Instr.Halt;
    }
  in
  Vec.push t.blocks b;
  Hashtbl.add t.by_label label id;
  b

let add_block t ~label =
  let b = new_block t ~label in
  Vec.push t.layout_order b.Block.id;
  b

let insert_block_after t ~after ~label =
  let b = new_block t ~label in
  match Vec.find_index (fun id -> id = after) t.layout_order with
  | None -> invalid_arg "Cfg.insert_block_after: unknown block"
  | Some pos ->
      Vec.insert t.layout_order (pos + 1) b.Block.id;
      b

let remove_block t id =
  match Vec.find_index (fun bid -> bid = id) t.layout_order with
  | None -> invalid_arg "Cfg.remove_block: block not in layout"
  | Some pos -> ignore (Vec.remove t.layout_order pos)

let set_entry t id = t.entry_id <- id
let entry t = t.entry_id
let num_blocks t = Vec.length t.blocks
let block t id = Vec.get t.blocks id

let find_label t label = Hashtbl.find_opt t.by_label label

let block_of_label t label =
  match find_label t label with
  | Some id -> block t id
  | None -> invalid_arg (Fmt.str "Cfg.block_of_label: unknown label %a" Label.pp label)

let layout t = Vec.to_list t.layout_order

let iter_blocks f t = Vec.iter (fun id -> f (block t id)) t.layout_order

let fold_blocks f acc t =
  Vec.fold_left (fun acc id -> f acc (block t id)) acc t.layout_order

let successors t id =
  let b = block t id in
  match Instr.kind b.Block.term with
  | Instr.Branch_cond { taken; fallthru; _ } ->
      [
        ((block_of_label t fallthru).Block.id, Fallthru);
        ((block_of_label t taken).Block.id, Taken);
      ]
  | Instr.Jump { target } -> [ ((block_of_label t target).Block.id, Always) ]
  | Instr.Halt -> []
  | Instr.Load _ | Instr.Store _ | Instr.Load_imm _ | Instr.Move _
  | Instr.Binop _ | Instr.Fbinop _ | Instr.Compare _ | Instr.Fcompare _
  | Instr.Call _ ->
      invalid_arg "Cfg.successors: non-branch terminator"

let predecessors t =
  let preds = Array.make (num_blocks t) [] in
  for id = 0 to num_blocks t - 1 do
    List.iter (fun (s, _) -> preds.(s) <- id :: preds.(s)) (successors t id)
  done;
  Array.map List.rev preds

let instr_count t =
  fold_blocks (fun acc b -> acc + Block.instr_count b) 0 t

let all_instrs t = List.concat_map Block.instrs (List.map (block t) (layout t))

(* Apply [f] to the layout blocks in order, or to block [only] alone. *)
let search t only f =
  match only with Some id -> f (block t id) | None -> iter_blocks f t

let owner_of_uid t u =
  let found = ref None in
  iter_blocks
    (fun b -> if !found = None && Block.mem_uid b u then found := Some b.Block.id)
    t;
  !found

let update_instr ?block:only t ~uid ~f =
  let found = ref false in
  search t only (fun b ->
      if not !found then begin
        if Instr.uid b.Block.term = uid then begin
          let i' = f b.Block.term in
          if Instr.uid i' <> uid then invalid_arg "Cfg.update_instr: uid changed";
          b.Block.term <- i';
          found := true
        end
        else
          match Block.find_body_index b ~uid with
          | Some idx ->
              let i' = f (Vec.get b.Block.body idx) in
              if Instr.uid i' <> uid then
                invalid_arg "Cfg.update_instr: uid changed";
              Vec.set b.Block.body idx i';
              found := true
          | None -> ()
      end);
  !found

let reachable t =
  let open Ints in
  let seen = ref Int_set.empty in
  let rec go id =
    if not (Int_set.mem id !seen) then begin
      seen := Int_set.add id !seen;
      List.iter (fun (s, _) -> go s) (successors t id)
    end
  in
  if num_blocks t > 0 then go t.entry_id;
  !seen

(* Copy [src]'s blocks into a fresh graph, keeping only ids in [keep]
   (in layout order), preserving labels and instruction uids. Shared
   helper for [compact] and [deep_copy]. *)
let rebuild src ~keep =
  let dst =
    {
      blocks = Vec.create ();
      layout_order = Vec.create ();
      entry_id = 0;
      by_label = Hashtbl.create 16;
      reg_gen = src.reg_gen;
      instr_gen = src.instr_gen;
    }
  in
  let kept = List.filter (fun id -> Ints.Int_set.mem id keep) (layout src) in
  List.iter
    (fun old_id ->
      let old = block src old_id in
      let b = add_block dst ~label:old.Block.label in
      Vec.append b.Block.body old.Block.body;
      b.Block.term <- old.Block.term)
    kept;
  (match find_label dst (block src src.entry_id).Block.label with
  | Some id -> dst.entry_id <- id
  | None -> invalid_arg "Cfg.rebuild: entry block not kept");
  dst

let compact t = rebuild t ~keep:(reachable t)

let deep_copy t =
  let all =
    List.fold_left
      (fun acc id -> Ints.Int_set.add id acc)
      Ints.Int_set.empty (layout t)
  in
  (* [rebuild] copies body vectors via [Vec.append], so the result shares
     no mutable structure; instructions themselves are immutable. *)
  rebuild t ~keep:all

let pp ppf t =
  let first = ref true in
  Fmt.pf ppf "@[<v>";
  iter_blocks
    (fun b ->
      if !first then first := false else Fmt.cut ppf ();
      Block.pp ppf b)
    t;
  Fmt.pf ppf "@]"
