open Gis_util

type edge_kind = Taken | Fallthru | Always

let pp_edge_kind ppf k =
  Fmt.string ppf
    (match k with Taken -> "taken" | Fallthru -> "fallthru" | Always -> "always")

(* [shape] counts the writes that change the graph's shape: a new
   block, or a terminator whose successor labels changed. [succ] and
   [pred] are the edges decoded from the terminators when [shape] read
   [decoded_at]; they are re-decoded on the first read after it moves
   on, so a terminator may name a label whose block is added later, as
   long as nothing reads the edges in between. *)
type t = {
  blocks : Block.t Vec.t;
  layout_order : int Vec.t;
  mutable entry_id : int;
  by_label : (Label.t, int) Hashtbl.t;
  reg_gen : Reg.Gen.t;
  instr_gen : Instr.Gen.t;
  mutable shape : int;
  mutable decoded_at : int;
  mutable succ : (int * edge_kind) list array;
  mutable pred : int list array;
}

let create ?(reg_gen = Reg.Gen.create ()) () =
  {
    blocks = Vec.create ();
    layout_order = Vec.create ();
    entry_id = 0;
    by_label = Hashtbl.create 16;
    reg_gen;
    instr_gen = Instr.Gen.create ();
    shape = 0;
    decoded_at = -1;
    succ = [||];
    pred = [||];
  }

let regs t = t.reg_gen
let fresh_reg t cls = Reg.Gen.fresh t.reg_gen cls
let make_instr t kind = Instr.Gen.make t.instr_gen kind
let copy_instr t i = Instr.Gen.copy t.instr_gen i
let shape_version t = t.shape

let new_block t ~label =
  if Hashtbl.mem t.by_label label then
    invalid_arg (Fmt.str "Cfg.add_block: duplicate label %a" Label.pp label);
  let id = Vec.length t.blocks in
  let b =
    {
      Block_rep.id;
      label;
      body = Vec.create ();
      term = make_instr t Instr.Halt;
    }
  in
  Vec.push t.blocks b;
  Hashtbl.add t.by_label label id;
  t.shape <- t.shape + 1;
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

let layout_rank t =
  let rank = Array.make (num_blocks t) 0 in
  Vec.iteri (fun pos id -> rank.(id) <- pos) t.layout_order;
  rank

let iter_blocks f t = Vec.iter (fun id -> f (block t id)) t.layout_order

let fold_blocks f acc t =
  Vec.fold_left (fun acc id -> f acc (block t id)) acc t.layout_order

(* Do two terminators name the same successor labels in the same edge
   order? *)
let same_targets a b =
  match Instr.kind a, Instr.kind b with
  | Instr.Branch_cond x, Instr.Branch_cond y ->
      Label.equal x.taken y.taken && Label.equal x.fallthru y.fallthru
  | Instr.Jump x, Instr.Jump y -> Label.equal x.target y.target
  | Instr.Halt, Instr.Halt -> true
  | _, _ -> false

let set_term t id term =
  let b = block t id in
  if not (same_targets b.Block.term term) then t.shape <- t.shape + 1;
  b.Block_rep.term <- term

let retarget t id ~f =
  let term = (block t id).Block.term in
  let kind =
    match Instr.kind term with
    | Instr.Branch_cond br ->
        Instr.Branch_cond { br with taken = f br.taken; fallthru = f br.fallthru }
    | Instr.Jump { target } -> Instr.Jump { target = f target }
    | Instr.Halt -> Instr.Halt
    | Instr.Load _ | Instr.Store _ | Instr.Load_imm _ | Instr.Move _
    | Instr.Binop _ | Instr.Fbinop _ | Instr.Compare _ | Instr.Fcompare _
    | Instr.Call _ ->
        invalid_arg "Cfg.retarget: non-branch terminator"
  in
  set_term t id (Instr.with_kind term kind)

let decode t b =
  let id l = (block_of_label t l).Block.id in
  match Block.successor_labels b with
  | [ fallthru; taken ] -> [ (id fallthru, Fallthru); (id taken, Taken) ]
  | [ target ] -> [ (id target, Always) ]
  | _ -> []

(* Bring [succ] and [pred] up to the current shape. Predecessors are
   pushed from the highest block id down, so each list ascends. *)
let decode_edges t =
  if t.decoded_at <> t.shape then begin
    let n = num_blocks t in
    let succ = Array.init n (fun id -> decode t (block t id)) in
    let pred = Array.make n [] in
    for id = n - 1 downto 0 do
      List.iter (fun (s, _) -> pred.(s) <- id :: pred.(s)) succ.(id)
    done;
    t.succ <- succ;
    t.pred <- pred;
    t.decoded_at <- t.shape
  end

let edges_cached t = t.decoded_at = t.shape

let successors t id =
  decode_edges t;
  t.succ.(id)

let predecessors t id =
  decode_edges t;
  t.pred.(id)

let instr_count t =
  fold_blocks (fun acc b -> acc + Block.instr_count b) 0 t

let all_instrs t = List.concat_map Block.instrs (List.map (block t) (layout t))

let update_instr ?block:only t ~uid ~f =
  let replace old set =
    let i' = f old in
    if Instr.uid i' <> uid then invalid_arg "Cfg.update_instr: uid changed";
    set i'
  in
  let update (b : Block.t) =
    if Instr.uid b.term = uid then (replace b.term (set_term t b.id); true)
    else
      match Block.find_body_index b ~uid with
      | Some idx -> replace (Vec.get b.body idx) (Vec.set b.body idx); true
      | None -> false
  in
  match only with
  | Some id -> update (block t id)
  | None -> Vec.exists (fun id -> update (block t id)) t.layout_order

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

(* Copy [src]'s layout blocks for which [keep] holds into a fresh
   graph, preserving labels and instruction uids. Shared helper for
   [compact] and [deep_copy]. *)
let rebuild src ~keep =
  let dst = { (create ~reg_gen:src.reg_gen ()) with instr_gen = src.instr_gen } in
  iter_blocks
    (fun old ->
      if keep old.Block.id then begin
        let b = add_block dst ~label:old.Block.label in
        Vec.append b.Block.body old.Block.body;
        set_term dst b.Block.id old.Block.term
      end)
    src;
  (match find_label dst (block src src.entry_id).Block.label with
  | Some id -> dst.entry_id <- id
  | None -> invalid_arg "Cfg.rebuild: entry block not kept");
  dst

let compact t =
  let live = reachable t in
  rebuild t ~keep:(fun id -> Ints.Int_set.mem id live)

(* [rebuild] copies body vectors via [Vec.append], so the copy shares
   no mutable structure; instructions themselves are immutable. *)
let deep_copy t = rebuild t ~keep:(fun _ -> true)

let pp ppf t =
  let first = ref true in
  Fmt.pf ppf "@[<v>";
  iter_blocks
    (fun b ->
      if !first then first := false else Fmt.cut ppf ();
      Block.pp ppf b)
    t;
  Fmt.pf ppf "@]"
