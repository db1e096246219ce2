open Gis_util
open Gis_ir

type site = Def of int | External

let pp_site ppf = function
  | Def uid -> Fmt.pf ppf "def#%d" uid
  | External -> Fmt.string ppf "external"

let equal_site a b =
  match a, b with
  | Def x, Def y -> x = y
  | External, External -> true
  | Def _, External | External, Def _ -> false

(* Sites are interned to dense indices so the dataflow runs on dense
   bitsets ({!Gis_util.Bitset}), one bit per site. [Reg.hash] is
   injective, so it serves as a register key. *)
type t = {
  use_chains : (int * int, site list) Hashtbl.t;  (* (uid, reg key) -> sites *)
  def_chains : (int * int, int list) Hashtbl.t;   (* (uid, reg key) -> use uids *)
}

let reg_key r = Reg.hash r

let compute cfg =
  (* 1. Enumerate definition sites. *)
  let site_of = Hashtbl.create 64 in (* (sitekind, regkey) -> index *)
  let sites = Vec.create () in       (* index -> (site, reg) *)
  let sites_of_reg = Hashtbl.create 64 in (* regkey -> index list *)
  (* Interning a site for the first time also prepends it to its
     register's list, so each list holds distinct indices, newest
     first. *)
  let intern site reg =
    let key = ((match site with Def u -> u | External -> -1), reg_key reg) in
    match Hashtbl.find_opt site_of key with
    | Some idx -> idx
    | None ->
        let idx = Vec.length sites in
        Vec.push sites (site, reg);
        Hashtbl.add site_of key idx;
        let k = reg_key reg in
        let cur = Option.value ~default:[] (Hashtbl.find_opt sites_of_reg k) in
        Hashtbl.replace sites_of_reg k (idx :: cur);
        idx
  in
  let all_regs = ref Reg.Set.empty in
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          List.iter (fun r -> all_regs := Reg.Set.add r !all_regs) (Instr.uses i);
          List.iter
            (fun r ->
              all_regs := Reg.Set.add r !all_regs;
              ignore (intern (Def (Instr.uid i)) r))
            (Instr.defs i))
        (Block.instrs b))
    cfg;
  let external_idx =
    List.map (fun r -> intern External r) (Reg.Set.elements !all_regs)
  in
  (* Definitions in detached blocks are sites too: they reach later uses
     in their own block, though no dataflow reaches into or out of it. *)
  for id = 0 to Cfg.num_blocks cfg - 1 do
    List.iter
      (fun i ->
        List.iter (fun r -> ignore (intern (Def (Instr.uid i)) r)) (Instr.defs i))
      (Block.instrs (Cfg.block cfg id))
  done;
  let nsites = Vec.length sites in
  let external_sites = Bitset.create nsites in
  List.iter (Bitset.add external_sites) external_idx;
  let indices_of_reg r =
    Option.value ~default:[] (Hashtbl.find_opt sites_of_reg (reg_key r))
  in
  (* [define running r own]: the definition [own] of [r] replaces every
     other site of [r] in [running]. *)
  let define running r own =
    List.iter (Bitset.remove running) (indices_of_reg r);
    Bitset.add running own
  in
  (* 2. gen/kill per block. *)
  let n = Cfg.num_blocks cfg in
  let gen = Array.init n (fun _ -> Bitset.create nsites) in
  let kill = Array.init n (fun _ -> Bitset.create nsites) in
  for id = 0 to n - 1 do
    List.iter
      (fun i ->
        List.iter
          (fun r ->
            let own = intern (Def (Instr.uid i)) r in
            define gen.(id) r own;
            List.iter
              (fun s -> if s <> own then Bitset.add kill.(id) s)
              (indices_of_reg r))
          (Instr.defs i))
      (Block.instrs (Cfg.block cfg id))
  done;
  (* 3. Forward dataflow. *)
  let in_ = Array.init n (fun _ -> Bitset.create nsites) in
  let out = Array.init n (fun _ -> Bitset.create nsites) in
  let preds = Cfg.predecessors cfg in
  let entry = Cfg.entry cfg in
  let inn = Bitset.create nsites in
  let step () =
    let changed = ref false in
    List.iter
      (fun id ->
        Bitset.clear inn;
        if id = entry then Bitset.union_into ~dst:inn external_sites;
        List.iter (fun p -> Bitset.union_into ~dst:inn out.(p)) preds.(id);
        let in_changed = Bitset.assign ~dst:in_.(id) inn in
        let out_changed =
          Bitset.transfer ~dst:out.(id) ~gen:gen.(id) ~kill:kill.(id) inn
        in
        if in_changed || out_changed then changed := true)
      (Cfg.layout cfg);
    !changed
  in
  ignore (Fix.iterate step);
  (* 4. Walk each block once more to record use-def / def-use chains. *)
  let use_chains = Hashtbl.create 64 in
  let def_chains = Hashtbl.create 64 in
  let add_def_use duid reg use_uid =
    let key = (duid, reg_key reg) in
    let cur = Option.value ~default:[] (Hashtbl.find_opt def_chains key) in
    if not (List.mem use_uid cur) then
      Hashtbl.replace def_chains key (use_uid :: cur)
  in
  for id = 0 to n - 1 do
    let running = in_.(id) in
    List.iter
      (fun i ->
        List.iter
          (fun r ->
            let reaching =
              List.filter (Bitset.mem running) (indices_of_reg r)
              |> List.map (fun s -> fst (Vec.get sites s))
            in
            Hashtbl.replace use_chains (Instr.uid i, reg_key r) reaching;
            List.iter
              (function
                | Def duid -> add_def_use duid r (Instr.uid i)
                | External -> ())
              reaching)
          (Instr.uses i);
        List.iter
          (fun r -> define running r (intern (Def (Instr.uid i)) r))
          (Instr.defs i))
      (Block.instrs (Cfg.block cfg id))
  done;
  { use_chains; def_chains }

let defs_of_use t ~uid ~reg =
  match Hashtbl.find_opt t.use_chains (uid, reg_key reg) with
  | Some sites -> sites
  | None ->
      invalid_arg
        (Fmt.str "Reaching.defs_of_use: instruction %d has no use of %a" uid
           Reg.pp reg)

let uses_of_def t ~uid ~reg =
  Option.value ~default:[] (Hashtbl.find_opt t.def_chains (uid, reg_key reg))

let sole_def_of_all_uses t ~uid ~reg =
  let uses = uses_of_def t ~uid ~reg in
  let sole u =
    match defs_of_use t ~uid:u ~reg with
    | [ Def d ] -> d = uid
    | [] | [ External ] | _ :: _ -> false
  in
  if List.for_all sole uses then Some uses else None

(* ---- demand-driven queries ---- *)

module Query = struct
  (* [succs] and [preds] keep only layout-to-layout edges, the only ones
     [compute]'s dataflow propagates along. [stamp] marks the blocks one
     walk has visited: those holding the walk's [epoch]. *)
  type nonrec t = {
    cfg : Cfg.t;
    in_layout : bool array;
    succs : int list array;
    preds : int list array;
    stamp : int array;
    mutable epoch : int;
  }

  let create cfg =
    let n = Cfg.num_blocks cfg in
    let in_layout = Array.make n false in
    List.iter (fun id -> in_layout.(id) <- true) (Cfg.layout cfg);
    let layout_only id ps =
      if in_layout.(id) then List.filter (fun p -> in_layout.(p)) ps else []
    in
    let succs =
      Array.init n (fun id -> layout_only id (List.map fst (Cfg.successors cfg id)))
    in
    let preds = Array.mapi layout_only (Cfg.predecessors cfg) in
    { cfg; in_layout; succs; preds; stamp = Array.make n 0; epoch = 0 }

  (* Starts a walk: the returned [first id] is true only the first time
     the walk asks about [id]. *)
  let new_walk q =
    q.epoch <- q.epoch + 1;
    fun id ->
      q.stamp.(id) <> q.epoch
      &&
      (q.stamp.(id) <- q.epoch;
       true)

  let length b = Vec.length b.Block.body + 1

  let instr_at b k =
    if k < Vec.length b.Block.body then Vec.get b.Block.body k else b.Block.term

  let mentions r regs = List.exists (Reg.equal r) regs

  let position q ~block ~uid =
    let b = Cfg.block q.cfg block in
    if Instr.uid b.Block.term = uid then (b, Vec.length b.Block.body)
    else
      match Block.find_body_index b ~uid with
      | Some k -> (b, k)
      | None ->
          invalid_arg
            (Fmt.str "Reaching.Query: no instruction %d in block %d" uid block)

  (* The last definition of [r] among the first [k] instructions of [b]. *)
  let rec last_def b r k =
    if k <= 0 then None
    else
      let i = instr_at b (k - 1) in
      if mentions r (Instr.defs i) then Some (Instr.uid i)
      else last_def b r (k - 1)

  let defs_of_use q ~block ~uid ~reg =
    let b, k = position q ~block ~uid in
    if not (mentions reg (Instr.uses (instr_at b k))) then
      invalid_arg
        (Fmt.str "Reaching.Query.defs_of_use: instruction %d has no use of %a"
           uid Reg.pp reg);
    match last_def b reg k with
    | Some d -> [ Def d ]
    | None when not q.in_layout.(block) -> []
    | None ->
        (* Walk back through the blocks whose entry the use's value
           flows through, to the last definition on each path; the
           entry's top contributes [External]. *)
        let first = new_walk q in
        let sites = ref [] in
        let add s =
          if not (List.exists (equal_site s) !sites) then sites := s :: !sites
        in
        let rec enter x =
          if x = Cfg.entry q.cfg then add External;
          List.iter
            (fun p ->
              let pb = Cfg.block q.cfg p in
              match last_def pb reg (length pb) with
              | Some d -> add (Def d)
              | None -> if first p then enter p)
            q.preds.(x)
        in
        ignore (first block);
        enter block;
        List.rev !sites

  (* The uses a definition reaches, each with its block. *)
  let located_uses q ~block ~uid ~reg =
    let b, k = position q ~block ~uid in
    if not (mentions reg (Instr.defs (instr_at b k))) then
      invalid_arg
        (Fmt.str "Reaching.Query.uses_of_def: instruction %d has no def of %a"
           uid Reg.pp reg);
    let uses = ref [] in
    (* Scan [id] from position [j]; true when the value survives the
       block. *)
    let rec scan id blk j =
      j >= length blk
      ||
      let i = instr_at blk j in
      if mentions reg (Instr.uses i)
         && not (List.exists (fun (u, _) -> u = Instr.uid i) !uses)
      then uses := (Instr.uid i, id) :: !uses;
      (not (mentions reg (Instr.defs i))) && scan id blk (j + 1)
    in
    let first = new_walk q in
    let rec leave x =
      List.iter
        (fun s -> if first s && scan s (Cfg.block q.cfg s) 0 then leave s)
        q.succs.(x)
    in
    if scan block b (k + 1) then leave block;
    List.rev !uses

  let uses_of_def q ~block ~uid ~reg =
    List.map fst (located_uses q ~block ~uid ~reg)

  let sole_def_of_all_uses q ~block ~uid ~reg =
    let uses = located_uses q ~block ~uid ~reg in
    let sole (u, ub) =
      match defs_of_use q ~block:ub ~uid:u ~reg with
      | [ Def d ] -> d = uid
      | [] | [ External ] | _ :: _ -> false
    in
    if List.for_all sole uses then Some uses else None
end
