(* The balanced-tree reaching-definitions analysis that
   [Gis_analysis.Reaching] replaced with dense bitsets, kept verbatim as
   an independent reference: the checker shares [Reaching] with the
   compiler, so only this copy can catch a defect in the rewrite. *)

open Gis_util
open Gis_ir

type site = Gis_analysis.Reaching.site = Def of int | External

(* Sites are interned to dense indices so the dataflow runs on integer
   sets. [Reg.hash] is injective, so it serves as a register key. *)
type t = {
  use_chains : (int * int, site list) Hashtbl.t;  (* (uid, reg key) -> sites *)
  def_chains : (int * int, int list) Hashtbl.t;   (* (uid, reg key) -> use uids *)
}

let reg_key r = Reg.hash r

let compute cfg =
  let open Ints in
  (* 1. Enumerate definition sites. *)
  let site_of = Hashtbl.create 64 in (* (sitekind, regkey) -> index *)
  let sites = Vec.create () in       (* index -> (site, reg) *)
  let intern site reg =
    let key = ((match site with Def u -> u | External -> -1), reg_key reg) in
    match Hashtbl.find_opt site_of key with
    | Some idx -> idx
    | None ->
        let idx = Vec.length sites in
        Vec.push sites (site, reg);
        Hashtbl.add site_of key idx;
        idx
  in
  let sites_of_reg = Hashtbl.create 64 in (* regkey -> index list *)
  let note_reg_site reg idx =
    let k = reg_key reg in
    let cur = Option.value ~default:[] (Hashtbl.find_opt sites_of_reg k) in
    if not (List.mem idx cur) then Hashtbl.replace sites_of_reg k (idx :: cur)
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
              note_reg_site r (intern (Def (Instr.uid i)) r))
            (Instr.defs i))
        (Block.instrs b))
    cfg;
  let external_sites =
    Reg.Set.fold
      (fun r acc ->
        let idx = intern External r in
        note_reg_site r idx;
        Int_set.add idx acc)
      !all_regs Int_set.empty
  in
  let indices_of_reg r =
    Option.value ~default:[] (Hashtbl.find_opt sites_of_reg (reg_key r))
  in
  (* 2. gen/kill per block. *)
  let n = Cfg.num_blocks cfg in
  let gen = Array.make n Int_set.empty in
  let kill = Array.make n Int_set.empty in
  for id = 0 to n - 1 do
    let b = Cfg.block cfg id in
    List.iter
      (fun i ->
        List.iter
          (fun r ->
            let own = intern (Def (Instr.uid i)) r in
            let others =
              List.filter (fun s -> s <> own) (indices_of_reg r)
            in
            gen.(id) <-
              Int_set.add own
                (List.fold_left (fun g s -> Int_set.remove s g) gen.(id) others);
            kill.(id) <-
              List.fold_left (fun k s -> Int_set.add s k) kill.(id) others)
          (Instr.defs i))
      (Block.instrs b)
  done;
  (* 3. Forward dataflow. *)
  let in_ = Array.make n Int_set.empty in
  let out = Array.make n Int_set.empty in
  let preds = Test_support.preds cfg in
  let entry = Cfg.entry cfg in
  let step () =
    let changed = ref false in
    List.iter
      (fun id ->
        let inn =
          List.fold_left
            (fun acc p -> Int_set.union acc out.(p))
            (if id = entry then external_sites else Int_set.empty)
            preds.(id)
        in
        let o = Int_set.union gen.(id) (Int_set.diff inn kill.(id)) in
        if not (Int_set.equal inn in_.(id)) || not (Int_set.equal o out.(id))
        then begin
          in_.(id) <- inn;
          out.(id) <- o;
          changed := true
        end)
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
    let b = Cfg.block cfg id in
    let running = ref in_.(id) in
    List.iter
      (fun i ->
        List.iter
          (fun r ->
            let reaching =
              List.filter (fun s -> Int_set.mem s !running) (indices_of_reg r)
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
          (fun r ->
            let own = intern (Def (Instr.uid i)) r in
            running :=
              Int_set.add own
                (List.fold_left
                   (fun acc s -> Int_set.remove s acc)
                   !running (indices_of_reg r)))
          (Instr.defs i))
      (Block.instrs b)
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
