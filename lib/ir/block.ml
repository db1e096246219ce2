open Gis_util

type t = Block_rep.t = {
  id : int;
  label : Label.t;
  body : Instr.t Vec.t;
  mutable term : Instr.t;
}

let successor_labels b =
  match Instr.kind b.term with
  | Instr.Branch_cond { taken; fallthru; _ } -> [ fallthru; taken ]
  | Instr.Jump { target } -> [ target ]
  | Instr.Halt -> []
  | Instr.Load _ | Instr.Store _ | Instr.Load_imm _ | Instr.Move _
  | Instr.Binop _ | Instr.Fbinop _ | Instr.Compare _ | Instr.Fcompare _
  | Instr.Call _ ->
      invalid_arg "Block.successor_labels: non-branch terminator"

let instr_count b = Vec.length b.body + 1

let instrs b = Vec.to_list b.body @ [ b.term ]

let iter f b =
  Vec.iter f b.body;
  f b.term

let mem_uid b uid =
  Instr.uid b.term = uid || Vec.exists (fun i -> Instr.uid i = uid) b.body

let find_body_index b ~uid = Vec.find_index (fun i -> Instr.uid i = uid) b.body

let remove_by_uid b ~uid =
  match find_body_index b ~uid with
  | Some idx -> Vec.remove b.body idx
  | None -> raise Not_found

let pp ppf b =
  Fmt.pf ppf "@[<v>%a:" Label.pp b.label;
  Vec.iter (fun i -> Fmt.pf ppf "@,  %a" Instr.pp i) b.body;
  Fmt.pf ppf "@,  %a@]" Instr.pp b.term
