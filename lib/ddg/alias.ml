open Gis_ir

type family = Int_mem | Float_mem

type ref_info = {
  base : Reg.t;
  version : int;
  offset : int;
  width : int;
  family : family;
}

type access =
  | Load_ref of ref_info
  | Store_ref of ref_info
  | Call_ref

(* The access's memory family is chosen by the class of the moved
   register, exactly as the simulator selects its [mem]/[fmem] table;
   the width then belongs to the family (a float access moves a
   doubleword, everything else a word), not to whatever class the
   register happens to have. *)
let family_of_moved (r : Reg.t) =
  match r.Reg.cls with Reg.Fpr -> Float_mem | Reg.Gpr | Reg.Cr -> Int_mem

let width_of_family = function Float_mem -> 8 | Int_mem -> 4

let access_of_instr ~version_of i =
  let ref_of ~moved ~base ~offset =
    let family = family_of_moved moved in
    {
      base;
      version = version_of base;
      offset;
      width = width_of_family family;
      family;
    }
  in
  match Instr.kind i with
  | Instr.Load { dst; base; offset; _ } ->
      Some (Load_ref (ref_of ~moved:dst ~base ~offset))
  | Instr.Store { src; base; offset; _ } ->
      Some (Store_ref (ref_of ~moved:src ~base ~offset))
  | Instr.Call _ -> Some Call_ref
  | Instr.Load_imm _ | Instr.Move _ | Instr.Binop _ | Instr.Fbinop _
  | Instr.Compare _ | Instr.Fcompare _ | Instr.Branch_cond _ | Instr.Jump _
  | Instr.Halt ->
      None

let ranges_disjoint a b =
  a.offset + a.width <= b.offset || b.offset + b.width <= a.offset

(* Proven-disjoint: same base value, non-overlapping [offset,
   offset+width) intervals. Unknown versions (-1) still compare equal
   only to -1, which is sound within one block scan: version -1 means
   "whatever the base held at block entry", a single well-defined
   value. Accesses of different families live in architecturally
   disjoint memories and never need the base proof at all. *)
let disjoint a b =
  a.family <> b.family
  || (Reg.equal a.base b.base && a.version = b.version && ranges_disjoint a b)

let conflict a b =
  match a, b with
  | Load_ref _, Load_ref _ -> false
  | Call_ref, _ | _, Call_ref -> true
  | Load_ref x, Store_ref y
  | Store_ref x, Load_ref y
  | Store_ref x, Store_ref y ->
      not (disjoint x y)

let baseline_conflict a b =
  match a, b with
  | Load_ref _, Load_ref _ -> false
  | Call_ref, _ | _, Call_ref -> true
  | Load_ref x, Store_ref y
  | Store_ref x, Load_ref y
  | Store_ref x, Store_ref y ->
      not (Reg.equal x.base y.base && x.version = y.version && ranges_disjoint x y)
