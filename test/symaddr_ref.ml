(* The layout-sweep symbolic address analysis over [Int_map]
   environments that [Gis_analysis.Symaddr] replaced with dense
   slice-indexed arrays and change-driven re-joins, kept verbatim as an
   independent reference: every base value the rewrite records must
   equal this copy's. *)

open Gis_util
open Gis_ir

(* An origin is one definition instance: instruction [o_uid] defining
   register [o_reg] ([Reg.hash] is injective, so the hash is the
   register), or the register's value at procedure entry ([o_uid] =
   -1). A call that defines several registers yields one origin per
   register — collapsing them would claim two distinct results equal. *)
type origin = { o_uid : int; o_reg : int }

let equal_origin a b = a.o_uid = b.o_uid && a.o_reg = b.o_reg

let pp_origin ppf o =
  if o.o_uid < 0 then Fmt.pf ppf "entry(r%d)" o.o_reg
  else Fmt.pf ppf "def#%d(r%d)" o.o_uid o.o_reg

type value =
  | Const of int
  | Sym of { origin : origin; offset : int }
  | Top

let pp_value ppf = function
  | Const k -> Fmt.pf ppf "const %d" k
  | Sym { origin; offset } -> Fmt.pf ppf "%a%+d" pp_origin origin offset
  | Top -> Fmt.string ppf "top"

let equal_value a b =
  match a, b with
  | Const x, Const y -> x = y
  | Sym x, Sym y -> equal_origin x.origin y.origin && x.offset = y.offset
  | Top, Top -> true
  | (Const _ | Sym _ | Top), _ -> false

(* Environments map the register keys of the slice (see [slice] below)
   to values. A register absent from the map reads as [Top]: a slice
   register is absent only in unreachable blocks, because the entry
   environment seeds each with its own entry origin, and any other
   register is read only to define a register outside the slice, a
   definition [set] drops. *)
type env = value Ints.Int_map.t

let lookup env r =
  Option.value ~default:Top (Ints.Int_map.find_opt (Reg.hash r) env)

let join_value a b = if equal_value a b then a else Top

let join_env (a : env) (b : env) : env =
  Ints.Int_map.merge
    (fun _ va vb ->
      match va, vb with
      | Some x, Some y -> Some (join_value x y)
      | Some _, None | None, Some _ | None, None -> Some Top)
    a b

let equal_env (a : env) (b : env) = Ints.Int_map.equal equal_value a b

(* Affine shift; [None] when the input is [Top] (the caller then starts
   a fresh origin, which is always a sound description of a def). *)
let shift v k =
  match v with
  | Const c -> Some (Const (c + k))
  | Sym { origin; offset } -> Some (Sym { origin; offset = offset + k })
  | Top -> None

let fresh uid (r : Reg.t) = Sym { origin = { o_uid = uid; o_reg = Reg.hash r }; offset = 0 }

(* Only slice registers are tracked: a definition of any other register
   leaves the environment unchanged. *)
let set ~slice env (r : Reg.t) v =
  let k = Reg.hash r in
  if Ints.Int_set.mem k slice then Ints.Int_map.add k v env else env

(* Transfer of one instruction. [record] is called with the base value
   of a load/store before the [update] post-increment — the simulator
   computes the effective address from the old base, then writes the
   destination, then updates the base (so on [LU rT,rT] the update
   wins, mirrored by the [set] order below). *)
let transfer ~slice ~record env i =
  let uid = Instr.uid i in
  let set = set ~slice in
  let opaque env r = set env r (fresh uid r) in
  match Instr.kind i with
  | Instr.Load_imm { dst; value } -> set env dst (Const value)
  | Instr.Move { dst; src } -> (
      match lookup env src with
      | Top -> opaque env dst
      | v -> set env dst v)
  | Instr.Binop { op; dst; lhs; rhs } -> (
      let affine =
        match op, rhs with
        | Instr.Add, Instr.Imm k -> shift (lookup env lhs) k
        | Instr.Sub, Instr.Imm k -> shift (lookup env lhs) (-k)
        | Instr.Add, Instr.Reg r -> (
            match lookup env lhs, lookup env r with
            | Const a, Const b -> Some (Const (a + b))
            | vl, Const k -> shift vl k
            | Const k, vr -> shift vr k
            | (Sym _ | Top), (Sym _ | Top) -> None)
        | Instr.Sub, Instr.Reg r -> (
            match lookup env lhs, lookup env r with
            | Const a, Const b -> Some (Const (a - b))
            | vl, Const k -> shift vl (-k)
            | (Const _ | Sym _ | Top), (Sym _ | Top) -> None)
        | ( ( Instr.Mul | Instr.Div | Instr.Rem | Instr.And | Instr.Or
            | Instr.Xor | Instr.Shl | Instr.Shr ),
            _ ) ->
            None
      in
      match affine with Some v -> set env dst v | None -> opaque env dst)
  | Instr.Load { dst; base; offset; update } ->
      let bv = lookup env base in
      record uid bv;
      let env = opaque env dst in
      if update then
        set env base
          (Option.value ~default:(fresh uid base) (shift bv offset))
      else env
  | Instr.Store { src = _; base; offset; update } ->
      let bv = lookup env base in
      record uid bv;
      if update then
        set env base
          (Option.value ~default:(fresh uid base) (shift bv offset))
      else env
  | Instr.Compare _ | Instr.Fcompare _ | Instr.Fbinop _ | Instr.Call _ ->
      List.fold_left opaque env (Instr.defs i)
  | Instr.Branch_cond _ | Instr.Jump _ | Instr.Halt -> env

type t = { base_values : (int, value) Hashtbl.t }

(* The backward affine slice: the register keys whose values can reach a
   load or store base. It starts from every base register and closes
   over the operands the affine transfer reads when it defines a slice
   register — a [Move]'s source and an [Add]/[Sub]'s operands. Every
   other definition is opaque, so no other register can influence a
   base value, and tracking the slice alone reproduces every base value
   the whole-register analysis computes. *)
let slice cfg =
  let sources = Hashtbl.create 64 in (* dst key -> source keys *)
  let bases = ref [] in
  let note dst srcs =
    List.iter (fun s -> Hashtbl.add sources (Reg.hash dst) (Reg.hash s)) srcs
  in
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          match Instr.kind i with
          | Instr.Move { dst; src } -> note dst [ src ]
          | Instr.Binop { op = Instr.Add | Instr.Sub; dst; lhs; rhs } ->
              note dst
                (lhs :: (match rhs with Instr.Reg r -> [ r ] | Instr.Imm _ -> []))
          | Instr.Load { base; _ } | Instr.Store { base; _ } ->
              bases := Reg.hash base :: !bases
          | Instr.Load_imm _ | Instr.Binop _ | Instr.Compare _
          | Instr.Fcompare _ | Instr.Fbinop _ | Instr.Call _
          | Instr.Branch_cond _ | Instr.Jump _ | Instr.Halt ->
              ())
        (Block.instrs b))
    cfg;
  let rec close acc = function
    | [] -> acc
    | k :: rest when Ints.Int_set.mem k acc -> close acc rest
    | k :: rest ->
        close (Ints.Int_set.add k acc) (Hashtbl.find_all sources k @ rest)
  in
  close Ints.Int_set.empty !bases

let compute cfg =
  let n = Cfg.num_blocks cfg in
  let slice = slice cfg in
  (* Entry environment: every slice register starts at its own entry
     origin, so a merge of "defined in the loop" with "still the entry
     value" joins two different origins to [Top] instead of spuriously
     claiming them equal. *)
  let entry_env =
    Ints.Int_set.fold
      (fun k acc ->
        Ints.Int_map.add k (Sym { origin = { o_uid = -1; o_reg = k }; offset = 0 }) acc)
      slice Ints.Int_map.empty
  in
  (* Block-entry environments, swept in layout order until a sweep
     changes nothing: [None] is bottom (block not yet reached), the
     neutral element of the join. The transfer is not monotone — a
     [Top] operand opens a fresh origin — so an entry can change from
     one value to a different one without passing through [Top]. So
     the sweeps stay in layout order: a worklist in another order is not
     obviously the same fixpoint. *)
  let in_ : env option array = Array.make n None in
  let out : env option array = Array.make n None in
  let preds = Test_support.preds cfg in
  let entry = Cfg.entry cfg in
  let no_record _ _ = () in
  let step () =
    let changed = ref false in
    List.iter
      (fun id ->
        let inn =
          List.fold_left
            (fun acc p ->
              match acc, out.(p) with
              | None, o -> o
              | o, None -> o
              | Some a, Some b -> Some (join_env a b))
            (if id = entry then Some entry_env else None)
            preds.(id)
        in
        match inn with
        | None -> ()
        | Some inn ->
            let stale =
              match in_.(id) with
              | None -> true
              | Some old -> not (equal_env old inn)
            in
            if stale then begin
              in_.(id) <- Some inn;
              let o =
                List.fold_left (transfer ~slice ~record:no_record) inn
                  (Block.instrs (Cfg.block cfg id))
              in
              out.(id) <- Some o;
              changed := true
            end)
      (Cfg.layout cfg);
    !changed
  in
  ignore (Fix.iterate step);
  (* One more pass over each reached block records the base value at
     every access's own program point. *)
  let base_values = Hashtbl.create 64 in
  let record uid v = Hashtbl.replace base_values uid v in
  Array.iteri
    (fun id inn ->
      match inn with
      | None -> ()
      | Some env ->
          ignore
            (List.fold_left (transfer ~slice ~record) env
               (Block.instrs (Cfg.block cfg id))))
    in_;
  { base_values }

let base_value t uid = Option.value ~default:Top (Hashtbl.find_opt t.base_values uid)
