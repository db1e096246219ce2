open Gis_util
open Gis_ir

type av =
  | Num of int
  | Ref of { def : int; reg : int; add : int }
  | Any

let equal_av a b =
  match a, b with
  | Num x, Num y -> x = y
  | Ref x, Ref y -> x.def = y.def && x.reg = y.reg && x.add = y.add
  | Any, Any -> true
  | (Num _ | Ref _ | Any), _ -> false

(* The base value of each access, by access number; [access_of] maps an
   access's uid to its number. *)
type t = { access_of : Ints.Int_table.t; at_access : av array }

(* [bump v k]: the value [v + k] when the affine form survives. *)
let bump v k =
  match v with
  | Num c -> Some (Num (c + k))
  | Ref { def; reg; add } -> Some (Ref { def; reg; add = add + k })
  | Any -> None

(* The backward affine slice of the load/store bases, as register
   hashes: every base, closed over the sources of [Move]s and the
   register operands of [Add]/[Sub] that define a slice register —
   exactly the registers the transfer below reads to produce a slice
   register's value. *)
let slice cfg =
  let feeds = Hashtbl.create 32 in
  let seeds = ref [] in
  let feed (dst : Reg.t) srcs =
    List.iter
      (fun (r : Reg.t) -> Hashtbl.add feeds (Reg.hash dst) (Reg.hash r))
      srcs
  in
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          match Instr.kind i with
          | Instr.Load { base; _ } | Instr.Store { base; _ } ->
              seeds := Reg.hash base :: !seeds
          | Instr.Move { dst; src } -> feed dst [ src ]
          | Instr.Binop { op = Instr.Add | Instr.Sub; dst; lhs; rhs } ->
              feed dst
                (match rhs with
                | Instr.Reg r -> [ lhs; r ]
                | Instr.Imm _ -> [ lhs ])
          | Instr.Binop _ | Instr.Load_imm _ | Instr.Fbinop _ | Instr.Compare _
          | Instr.Fcompare _ | Instr.Call _ | Instr.Branch_cond _ | Instr.Jump _
          | Instr.Halt ->
              ())
        (Block.instrs b))
    cfg;
  let rec close acc = function
    | [] -> acc
    | h :: rest when Ints.Int_set.mem h acc -> close acc rest
    | h :: rest ->
        close (Ints.Int_set.add h acc) (Hashtbl.find_all feeds h @ rest)
  in
  close Ints.Int_set.empty !seeds

let compute cfg =
  (* Slice registers interned to dense indices; environments are then
     flat arrays rather than maps. [Reg.hash] is injective, so it is
     both the intern key and the [Ref.reg] payload. A register outside
     the slice reads as [Any] and its definitions are dropped: no slice
     register's value depends on it. *)
  let slice = slice cfg in
  let idx_of = Ints.Int_table.create (Ints.Int_set.cardinal slice) in
  let hashes = Vec.create () in
  Ints.Int_set.iter
    (fun h ->
      Ints.Int_table.replace idx_of h (Vec.length hashes);
      Vec.push hashes h)
    slice;
  let nr = Vec.length hashes in
  let get env (r : Reg.t) =
    let i = Ints.Int_table.find idx_of (Reg.hash r) in
    if i >= 0 then env.(i) else Any
  in
  let set env (r : Reg.t) v =
    let i = Ints.Int_table.find idx_of (Reg.hash r) in
    if i >= 0 then env.(i) <- v
  in
  (* Transfer of one instruction, mutating [env]. Opaque definitions
     start a fresh instance, never [Any] — precision the scheduler side
     also has, and parity is mandatory. [note] observes the base value
     of each access before its [update] post-increment (the effective
     address uses the old base; on a load whose destination is its own
     base, the update still wins, hence the [set] order). *)
  let transfer ?note env i =
    let uid = Instr.uid i in
    let inst (r : Reg.t) = Ref { def = uid; reg = Reg.hash r; add = 0 } in
    let opaque r =
      if Ints.Int_table.mem idx_of (Reg.hash r) then set env r (inst r)
    in
    let seen u v = match note with Some f -> f u v | None -> () in
    match Instr.kind i with
    | Instr.Load_imm { dst; value } -> set env dst (Num value)
    | Instr.Move { dst; src } -> (
        match get env src with Any -> opaque dst | v -> set env dst v)
    | Instr.Binop { op; dst; lhs; rhs } -> (
        let affine =
          match op, rhs with
          | Instr.Add, Instr.Imm k -> bump (get env lhs) k
          | Instr.Sub, Instr.Imm k -> bump (get env lhs) (-k)
          | Instr.Add, Instr.Reg r -> (
              match get env lhs, get env r with
              | Num a, Num b -> Some (Num (a + b))
              | vl, Num k -> bump vl k
              | Num k, vr -> bump vr k
              | (Ref _ | Any), (Ref _ | Any) -> None)
          | Instr.Sub, Instr.Reg r -> (
              match get env lhs, get env r with
              | Num a, Num b -> Some (Num (a - b))
              | vl, Num k -> bump vl (-k)
              | (Num _ | Ref _ | Any), (Ref _ | Any) -> None)
          | ( ( Instr.Mul | Instr.Div | Instr.Rem | Instr.And | Instr.Or
              | Instr.Xor | Instr.Shl | Instr.Shr ),
              _ ) ->
              None
        in
        match affine with Some v -> set env dst v | None -> opaque dst)
    | Instr.Load { dst; base; offset; update } ->
        let bv = get env base in
        seen uid bv;
        opaque dst;
        if update then
          set env base (Option.value ~default:(inst base) (bump bv offset))
    | Instr.Store { src = _; base; offset; update } ->
        let bv = get env base in
        seen uid bv;
        if update then
          set env base (Option.value ~default:(inst base) (bump bv offset))
    | Instr.Compare _ | Instr.Fcompare _ | Instr.Fbinop _ | Instr.Call _ ->
        List.iter opaque (Instr.defs i)
    | Instr.Branch_cond _ | Instr.Jump _ | Instr.Halt -> ()
  in
  let run_block ?note env id =
    Block.iter (transfer ?note env) (Cfg.block cfg id);
    env
  in
  (* Worklist fixpoint on block-entry environments. [None] is bottom
     (block never reached); the entry block's environment seeds every
     register with its own entry instance, so a loop-carried
     redefinition joining the entry value goes to [Any] instead of
     being mistaken for it. *)
  let n = Cfg.num_blocks cfg in
  let in_ : av array option array = Array.make n None in
  let out : av array option array = Array.make n None in
  let preds = Edges.preds cfg in
  let entry = Cfg.entry cfg in
  let entry_env () =
    Array.init nr (fun i -> Ref { def = -1; reg = Vec.get hashes i; add = 0 })
  in
  let join_into acc env =
    for i = 0 to nr - 1 do
      if not (equal_av acc.(i) env.(i)) then acc.(i) <- Any
    done
  in
  let wl = Fix.Worklist.create () in
  Fix.Worklist.add wl entry;
  let guard = ref 0 in
  let rec drain () =
    match Fix.Worklist.pop wl with
    | None -> ()
    | Some id ->
        incr guard;
        if !guard > 64 * (n + 1) * (nr + 2) then
          failwith "Addrcheck.compute: did not converge";
        let inn =
          List.fold_left
            (fun acc p ->
              match acc, out.(p) with
              | None, None -> None
              | None, Some o -> Some (Array.copy o)
              | Some _, None -> acc
              | Some a, Some o ->
                  join_into a o;
                  acc)
            (if id = entry then Some (entry_env ()) else None)
            preds.(id)
        in
        (match inn with
        | None -> ()
        | Some inn ->
            let stale =
              match in_.(id) with
              | None -> true
              | Some old -> not (Array.for_all2 equal_av old inn)
            in
            if stale then begin
              in_.(id) <- Some inn;
              out.(id) <- Some (run_block (Array.copy inn) id);
              List.iter (Fix.Worklist.add wl) (Edges.succs cfg id)
            end);
        drain ()
  in
  drain ();
  (* Recording pass: replay each reached block once, noting every
     access's base value at its own program point. *)
  let accesses = Vec.create () in
  let note uid v = Vec.push accesses (uid, v) in
  Array.iteri
    (fun id inn ->
      match inn with
      | None -> ()
      | Some env -> ignore (run_block ~note (Array.copy env) id))
    in_;
  let access_of = Ints.Int_table.create (Vec.length accesses) in
  Vec.iteri (fun k (uid, _) -> Ints.Int_table.replace access_of uid k) accesses;
  { access_of; at_access = Array.map snd (Vec.to_array accesses) }

let base_value t uid =
  let k = Ints.Int_table.find t.access_of uid in
  if k < 0 then Any else t.at_access.(k)

let delta t ~a ~b =
  match base_value t a, base_value t b with
  | Num x, Num y -> Some (y - x)
  | Ref x, Ref y when x.def = y.def && x.reg = y.reg -> Some (y.add - x.add)
  | (Num _ | Ref _ | Any), (Num _ | Ref _ | Any) -> None
