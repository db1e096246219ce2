open Gis_util
open Gis_ir

(* [use] and [def] are each block's upward-exposed uses and its
   definitions; [live_in] and [live_out] are the fixpoint over them.
   [preds] lists each layout block's layout predecessors, the only edges
   the fixpoint propagates along. *)
type t = {
  use : Reg.Set.t array;
  def : Reg.Set.t array;
  live_in : Reg.Set.t array;
  live_out : Reg.Set.t array;
  in_layout : bool array;
  preds : int list array;
}

let block_use_def b =
  let use = ref Reg.Set.empty and def = ref Reg.Set.empty in
  let visit i =
    List.iter
      (fun r -> if not (Reg.Set.mem r !def) then use := Reg.Set.add r !use)
      (Instr.uses i);
    List.iter (fun r -> def := Reg.Set.add r !def) (Instr.defs i)
  in
  Vec.iter visit b.Block.body;
  visit b.Block.term;
  (!use, !def)

let compute cfg =
  let n = Cfg.num_blocks cfg in
  let use = Array.make n Reg.Set.empty and def = Array.make n Reg.Set.empty in
  for id = 0 to n - 1 do
    let u, d = block_use_def (Cfg.block cfg id) in
    use.(id) <- u;
    def.(id) <- d
  done;
  let live_in = Array.make n Reg.Set.empty in
  let live_out = Array.make n Reg.Set.empty in
  let step () =
    let changed = ref false in
    (* Reverse layout order converges quickly on mostly-forward graphs. *)
    List.iter
      (fun id ->
        let out =
          List.fold_left
            (fun acc (s, _) -> Reg.Set.union acc live_in.(s))
            Reg.Set.empty (Cfg.successors cfg id)
        in
        let inn = Reg.Set.union use.(id) (Reg.Set.diff out def.(id)) in
        if
          (not (Reg.Set.equal out live_out.(id)))
          || not (Reg.Set.equal inn live_in.(id))
        then begin
          live_out.(id) <- out;
          live_in.(id) <- inn;
          changed := true
        end)
      (List.rev (Cfg.layout cfg));
    !changed
  in
  ignore (Fix.iterate step);
  let in_layout = Array.make n false in
  List.iter (fun id -> in_layout.(id) <- true) (Cfg.layout cfg);
  let preds =
    Array.mapi
      (fun id ps ->
        if in_layout.(id) then List.filter (fun p -> in_layout.(p)) ps else [])
      (Cfg.predecessors cfg)
  in
  { use; def; live_in; live_out; in_layout; preds }

(* Liveness is solved separately for each register, so re-solving one
   register from scratch — cleared everywhere, then propagated backward
   from its upward-exposed uses, stopping at definitions — reproduces
   exactly the bits a fresh [compute] would give it. *)
let resolve t r =
  let n = Array.length t.live_in in
  for id = 0 to n - 1 do
    t.live_in.(id) <- Reg.Set.remove r t.live_in.(id);
    t.live_out.(id) <- Reg.Set.remove r t.live_out.(id)
  done;
  let work = ref [] in
  for id = 0 to n - 1 do
    if t.in_layout.(id) && Reg.Set.mem r t.use.(id) then begin
      t.live_in.(id) <- Reg.Set.add r t.live_in.(id);
      work := id :: !work
    end
  done;
  let rec drain () =
    match !work with
    | [] -> ()
    | b :: rest ->
        work := rest;
        List.iter
          (fun p ->
            if not (Reg.Set.mem r t.live_out.(p)) then begin
              t.live_out.(p) <- Reg.Set.add r t.live_out.(p);
              if
                (not (Reg.Set.mem r t.def.(p)))
                && not (Reg.Set.mem r t.live_in.(p))
              then begin
                t.live_in.(p) <- Reg.Set.add r t.live_in.(p);
                work := p :: !work
              end
            end)
          t.preds.(b);
        drain ()
  in
  drain ()

let update t cfg ~blocks =
  if Cfg.num_blocks cfg <> Array.length t.live_in then
    invalid_arg "Liveness.update: the CFG's block count changed";
  let sym_diff a b = Reg.Set.union (Reg.Set.diff a b) (Reg.Set.diff b a) in
  let changed =
    List.fold_left
      (fun acc id ->
        let u, d = block_use_def (Cfg.block cfg id) in
        let acc =
          Reg.Set.union acc
            (Reg.Set.union (sym_diff u t.use.(id)) (sym_diff d t.def.(id)))
        in
        t.use.(id) <- u;
        t.def.(id) <- d;
        acc)
      Reg.Set.empty blocks
  in
  Reg.Set.iter (resolve t) changed

let live_in t id = t.live_in.(id)
let live_out t id = t.live_out.(id)

let live_before_terminator t cfg id =
  let b = Cfg.block cfg id in
  List.fold_left
    (fun acc r -> Reg.Set.add r acc)
    t.live_out.(id)
    (Instr.uses b.Block.term)

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  Array.iteri
    (fun id s ->
      Fmt.pf ppf "block %d: out={%a}@," id
        Fmt.(list ~sep:comma Reg.pp)
        (Reg.Set.elements s))
    t.live_out;
  Fmt.pf ppf "@]"
