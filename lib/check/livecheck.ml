open Gis_util
open Gis_ir

(* The balanced-tree liveness the scheduler's [Gis_analysis.Liveness]
   was rewritten from, kept here so that the checker shares no liveness
   code with the scheduler. *)
type t = { live_in : Reg.Set.t array }

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
            (fun acc s -> Reg.Set.union acc live_in.(s))
            Reg.Set.empty (Edges.succs cfg id)
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
  { live_in }

let live_in t id = t.live_in.(id)
