(* The balanced-tree whole-procedure liveness analysis that
   [Gis_analysis.Liveness] replaced with dense bitset rows and
   live-range-bounded updates, kept verbatim as an independent
   reference: the scheduler's speculative-safety rule and pressure term
   read [Liveness], so only this copy (or the checker's own
   [Gis_check.Livecheck]) can catch a defect in [Liveness.update]. *)

open Gis_util
open Gis_ir

type t = {
  live_in : Reg.Set.t array;
  live_out : Reg.Set.t array;
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
            (fun acc s -> Reg.Set.union acc live_in.(s))
            Reg.Set.empty (Test_support.succs cfg id)
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
  { live_in; live_out }

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
