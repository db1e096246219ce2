open Gis_util
open Gis_ir
open Gis_analysis
open Gis_ddg
open Gis_obs

(* Rules, in reporting order:
     cfg.malformed-target   (E) successor label missing
     cfg.unreachable-block  (W) layout block the entry cannot reach
     cfg.irreducible        (W) back edge whose target does not dominate
     lint.maybe-uninit      (W) a use reached by External *and* a real def
     lint.dead-def          (W) a definition no instruction ever reads
     lint.dead-store        (W) a store provably overwritten, in its own
                                block, by a covering store before any
                                load or call could read it
     spill.not-mem          (E) Spill_inserted provenance on something other
                                than a load, store, frame setup or
                                cr<->gpr transfer move
     spill.orphan-reload    (W) spill load from a slot nothing spilled to *)

(* [cfg.malformed-target] for each branch to a missing label, in layout
   order; [true] when there is none. Every other CFG rule reads edges,
   which such a branch leaves undefined. *)
let well_formed_targets ~stage cfg acc =
  let clean = ref true in
  List.iter
    (fun id ->
      let b = Cfg.block cfg id in
      List.iter
        (fun target ->
          if Cfg.find_label cfg target = None then begin
            clean := false;
            acc :=
              Diagnostic.error ~rule:"cfg.malformed-target" ~stage
                ~uid:(Instr.uid b.Block.term) ~blocks:[ b.Block.label ]
                (Fmt.str "branch target %a does not exist" Label.pp target)
              :: !acc
          end)
        (try Block.successor_labels b with Invalid_argument _ -> []))
    (Cfg.layout cfg);
  !clean

let unreachable_blocks ~stage cfg acc =
  let reach = Cfg.reachable cfg in
  List.iter
    (fun id ->
      if not (Ints.Int_set.mem id reach) then
        acc :=
          Diagnostic.warning ~rule:"cfg.unreachable-block" ~stage
            ~blocks:[ (Cfg.block cfg id).Block.label ]
            "block is unreachable from the entry"
          :: !acc)
    (Cfg.layout cfg)

let irreducibility ~stage cfg acc =
  if Cfg.num_blocks cfg = 0 then ()
  else begin
    let flow = Flow.of_cfg ~entry:(Cfg.entry cfg) cfg in
    let local = Flow.local_of_block flow in
    let dom = Dominance.compute flow in
    List.iter
      (fun (u, v) ->
        match Ints.Int_map.find_opt u local, Ints.Int_map.find_opt v local with
        | Some lu, Some lv ->
            if not (Dominance.dominates dom lv lu) then
              acc :=
                Diagnostic.warning ~rule:"cfg.irreducible" ~stage
                  ~blocks:
                    [
                      (Cfg.block cfg u).Block.label;
                      (Cfg.block cfg v).Block.label;
                    ]
                  "back edge into a block that does not dominate its source \
                   (non-natural loop)"
                :: !acc
        | None, _ | _, None -> ())
      (Deps.back_edges cfg)
  end

let dataflow ~stage cfg acc =
  let reaching = Reaching.compute cfg in
  let reach = Cfg.reachable cfg in
  Cfg.iter_blocks
    (fun b ->
      if Ints.Int_set.mem b.Block.id reach then
        List.iter
          (fun i ->
            let uid = Instr.uid i in
            List.iter
              (fun r ->
                match Reaching.defs_of_use reaching ~uid ~reg:r with
                | exception Invalid_argument _ -> ()
                | sites ->
                    let external_ =
                      List.exists
                        (fun s -> Reaching.equal_site s Reaching.External)
                        sites
                    in
                    let has_def =
                      List.exists
                        (function Reaching.Def _ -> true | _ -> false)
                        sites
                    in
                    if external_ && has_def then
                      acc :=
                        Diagnostic.warning ~rule:"lint.maybe-uninit" ~stage
                          ~uid ~blocks:[ b.Block.label ]
                          (Fmt.str
                             "%a may be read before it is written on some path"
                             Reg.pp r)
                        :: !acc)
              (List.sort_uniq Reg.compare (Instr.uses i));
            if not (Instr.is_call i) then
              List.iter
                (fun r ->
                  match Reaching.uses_of_def reaching ~uid ~reg:r with
                  | [] ->
                      acc :=
                        Diagnostic.warning ~rule:"lint.dead-def" ~stage ~uid
                          ~blocks:[ b.Block.label ]
                          (Fmt.str "definition of %a is never read" Reg.pp r)
                        :: !acc
                  | _ :: _ -> ())
                (Instr.defs i))
          (Block.instrs b))
    cfg

(* A store is dead when a later store in the same block provably
   rewrites every byte of it before anything could read it. Address
   proofs come from the checker-side affine analysis ({!Addrcheck}):
   the killing store must use the same base *register* (the simulator
   routes spill-segment accesses by base-register identity, so equal
   numeric addresses through different bases can still name different
   cells), the same memory family, and a provable base-value delta
   under which its [offset, offset+width) range covers the victim's.
   Any call, or any same-family load not provably disjoint from a
   pending store, counts as a read and absolves it. *)
let dead_stores ~stage cfg acc =
  let addr = Addrcheck.compute cfg in
  let reach = Cfg.reachable cfg in
  Cfg.iter_blocks
    (fun b ->
      if Ints.Int_set.mem b.Block.id reach then begin
        (* pending: stores not yet read or overwritten, newest first *)
        let pending = ref [] in
        let may_read ~x_uid (x : Alias.ref_info) ~y_uid (y : Alias.ref_info)
            =
          x.Alias.family = y.Alias.family
          &&
          match Addrcheck.delta addr ~a:x_uid ~b:y_uid with
          | Some d ->
              not
                (Alias.ranges_disjoint x
                   { y with Alias.offset = y.Alias.offset + d })
          | None -> true
        in
        let covers ~x_uid (x : Alias.ref_info) ~y_uid (y : Alias.ref_info) =
          x.Alias.family = y.Alias.family
          && Reg.equal x.Alias.base y.Alias.base
          &&
          match Addrcheck.delta addr ~a:x_uid ~b:y_uid with
          | Some d ->
              y.Alias.offset + d <= x.Alias.offset
              && x.Alias.offset + x.Alias.width
                 <= y.Alias.offset + d + y.Alias.width
          | None -> false
        in
        List.iter
          (fun i ->
            let uid = Instr.uid i in
            match Alias.access_of_instr ~version_of:(fun _ -> 0) i with
            | None -> ()
            | Some Alias.Call_ref -> pending := []
            | Some (Alias.Load_ref y) ->
                pending :=
                  List.filter
                    (fun (x_uid, x) -> not (may_read ~x_uid x ~y_uid:uid y))
                    !pending
            | Some (Alias.Store_ref y) ->
                let dead, live =
                  List.partition
                    (fun (x_uid, x) -> covers ~x_uid x ~y_uid:uid y)
                    !pending
                in
                List.iter
                  (fun (x_uid, x) ->
                    acc :=
                      Diagnostic.warning ~rule:"lint.dead-store" ~stage
                        ~uid:x_uid ~blocks:[ b.Block.label ]
                        (Fmt.str
                           "store to %a%+d (%d bytes) is overwritten by \
                            instruction %d before any load or call could \
                            read it"
                           Reg.pp x.Alias.base x.Alias.offset x.Alias.width
                           uid)
                      :: !acc)
                  dead;
                pending := (uid, y) :: live)
          (Block.instrs b)
      end)
    cfg

let spill_discipline ~stage ~prov ~staged_slots cfg acc =
  let spill_stores = Hashtbl.create 8 in
  let spill_instrs = ref [] in
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          match Provenance.find prov (Instr.uid i) with
          | Some { Provenance.kind = Provenance.Spill_inserted; _ } ->
              spill_instrs := (b.Block.label, i) :: !spill_instrs;
              (match Instr.kind i with
              | Instr.Store { offset; _ } ->
                  Hashtbl.replace spill_stores offset ()
              | _ -> ())
          | Some _ | None -> ())
        (Block.instrs b))
    cfg;
  List.iter
    (fun (label, i) ->
      match Instr.kind i with
      | Instr.Store _ -> ()
      (* The allocator's frame-base setup ([li base,0]) and the
         cr<->gpr transfer halves of a condition-register spill
         (mfcr/mtcr modeling) are spill code that is neither a load
         nor a store — the two exceptions. *)
      | Instr.Load_imm _ -> ()
      | Instr.Move { dst; src } when dst.Reg.cls <> src.Reg.cls -> ()
      | Instr.Load { offset; _ } ->
          if
            (not (Hashtbl.mem spill_stores offset))
            && not (List.mem offset staged_slots)
          then
            acc :=
              Diagnostic.warning ~rule:"spill.orphan-reload" ~stage
                ~uid:(Instr.uid i) ~blocks:[ label ]
                (Fmt.str
                   "spill reload from slot offset %d with no spill store to \
                    that slot"
                   offset)
              :: !acc
      | _ ->
          acc :=
            Diagnostic.error ~rule:"spill.not-mem" ~stage ~uid:(Instr.uid i)
              ~blocks:[ label ]
              "Spill_inserted provenance on an instruction that is not a \
               load, store, frame setup or cr transfer move"
            :: !acc)
    !spill_instrs

let run ?prov ?(staged_slots = []) ?(stage = "lint") cfg =
  let acc = ref [] in
  if well_formed_targets ~stage cfg acc then begin
    unreachable_blocks ~stage cfg acc;
    irreducibility ~stage cfg acc;
    dataflow ~stage cfg acc;
    dead_stores ~stage cfg acc
  end;
  (match prov with
  | Some p -> spill_discipline ~stage ~prov:p ~staged_slots cfg acc
  | None -> ());
  List.rev !acc
