open Gis_util
open Gis_ir
open Gis_analysis
open Gis_obs

type stage_kind = Copying | Global | Local | Regalloc

let stage_kind = function
  | "unroll" | "rotate" -> Copying
  | "local" -> Local
  | "regalloc" -> Regalloc
  | "global-pass1" | "global-pass2" | _ -> Global

(* Kind equality ignoring branch/jump targets: unrolling and rotation
   retarget the back edges of surviving instructions but must change
   nothing else about them. *)
let equal_kind_modulo_targets k1 k2 =
  match k1, k2 with
  | ( Instr.Branch_cond { cr = cr1; cond = c1; expect = e1; _ },
      Instr.Branch_cond { cr = cr2; cond = c2; expect = e2; _ } ) ->
      Reg.equal cr1 cr2 && c1 = c2 && e1 = e2
  | Instr.Jump _, Instr.Jump _ -> true
  | _, _ -> Instr.equal_kind k1 k2

(* A kind with its branch and jump targets blanked: two kinds are
   [equal_kind_modulo_targets] exactly when their blanked kinds are
   equal. *)
let without_targets = function
  | Instr.Branch_cond b -> Instr.Branch_cond { b with taken = ""; fallthru = "" }
  | Instr.Jump _ -> Instr.Jump { target = "" }
  | k -> k

module Kind_set = Hashtbl.Make (struct
  type t = Instr.kind

  let equal = Instr.equal_kind
  let hash = Hashtbl.hash
end)

(* Kind equality ignoring register names: scheduling may rename a
   destination (and the uses it reaches) and allocation rewrites every
   register, but opcodes, immediates, offsets and control targets must
   survive any stage untouched. *)
let same_shape k1 k2 =
  let operand_shape (a : Instr.operand) (b : Instr.operand) =
    match a, b with
    | Instr.Imm x, Instr.Imm y -> x = y
    | Instr.Reg _, Instr.Reg _ -> true
    | Instr.Imm _, Instr.Reg _ | Instr.Reg _, Instr.Imm _ -> false
  in
  match k1, k2 with
  | ( Instr.Load { offset = o1; update = u1; _ },
      Instr.Load { offset = o2; update = u2; _ } )
  | ( Instr.Store { offset = o1; update = u1; _ },
      Instr.Store { offset = o2; update = u2; _ } ) ->
      o1 = o2 && u1 = u2
  | Instr.Load_imm { value = v1; _ }, Instr.Load_imm { value = v2; _ } ->
      v1 = v2
  | Instr.Move _, Instr.Move _ -> true
  | ( Instr.Binop { op = op1; rhs = r1; _ },
      Instr.Binop { op = op2; rhs = r2; _ } ) ->
      op1 = op2 && operand_shape r1 r2
  | Instr.Fbinop { op = op1; _ }, Instr.Fbinop { op = op2; _ } -> op1 = op2
  | Instr.Compare { rhs = r1; _ }, Instr.Compare { rhs = r2; _ } ->
      operand_shape r1 r2
  | Instr.Fcompare _, Instr.Fcompare _ -> true
  | ( Instr.Branch_cond { cond = c1; expect = e1; taken = t1; fallthru = f1; _ },
      Instr.Branch_cond { cond = c2; expect = e2; taken = t2; fallthru = f2; _ }
    ) ->
      c1 = c2 && e1 = e2 && Label.equal t1 t2 && Label.equal f1 f2
  | Instr.Jump { target = t1 }, Instr.Jump { target = t2 } ->
      Label.equal t1 t2
  | ( Instr.Call { name = n1; args = a1; ret = r1 },
      Instr.Call { name = n2; args = a2; ret = r2 } ) ->
      String.equal n1 n2
      && List.length a1 = List.length a2
      && Option.is_some r1 = Option.is_some r2
  | Instr.Halt, Instr.Halt -> true
  | _, _ -> false

let site_key = function Reaching.External -> -1 | Reaching.Def u -> u

let use_sites reaching ~uid instr =
  List.map
    (fun r ->
      List.sort_uniq compare
        (List.map site_key (Reaching.defs_of_use reaching ~uid ~reg:r)))
    (Instr.uses instr)

(* ---- per-region control analyses for motion classification ---- *)

type region_view = {
  rv_view : Regions.view;
  rv_dom : Dominance.t;
  rv_post : Dominance.Post.post;
  rv_cdg : Cdg.t;
  rv_reach : Bitset.t array;
}

type classifier = {
  cl_pre : Cfg.t;
  cl_region_of : (int, Regions.region) Hashtbl.t;
  cl_views : (int, region_view option) Hashtbl.t;
  cl_regions : Regions.t;
}

let make_classifier pre =
  let regions = Regions.compute pre in
  let region_of = Hashtbl.create 16 in
  List.iter
    (fun (r : Regions.region) ->
      Ints.Int_set.iter
        (fun b -> Hashtbl.replace region_of b r)
        r.Regions.own_blocks)
    (Regions.regions regions);
  {
    cl_pre = pre;
    cl_region_of = region_of;
    cl_views = Hashtbl.create 8;
    cl_regions = regions;
  }

let view_of cl (r : Regions.region) =
  match Hashtbl.find_opt cl.cl_views r.Regions.id with
  | Some v -> v
  | None ->
      let v =
        match Regions.view cl.cl_pre cl.cl_regions r with
        | exception Invalid_argument _ -> None
        | view ->
            let dom = Dominance.compute view.Regions.flow in
            Some
              {
                rv_view = view;
                rv_dom = dom;
                rv_post = Dominance.Post.compute view.Regions.flow;
                rv_cdg =
                  Cdg.compute ~edge_label:view.Regions.edge_label
                    view.Regions.flow;
                rv_reach = Flow.reachable_rows view.Regions.flow;
              }
      in
      Hashtbl.replace cl.cl_views r.Regions.id v;
      v

(* Equivalent blocks of the target node, exactly as the scheduler's
   [equiv_blocks] computes U(A) (Definition 3 on the region view). *)
let equivalents rv a =
  List.filter
    (fun e ->
      e <> a
      && (match rv.rv_view.Regions.nodes.(e) with
         | Regions.Block _ -> true
         | Regions.Inner_loop _ -> false)
      && Dominance.equivalent rv.rv_dom rv.rv_post a e)
    (List.init rv.rv_view.Regions.flow.Flow.num_nodes Fun.id)

let within_degree rv ~max_degree ~target ~source =
  List.exists
    (fun s ->
      match Cdg.speculation_degree rv.rv_cdg ~src:s ~dst:source with
      | Some d -> d >= 1 && d <= max_degree
      | None -> false)
    (target :: equivalents rv target)

(* ---- the stage checker ---- *)

type counters = { mutable deps_checked : int; mutable motions : int }

(* [ppre], when given, is [pre] already indexed; the indexed [post] is
   returned with the findings, so a caller can hand it back as the next
   stage's [ppre]. *)
let run_stage ?prov ?(max_speculation_degree = 1) ?ppre ~stage ~pre ~post () =
  let counters = { deps_checked = 0; motions = 0 } in
  match Validate.check post with
  | Error es ->
      ( List.map
          (fun m -> Diagnostic.error ~rule:"ir.invalid" ~stage m)
          es,
        counters,
        None )
  | Ok () ->
      let skind = stage_kind stage in
      let acc = ref [] in
      let err ~rule ?uid ?blocks msg =
        acc := Diagnostic.error ~rule ~stage ?uid ?blocks msg :: !acc
      in
      let warn ~rule ?uid ?blocks msg =
        acc := Diagnostic.warning ~rule ~stage ?uid ?blocks msg :: !acc
      in
      let ppre = match ppre with Some p -> p | None -> Deps.of_cfg pre in
      let ppost = Deps.of_cfg post in
      (* The uids of [p], ascending, that [q] has or lacks. *)
      let uids_of p ~in_:q has =
        Array.fold_right
          (fun u acc -> if Deps.mem q u = has then u :: acc else acc)
          (Deps.uids p) []
      in
      let created = uids_of ppost ~in_:ppre false in
      let is_created u = Deps.mem ppost u && not (Deps.mem ppre u) in
      let label_of_pre uid = Deps.block_label_of_uid ppre uid in
      let label_of_post uid = Deps.block_label_of_uid ppost uid in
      (* Entry stability: no stage may change which block the procedure
         starts in. *)
      let entry_label c = (Cfg.block c (Cfg.entry c)).Block.label in
      if not (Label.equal (entry_label pre) (entry_label post)) then
        err ~rule:"control.entry-changed"
          ~blocks:[ entry_label pre; entry_label post ]
          "entry block changed across the stage";
      (* Conservation: nothing vanishes; everything that appears is an
         accounted-for copy, duplicate, or spill. *)
      List.iter
        (fun uid ->
          err ~rule:"conservation.removed" ~uid
            ?blocks:(Option.map (fun l -> [ l ]) (label_of_pre uid))
            "instruction present before the stage is gone after it")
        (uids_of ppre ~in_:ppost false);
      (* The input's kinds, built once for the stage: blanked targets
         for a copying stage, whose copies are retargeted. *)
      let key = if skind = Copying then without_targets else Fun.id in
      let pre_kinds =
        lazy
          (let t = Kind_set.create 64 in
           List.iter
             (fun i -> Kind_set.replace t (key (Instr.kind i)) ())
             (Cfg.all_instrs pre);
           t)
      in
      List.iter
        (fun uid ->
          let blocks = Option.map (fun l -> [ l ]) (label_of_post uid) in
          let record = Option.bind prov (fun p -> Provenance.find p uid) in
          let faithful_copy () =
            match Deps.instr ppost uid with
            | None -> ()
            | Some i ->
                if
                  not
                    (Kind_set.mem (Lazy.force pre_kinds) (key (Instr.kind i)))
                then
                  err ~rule:"transform.unfaithful-copy" ~uid ?blocks
                    "created instruction matches no instruction of the input \
                     program"
          in
          match skind with
          | Copying -> (
              faithful_copy ();
              match prov, record with
              | None, _ -> ()
              | Some _, Some r when r.Provenance.copy_index >= 1 -> ()
              | Some _, Some _ ->
                  warn ~rule:"provenance.kind-mismatch" ~uid ?blocks
                    "created instruction is not recorded as a copy"
              | Some _, None ->
                  err ~rule:"provenance.missing" ~uid ?blocks
                    "created instruction has no provenance record")
          | Global -> (
              faithful_copy ();
              match prov, record with
              | None, _ -> ()
              | Some _, Some { Provenance.kind = Provenance.Duplicated; _ } ->
                  ()
              | Some _, Some _ ->
                  err ~rule:"provenance.kind-mismatch" ~uid ?blocks
                    "instruction created by a global pass is not recorded as \
                     a duplicate"
              | Some _, None ->
                  err ~rule:"provenance.missing" ~uid ?blocks
                    "created instruction has no provenance record")
          | Local ->
              err ~rule:"conservation.created" ~uid ?blocks
                "local scheduling may not create instructions"
          | Regalloc -> (
              (match Deps.instr ppost uid with
              (* Loads and stores are spill code; a [Load_imm] is the
                 allocator's frame-base setup; a cross-class move is the
                 mfcr/mtcr transfer of a condition-register spill. *)
              | Some i
                when Instr.is_load i || Instr.is_store i
                     || (match Instr.kind i with
                        | Instr.Load_imm _ -> true
                        | Instr.Move { dst; src } ->
                            dst.Reg.cls <> src.Reg.cls
                        | _ -> false) ->
                  ()
              | Some _ ->
                  err ~rule:"conservation.created" ~uid ?blocks
                    "allocation may only insert spill loads, stores and \
                     cr transfer moves"
              | None -> ());
              match prov, record with
              | None, _ -> ()
              | ( Some _,
                  Some { Provenance.kind = Provenance.Spill_inserted; _ } ) ->
                  ()
              | Some _, Some _ ->
                  warn ~rule:"provenance.kind-mismatch" ~uid ?blocks
                    "created instruction is not recorded as spill code"
              | Some _, None ->
                  err ~rule:"provenance.missing" ~uid ?blocks
                    "created instruction has no provenance record"))
        created;
      let common = uids_of ppre ~in_:ppost true in
      (* Per-instruction payload stability. *)
      List.iter
        (fun uid ->
          match Deps.instr ppre uid, Deps.instr ppost uid with
          | Some i1, Some i2 ->
              let k1 = Instr.kind i1 and k2 = Instr.kind i2 in
              let ok =
                match skind with
                | Copying -> equal_kind_modulo_targets k1 k2
                | Local -> Instr.equal_kind k1 k2
                | Global | Regalloc -> same_shape k1 k2
              in
              if not ok then
                err ~rule:"transform.instr-changed" ~uid
                  ?blocks:(Option.map (fun l -> [ l ]) (label_of_post uid))
                  (Fmt.str "instruction payload changed: %a became %a" Instr.pp
                     i1 Instr.pp i2)
          | None, _ | _, None -> ())
        common;
      (* Control structure: interblock motion, local scheduling and
         allocation never change the block graph. *)
      (match skind with
      | Copying -> ()
      | Global | Local | Regalloc ->
          let labels c =
            List.sort Label.compare
              (List.map
                 (fun id -> (Cfg.block c id).Block.label)
                 (Cfg.layout c))
          in
          if not (List.equal Label.equal (labels pre) (labels post)) then
            err ~rule:"control.structure-changed"
              "the stage changed the set of basic blocks"
          else
            Cfg.iter_blocks
              (fun b ->
                match Cfg.find_label post b.Block.label with
                | None -> ()
                | Some pid ->
                    let b' = Cfg.block post pid in
                    if Instr.uid b.Block.term <> Instr.uid b'.Block.term then
                      err ~rule:"control.structure-changed"
                        ~blocks:[ b.Block.label ]
                        "block terminator replaced across the stage"
                    else if
                      not
                        (List.equal Label.equal
                           (Block.successor_labels b)
                           (Block.successor_labels b'))
                    then
                      err ~rule:"control.structure-changed"
                        ~blocks:[ b.Block.label ]
                        "block successor edges changed across the stage")
              pre);
      (* Dependence preservation: every reconstructed dependence of the
         input program must still execute in order — unless renaming
         legitimately dissolved it, re-validated on the transformed
         registers. *)
      (match skind with
      | Copying -> ()
      | Global | Local | Regalloc ->
          let dissolve = skind <> Regalloc in
          let checked, violated = Deps.check ppre ~post:ppost ~dissolve in
          counters.deps_checked <- counters.deps_checked + checked;
          (* Rare, so only then is the input's dependence list built, to
             report the violations in {!Deps.reconstruct}'s order. *)
          if violated then
            List.iter
              (fun (d : Deps.dep) ->
                if Deps.verdict ppost ~dissolve d = Deps.Violated then
                  err ~rule:"dependence.violated" ~uid:d.Deps.d_dst
                    ?blocks:
                      (match
                         ( label_of_post d.Deps.d_src,
                           label_of_post d.Deps.d_dst )
                       with
                      | Some a, Some b -> Some [ a; b ]
                      | _ -> None)
                    (Fmt.str
                       "%a dependence of uid %d on uid %d is no longer ordered"
                       Deps.pp_kind d.Deps.d_kind d.Deps.d_dst d.Deps.d_src))
              (Deps.reconstruct ppre));
      (* Use-def chain preservation: a use must read from exactly the
         definition sites it read from before the stage (invariant under
         renaming, which rewrites both sides; duplication may only add
         sites that are this stage's own copies). *)
      (match skind with
      | Copying | Regalloc -> ()
      | Global | Local ->
          let rpre = Deps.reaching ppre and rpost = Deps.reaching ppost in
          List.iter
            (fun uid ->
              match Deps.instr ppre uid, Deps.instr ppost uid with
              | Some i1, Some i2
                when List.length (Instr.uses i1) = List.length (Instr.uses i2)
                ->
                  let s1 = use_sites rpre ~uid i1
                  and s2 = use_sites rpost ~uid i2 in
                  List.iteri
                    (fun k pre_sites ->
                      let post_sites = List.nth s2 k in
                      let equal = pre_sites = post_sites in
                      let dup_ok =
                        (not equal) && skind = Global
                        && List.for_all
                             (fun s -> List.mem s post_sites)
                             pre_sites
                        && List.for_all
                             (fun s ->
                               List.mem s pre_sites || is_created s)
                             post_sites
                      in
                      if not (equal || dup_ok) then
                        err ~rule:"dependence.use-def-changed" ~uid
                          ?blocks:
                            (Option.map (fun l -> [ l ]) (label_of_post uid))
                          (Fmt.str
                             "use #%d of uid %d reads from different \
                              definition sites after the stage"
                             k uid))
                    s1
              | _, _ -> ())
            common);
      (* Motion classification against the paper's taxonomy. *)
      let moved =
        List.filter_map
          (fun uid ->
            match label_of_pre uid, label_of_post uid with
            | Some l1, Some l2 when not (Label.equal l1 l2) ->
                Some (uid, l1, l2)
            | _ -> None)
          common
      in
      (match skind with
      | Copying -> ()
      | Local ->
          List.iter
            (fun (uid, l1, l2) ->
              err ~rule:"motion.local-pass" ~uid ~blocks:[ l1; l2 ]
                "local scheduling moved an instruction between blocks")
            moved
      | Regalloc ->
          List.iter
            (fun (uid, l1, l2) ->
              err ~rule:"motion.regalloc" ~uid ~blocks:[ l1; l2 ]
                "register allocation moved an instruction between blocks")
            moved
      | Global ->
          let cl = lazy (make_classifier pre) in
          let live_post = lazy (Livecheck.compute post) in
          let record_of uid = Option.bind prov (fun p -> Provenance.find p uid) in
          List.iter
            (fun (uid, from_label, to_label) ->
              counters.motions <- counters.motions + 1;
              let blocks = [ from_label; to_label ] in
              let pre_instr = Deps.instr ppre uid in
              let post_instr = Deps.instr ppost uid in
              (match pre_instr with
              | Some i when not (Instr.movable_across_blocks i) ->
                  err ~rule:"motion.immovable" ~uid ~blocks
                    "calls and branches may never move between blocks"
              | _ -> ());
              (* Rename validity, wherever the motion landed: a renamed
                 definition must be the sole definition reaching every
                 one of its uses in the output program. *)
              let renamed_defs =
                match pre_instr, post_instr with
                | Some i1, Some i2 ->
                    List.filter
                      (fun r ->
                        not (List.exists (Reg.equal r) (Instr.defs i1)))
                      (Instr.defs i2)
                | _ -> []
              in
              List.iter
                (fun r ->
                  match
                    Reaching.sole_def_of_all_uses (Deps.reaching ppost) ~uid
                      ~reg:r
                  with
                  | Some _ -> ()
                  | None ->
                      err ~rule:"rename.unsafe" ~uid ~blocks
                        (Fmt.str
                           "renamed destination %a is not the sole definition \
                            reaching its uses"
                           Reg.pp r))
                renamed_defs;
              (match record_of uid with
              | None when prov <> None ->
                  warn ~rule:"provenance.missing" ~uid ~blocks
                    "moved instruction has no provenance record"
              | Some r
                when r.Provenance.kind = Provenance.Unmoved
                     || r.Provenance.kind = Provenance.Spill_inserted ->
                  err ~rule:"provenance.kind-mismatch" ~uid ~blocks
                    "instruction moved blocks but provenance says it did not"
              | Some r -> (
                  match r.Provenance.moved_from with
                  | Some f when not (Label.equal f from_label) ->
                      warn ~rule:"provenance.origin-mismatch" ~uid ~blocks
                        (Fmt.str
                           "provenance says the motion came from %a, the IR \
                            says %a"
                           Label.pp f Label.pp from_label)
                  | Some _ | None -> ())
              | None -> ());
              let from_id = Cfg.find_label pre from_label in
              let to_id = Cfg.find_label pre to_label in
              match from_id, to_id with
              | Some bs, Some bt -> (
                  let cl = Lazy.force cl in
                  match
                    ( Hashtbl.find_opt cl.cl_region_of bs,
                      Hashtbl.find_opt cl.cl_region_of bt )
                  with
                  | Some rs, Some rt
                    when rs.Regions.id <> rt.Regions.id ->
                      err ~rule:"motion.region-boundary" ~uid ~blocks
                        "instruction moved across a region boundary"
                  | Some rs, Some _ -> (
                      match view_of cl rs with
                      | None ->
                          warn ~rule:"motion.unclassified" ~uid ~blocks
                            "region is irreducible; motion cannot be \
                             classified"
                      | Some rv -> (
                          match
                            ( rv.rv_view.Regions.block_node bs,
                              rv.rv_view.Regions.block_node bt )
                          with
                          | Some vs, Some vt ->
                              let useful =
                                Dominance.equivalent rv.rv_dom rv.rv_post vt
                                  vs
                              in
                              let dominating =
                                Dominance.dominates rv.rv_dom vt vs
                              in
                              let kind_claimed =
                                Option.map
                                  (fun r -> r.Provenance.kind)
                                  (record_of uid)
                              in
                              if useful then begin
                                match kind_claimed with
                                | Some Provenance.Useful | None -> ()
                                | Some k ->
                                    warn ~rule:"provenance.kind-mismatch" ~uid
                                      ~blocks
                                      (Fmt.str
                                         "motion is useful (equivalent \
                                          blocks) but provenance says %a"
                                         Provenance.pp_kind k)
                              end
                              else if dominating then begin
                                (* Speculative: the Section 5.3 rules. *)
                                if
                                  not
                                    (within_degree rv
                                       ~max_degree:
                                         (max 1 max_speculation_degree)
                                       ~target:vt ~source:vs)
                                then
                                  warn ~rule:"speculation.degree" ~uid ~blocks
                                    "speculative motion gambles on more \
                                     branches than the configured degree";
                                (match pre_instr with
                                | Some i when Instr.is_store i ->
                                    err ~rule:"speculation.store" ~uid ~blocks
                                      "a store may never execute \
                                       speculatively (Section 5.1)"
                                | Some i -> (
                                    if not (Instr.speculable i) then
                                      err ~rule:"speculation.unsafe" ~uid
                                        ~blocks
                                        "instruction may not execute \
                                         speculatively";
                                    match Instr.kind i with
                                    | Instr.Binop
                                        { op = Instr.Div | Instr.Rem; _ } ->
                                        warn ~rule:"speculation.excepting"
                                          ~uid ~blocks
                                          "division may trap; the paper \
                                           excludes excepting instructions \
                                           from speculation"
                                    | _ -> ())
                                | None -> ());
                                (* Off-path clobber: no register defined by
                                   the moved instruction may be live into a
                                   successor of the target that avoids the
                                   source block. Only definitions that
                                   actually reach the target block's exit
                                   count: when several hoisted definitions of
                                   one register stack up in the target (fuzz
                                   seed 1741), the killed earlier ones never
                                   escape the block, so they cannot clobber
                                   an off-path value. *)
                                (match post_instr with
                                | None -> ()
                                | Some i ->
                                    let reaches_exit r =
                                      match Cfg.find_label post to_label with
                                      | None -> true
                                      | Some tpost ->
                                          let tblk = Cfg.block post tpost in
                                          (match
                                             Block.find_body_index tblk ~uid
                                           with
                                          | None -> true
                                          | Some idx ->
                                              not
                                                (List.exists
                                                   (fun j ->
                                                     List.exists
                                                       (Reg.equal r)
                                                       (Instr.defs j))
                                                   (List.filteri
                                                      (fun k _ -> k > idx)
                                                      (Block.instrs tblk))))
                                    in
                                    let defs =
                                      List.filter reaches_exit (Instr.defs i)
                                    in
                                    if defs <> [] then
                                      List.iter
                                        (fun s ->
                                          let off_path =
                                            match
                                              rv.rv_view.Regions.block_node s
                                            with
                                            | Some vn ->
                                                not
                                                  (Bitset.mem rv.rv_reach.(vn)
                                                     vs)
                                            | None -> true
                                          in
                                          if off_path then
                                            let s_label =
                                              (Cfg.block pre s).Block.label
                                            in
                                            match
                                              Cfg.find_label post s_label
                                            with
                                            | None -> ()
                                            | Some spost ->
                                                let live =
                                                  Livecheck.live_in
                                                    (Lazy.force live_post)
                                                    spost
                                                in
                                                List.iter
                                                  (fun r ->
                                                    if Reg.Set.mem r live then
                                                      err
                                                        ~rule:
                                                          "speculation.live-off-path"
                                                        ~uid
                                                        ~blocks:
                                                          (blocks
                                                          @ [ s_label ])
                                                        (Fmt.str
                                                           "%a is clobbered \
                                                            speculatively but \
                                                            live into \
                                                            off-path block %a"
                                                           Reg.pp r Label.pp
                                                           s_label))
                                                  defs)
                                        (Edges.succs pre bt));
                                match kind_claimed with
                                | Some Provenance.Speculative | None -> ()
                                | Some k ->
                                    warn ~rule:"provenance.kind-mismatch" ~uid
                                      ~blocks
                                      (Fmt.str
                                         "motion is speculative (dominating, \
                                          non-equivalent target) but \
                                          provenance says %a"
                                         Provenance.pp_kind k)
                              end
                              else begin
                                (* Neither equivalent nor dominating: only
                                   duplication (Definition 6) makes this
                                   legal, and then this stage must have
                                   created copies. *)
                                match kind_claimed with
                                | Some Provenance.Duplicated ->
                                    if created = [] then
                                      warn ~rule:"duplication.coverage" ~uid
                                        ~blocks
                                        "duplicated motion but the stage \
                                         created no copies"
                                | Some _ ->
                                    err ~rule:"motion.not-upward" ~uid ~blocks
                                      "target neither is equivalent to nor \
                                       dominates the source and the motion \
                                       is not a duplication"
                                | None ->
                                    if created = [] then
                                      err ~rule:"motion.not-upward" ~uid
                                        ~blocks
                                        "target neither is equivalent to nor \
                                         dominates the source and the stage \
                                         created no duplicate copies"
                                    else
                                      warn ~rule:"motion.unclassified" ~uid
                                        ~blocks
                                        "non-dominating motion with copies \
                                         but no provenance to confirm \
                                         duplication"
                              end
                          | None, _ | _, None ->
                              warn ~rule:"motion.unclassified" ~uid ~blocks
                                "moved instruction's blocks are not in the \
                                 region view"))
                  | None, _ | _, None ->
                      warn ~rule:"motion.unclassified" ~uid ~blocks
                        "moved instruction's blocks belong to no region")
              | None, _ | _, None ->
                  err ~rule:"motion.not-upward" ~uid ~blocks
                    "moved instruction's source or target block does not \
                     exist in the input program")
            moved);
      (List.rev !acc, counters, Some ppost)

let check_stage ?prov ?max_speculation_degree ~stage ~pre ~post () =
  let diags, _, _ =
    run_stage ?prov ?max_speculation_degree ~stage ~pre ~post ()
  in
  diags

(* ---- collector: per-pipeline-run accumulation ---- *)

type stats = {
  stages : int;
  deps_checked : int;
  motions_classified : int;
}

type collector = {
  c_prov : Provenance.t option;
  c_max_degree : int option;
  mutable c_results : (string * Diagnostic.t list) list;  (* reversed *)
  mutable c_stages : int;
  mutable c_deps : int;
  mutable c_motions : int;
  mutable c_last : (Cfg.t * Deps.program) option;
      (* the last stage's post CFG and its index, reused when that very
         CFG comes back as the next stage's pre *)
}

let collector ?prov ?max_speculation_degree () =
  {
    c_prov = prov;
    c_max_degree = max_speculation_degree;
    c_results = [];
    c_stages = 0;
    c_deps = 0;
    c_motions = 0;
    c_last = None;
  }

let hook c ~stage ~pre ~post =
  let ppre =
    match c.c_last with
    | Some (last, p) when last == pre -> Some p
    | Some _ | None -> None
  in
  let diags, counters, ppost =
    run_stage ?prov:c.c_prov ?max_speculation_degree:c.c_max_degree ?ppre
      ~stage ~pre ~post ()
  in
  c.c_last <- Option.map (fun p -> (post, p)) ppost;
  c.c_results <- (stage, diags) :: c.c_results;
  c.c_stages <- c.c_stages + 1;
  c.c_deps <- c.c_deps + counters.deps_checked;
  c.c_motions <- c.c_motions + counters.motions

let diagnostics c = List.rev c.c_results

let stats c =
  {
    stages = c.c_stages;
    deps_checked = c.c_deps;
    motions_classified = c.c_motions;
  }

let errors ds = List.filter Diagnostic.is_error ds

let report_to_json ?stats results =
  let all = List.concat_map snd results in
  Json.Obj
    ([
       ( "stages",
         Json.List
           (List.map
              (fun (stage, ds) ->
                Json.Obj
                  [
                    ("stage", Json.String stage);
                    ("diagnostics", Diagnostic.list_to_json ds);
                  ])
              results) );
       ( "rule_counts",
         Json.Obj
           (List.map
              (fun (r, n) -> (r, Json.Int n))
              (Diagnostic.counts all)) );
       ("errors", Json.Int (List.length (errors all)));
       ( "warnings",
         Json.Int (List.length all - List.length (errors all)) );
     ]
    @
    match stats with
    | None -> []
    | Some s ->
        [
          ("stages_checked", Json.Int s.stages);
          ("dependences_checked", Json.Int s.deps_checked);
          ("motions_classified", Json.Int s.motions_classified);
        ])
