(* The checker's dependence reconstruction as it was before the index
   join: every instruction pair of every ordered pair of forward-reachable
   blocks is tested against every register. Kept as the reference the
   indexed [Gis_check.Deps.reconstruct] must reproduce, list for list.
   Its reaching definitions and address deltas come from the test
   references ([Reaching_ref], [Addrcheck_ref]), so it shares no
   dataflow code with the checker under test. *)

open Gis_util
open Gis_ir
open Gis_ddg
open Gis_check.Deps

(* Per-instruction summary computed once per block scan: the memory
   access carries the scan-local base version, exactly as in
   [Ddg.build]'s node table. *)
type summary = {
  s_instr : Instr.t;
  s_defs : Reg.t list;
  s_uses : Reg.t list;
  s_mem : Alias.access option;
}

type program = {
  p_cfg : Cfg.t;
  p_flow : Gis_analysis.Flow.t;
  p_node_of_block : int Ints.Int_map.t;
  p_reach : bool array array;
  p_sites : (int, int * int) Hashtbl.t;  (* uid -> block id, position *)
  p_summaries : (int, summary list) Hashtbl.t;  (* block id -> in order *)
  p_uids : Ints.Int_set.t;
  p_reaching : Reaching_ref.t Lazy.t;
  p_addr : Addrcheck_ref.t Lazy.t;
  p_disambig : bool;
}

(* DFS back edges from the entry; masking them makes the whole-CFG view
   acyclic on the reachable portion (the forward program of Section 4.1,
   applied to the full procedure rather than one region). *)
let back_edges cfg =
  let n = Cfg.num_blocks cfg in
  if n = 0 then []
  else begin
    let color = Array.make n 0 in
    let acc = ref [] in
    let rec go u =
      color.(u) <- 1;
      List.iter
        (fun v ->
          if color.(v) = 1 then acc := (u, v) :: !acc
          else if color.(v) = 0 then go v)
        (Test_support.succs cfg u);
      color.(u) <- 2
    in
    go (Cfg.entry cfg);
    !acc
  end

let summarize_block (b : Block.t) =
  let versions = Hashtbl.create 8 in
  let version_of (r : Reg.t) =
    Option.value ~default:(-1) (Hashtbl.find_opt versions (Reg.hash r))
  in
  List.map
    (fun i ->
      let s =
        {
          s_instr = i;
          s_defs = Instr.defs i;
          s_uses = Instr.uses i;
          s_mem = Alias.access_of_instr ~version_of i;
        }
      in
      List.iter
        (fun r -> Hashtbl.replace versions (Reg.hash r) (Instr.uid i))
        s.s_defs;
      s)
    (Block.instrs b)

let of_cfg ?(disambig = true) cfg =
  let layout_set =
    List.fold_left
      (fun acc id -> Ints.Int_set.add id acc)
      Ints.Int_set.empty (Cfg.layout cfg)
  in
  let flow =
    Gis_analysis.Flow.of_cfg ~blocks:layout_set
      ~masked_edges:(back_edges cfg) ~entry:(Cfg.entry cfg) cfg
  in
  let node_of_block = Gis_analysis.Flow.local_of_block flow in
  let reach = Gis_analysis.Flow.reachable_matrix flow in
  let sites = Hashtbl.create 256 in
  let summaries = Hashtbl.create 64 in
  let uids = ref Ints.Int_set.empty in
  Cfg.iter_blocks
    (fun b ->
      let pos = ref 0 in
      List.iter
        (fun i ->
          Hashtbl.replace sites (Instr.uid i) (b.Block.id, !pos);
          uids := Ints.Int_set.add (Instr.uid i) !uids;
          incr pos)
        (Block.instrs b);
      Hashtbl.replace summaries b.Block.id (summarize_block b))
    cfg;
  {
    p_cfg = cfg;
    p_flow = flow;
    p_node_of_block = node_of_block;
    p_reach = reach;
    p_sites = sites;
    p_summaries = summaries;
    p_uids = !uids;
    p_reaching = lazy (Reaching_ref.compute cfg);
    p_addr = lazy (Addrcheck_ref.compute cfg);
    p_disambig = disambig;
  }

let block_reaches p a b =
  if a = b then true
  else
    match
      ( Ints.Int_map.find_opt a p.p_node_of_block,
        Ints.Int_map.find_opt b p.p_node_of_block )
    with
    | Some na, Some nb -> p.p_reach.(na).(nb)
    | None, _ | _, None -> false

(* Kill-sensitive single-block scan, mirroring [Ddg.intra_block_scan]:
   flow from the last definition, output over the last definition, anti
   from uses since the last definition, memory pairwise with scan-local
   base versions refined by [mem_conflict]. *)
let intra_deps ~mem_conflict summaries add =
  let last_def = Hashtbl.create 8 in
  let uses_since = Hashtbl.create 8 in
  let mem_before = ref [] in
  List.iter
    (fun s ->
      let u = Instr.uid s.s_instr in
      List.iter
        (fun r ->
          match Hashtbl.find_opt last_def (Reg.hash r) with
          | Some d -> add d u Flow (Some r)
          | None -> ())
        s.s_uses;
      List.iter
        (fun r ->
          (match Hashtbl.find_opt last_def (Reg.hash r) with
          | Some d -> add d u Output (Some r)
          | None -> ());
          List.iter
            (fun x -> add x u Anti (Some r))
            (Option.value ~default:[]
               (Hashtbl.find_opt uses_since (Reg.hash r))))
        s.s_defs;
      (match s.s_mem with
      | Some a ->
          List.iter
            (fun (m, am) -> if mem_conflict (m, am) (u, a) then add m u Mem None)
            !mem_before;
          mem_before := (u, a) :: !mem_before
      | None -> ());
      List.iter
        (fun r ->
          Hashtbl.replace last_def (Reg.hash r) u;
          Hashtbl.replace uses_since (Reg.hash r) [])
        s.s_defs;
      List.iter
        (fun r ->
          let cur =
            Option.value ~default:[] (Hashtbl.find_opt uses_since (Reg.hash r))
          in
          Hashtbl.replace uses_since (Reg.hash r) (u :: cur))
        s.s_uses)
    summaries

(* Inter-block memory disambiguation, mirroring
   [Ddg.interblock_mem_conflict]: scan-local versions mean nothing
   across blocks, so base values are proved equal through a shared
   single reaching definition. *)
let interblock_mem_conflict ~base_sites (ua, a) (ub, b) =
  match a, b with
  | Alias.Load_ref _, Alias.Load_ref _ -> false
  | Alias.Call_ref, _ | _, Alias.Call_ref -> true
  | ( (Alias.Load_ref x | Alias.Store_ref x),
      (Alias.Load_ref y | Alias.Store_ref y) ) -> (
      if not (Reg.equal x.Alias.base y.Alias.base) then true
      else
        match base_sites ua x, base_sites ub y with
        | Some [ sa ], Some [ sb ] when sa = sb ->
            not (Alias.ranges_disjoint x y)
        | _, _ -> true)

let reconstruct ?disambig cfg =
  let p = of_cfg ?disambig cfg in
  let acc = ref [] in
  let add src dst kind reg =
    if src <> dst then acc := { d_src = src; d_dst = dst; d_kind = kind; d_reg = reg } :: !acc
  in
  let base_sites uid (ri : Alias.ref_info) =
    Some
      (Reaching_ref.defs_of_use (Lazy.force p.p_reaching) ~uid
         ~reg:ri.Alias.base)
  in
  (* The symbolic-address refinement: a conflicting-looking pair stays
     a Mem dependence unless the two accesses live in different memory
     families, or the checker's own address analysis ([Addrcheck],
     deliberately not the scheduler's [Symaddr]) proves a base delta
     that puts their ranges apart. Matches [Ddg.decide_mem] in
     precision — a weaker rule here would demand edges the scheduler
     legitimately pruned and reject legal schedules. *)
  let addr = if p.p_disambig then Some (Lazy.force p.p_addr) else None in
  let refine ua a ub b conservative =
    conservative
    &&
    match a, b with
    | Alias.Call_ref, _ | _, Alias.Call_ref -> true
    | ( (Alias.Load_ref x | Alias.Store_ref x),
        (Alias.Load_ref y | Alias.Store_ref y) ) -> (
        x.Alias.family = y.Alias.family
        &&
        match addr with
        | None -> true
        | Some t -> (
            match Addrcheck_ref.delta t ~a:ua ~b:ub with
            | Some d ->
                not
                  (Alias.ranges_disjoint x
                     { y with Alias.offset = y.Alias.offset + d })
            | None -> true))
  in
  (* Entry-reachable blocks only: unreachable code has no forward order
     (its back edges were never masked, so it may be cyclic) and is the
     linter's business, not the order oracle's. *)
  let entry_node =
    Ints.Int_map.find_opt (Cfg.entry p.p_cfg) p.p_node_of_block
  in
  let view_blocks =
    List.filter
      (fun id ->
        match entry_node, Ints.Int_map.find_opt id p.p_node_of_block with
        | Some e, Some n -> p.p_reach.(e).(n)
        | None, _ | _, None -> false)
      (Cfg.layout p.p_cfg)
  in
  List.iter
    (fun b ->
      intra_deps
        ~mem_conflict:(fun (m, am) (u, a) ->
          refine m am u a (Alias.conflict am a))
        (Hashtbl.find p.p_summaries b) add)
    view_blocks;
  List.iter
    (fun ba ->
      List.iter
        (fun bb ->
          if ba <> bb && block_reaches p ba bb then
            List.iter
              (fun sa ->
                let ua = Instr.uid sa.s_instr in
                List.iter
                  (fun sb ->
                    let ub = Instr.uid sb.s_instr in
                    List.iter
                      (fun r ->
                        if List.exists (Reg.equal r) sb.s_uses then
                          add ua ub Flow (Some r);
                        if List.exists (Reg.equal r) sb.s_defs then
                          add ua ub Output (Some r))
                      sa.s_defs;
                    List.iter
                      (fun r ->
                        if List.exists (Reg.equal r) sb.s_defs then
                          add ua ub Anti (Some r))
                      sa.s_uses;
                    match sa.s_mem, sb.s_mem with
                    | Some x, Some y ->
                        if
                          refine ua x ub y
                            (interblock_mem_conflict ~base_sites (ua, x)
                               (ub, y))
                        then add ua ub Mem None
                    | None, _ | _, None -> ())
                  (Hashtbl.find p.p_summaries bb))
              (Hashtbl.find p.p_summaries ba))
        view_blocks)
    view_blocks;
  !acc
