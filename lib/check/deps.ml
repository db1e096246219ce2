open Gis_util
open Gis_ir
open Gis_analysis
open Gis_ddg

type kind = Flow | Anti | Output | Mem

let pp_kind ppf k =
  Fmt.string ppf
    (match k with
    | Flow -> "flow"
    | Anti -> "anti"
    | Output -> "output"
    | Mem -> "mem")

type dep = { d_src : int; d_dst : int; d_kind : kind; d_reg : Reg.t option }

(* Per-instruction summary computed once per block scan: the memory
   access carries the scan-local base version, exactly as in
   [Ddg.build]'s node table. *)
type summary = {
  s_instr : Instr.t;
  s_defs : Reg.t list;
  s_uses : Reg.t list;
  s_mem : Alias.access option;
  s_base_sites : Reaching.site list Lazy.t;
      (* definitions reaching a load/store's base register *)
}

type site = { st_block : int; st_pos : int; st_instr : Instr.t }

type program = {
  p_cfg : Cfg.t;
  p_node : int array;  (* block id -> forward-view node, or -1 *)
  p_reach : bool array array;
  p_sites : site option array;  (* indexed by uid *)
  p_uids : Ints.Int_set.t;
  p_reaching : Reaching.t Lazy.t;
  p_addr : Addrcheck.t Lazy.t;
  p_disambig : bool;
}

let reaching p = Lazy.force p.p_reaching
let uids p = p.p_uids

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
        (fun (v, _) ->
          if color.(v) = 1 then acc := (u, v) :: !acc
          else if color.(v) = 0 then go v)
        (Cfg.successors cfg u);
      color.(u) <- 2
    in
    go (Cfg.entry cfg);
    !acc
  end

let summarize_block reaching (b : Block.t) =
  let versions = Hashtbl.create 8 in
  let version_of (r : Reg.t) =
    Option.value ~default:(-1) (Hashtbl.find_opt versions (Reg.hash r))
  in
  List.map
    (fun i ->
      let mem = Alias.access_of_instr ~version_of i in
      let s =
        {
          s_instr = i;
          s_defs = Instr.defs i;
          s_uses = Instr.uses i;
          s_mem = mem;
          s_base_sites =
            lazy
              (match mem with
              | Some (Alias.Load_ref x | Alias.Store_ref x) ->
                  Reaching.defs_of_use (Lazy.force reaching) ~uid:(Instr.uid i)
                    ~reg:x.Alias.base
              | Some Alias.Call_ref | None -> []);
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
  let node = Array.make (Cfg.num_blocks cfg) (-1) in
  Ints.Int_map.iter
    (fun b n -> node.(b) <- n)
    (Gis_analysis.Flow.local_of_block flow);
  let max_uid =
    List.fold_left (fun m i -> max m (Instr.uid i)) (-1) (Cfg.all_instrs cfg)
  in
  let sites = Array.make (max_uid + 1) None in
  let uids = ref Ints.Int_set.empty in
  Cfg.iter_blocks
    (fun b ->
      List.iteri
        (fun pos i ->
          sites.(Instr.uid i) <-
            Some { st_block = b.Block.id; st_pos = pos; st_instr = i };
          uids := Ints.Int_set.add (Instr.uid i) !uids)
        (Block.instrs b))
    cfg;
  {
    p_cfg = cfg;
    p_node = node;
    p_reach = Gis_analysis.Flow.reachable_matrix flow;
    p_sites = sites;
    p_uids = !uids;
    p_reaching = lazy (Reaching.compute cfg);
    p_addr = lazy (Addrcheck.compute cfg);
    p_disambig = disambig;
  }

let site p uid =
  if uid >= 0 && uid < Array.length p.p_sites then p.p_sites.(uid) else None

let instr p uid = Option.map (fun s -> s.st_instr) (site p uid)

let block_label_of_uid p uid =
  Option.map (fun s -> (Cfg.block p.p_cfg s.st_block).Block.label) (site p uid)

let block_reaches p a b =
  a = b
  ||
  let na = p.p_node.(a) and nb = p.p_node.(b) in
  na >= 0 && nb >= 0 && p.p_reach.(na).(nb)

let sites_ordered p s1 s2 =
  if s1.st_block = s2.st_block then s1.st_pos < s2.st_pos
  else
    block_reaches p s1.st_block s2.st_block
    && not (block_reaches p s2.st_block s1.st_block)

let inter_regs a b = List.exists (fun r -> List.exists (Reg.equal r) b) a

(* Does a dependence of this kind still connect the two instructions as
   they now read? Renaming during speculative motion may dissolve an
   anti/output/flow dependence; memory dependences always survive. *)
let still_conflicts kind iu iv =
  match kind with
  | Mem -> true
  | Flow -> inter_regs (Instr.defs iu) (Instr.uses iv)
  | Anti -> inter_regs (Instr.uses iu) (Instr.defs iv)
  | Output -> inter_regs (Instr.defs iu) (Instr.defs iv)

let preserved p ~dissolve d =
  match site p d.d_src, site p d.d_dst with
  | Some su, Some sv ->
      Some
        (sites_ordered p su sv
        || (dissolve && not (still_conflicts d.d_kind su.st_instr sv.st_instr)))
  | None, _ | _, None -> None

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
let interblock_mem_conflict sa sb =
  match sa.s_mem, sb.s_mem with
  | Some (Alias.Load_ref _), Some (Alias.Load_ref _) -> false
  | Some Alias.Call_ref, _ | _, Some Alias.Call_ref -> true
  | ( Some (Alias.Load_ref x | Alias.Store_ref x),
      Some (Alias.Load_ref y | Alias.Store_ref y) ) -> (
      if not (Reg.equal x.Alias.base y.Alias.base) then true
      else
        match Lazy.force sa.s_base_sites, Lazy.force sb.s_base_sites with
        | [ a ], [ b ] when Reaching.equal_site a b ->
            not (Alias.ranges_disjoint x y)
        | _, _ -> true)
  | None, _ | _, None -> false

(* One occurrence of a register (or a memory access) in the inter-block
   index: the view position and forward-view node of its block, its
   position in the block, and its summary. *)
type occ = { o_view : int; o_node : int; o_pos : int; o_sum : summary }

(* [regs] without repeats, first occurrences kept in order. *)
let distinct regs =
  List.rev
    (List.fold_left
       (fun acc r -> if List.exists (Reg.equal r) acc then acc else r :: acc)
       [] regs)

(* Every dependence, in no particular order, each passed to [emit] with
   its place in the pairwise scan: [a] and [b] are the view positions of
   the source and destination blocks; between blocks ([a <> b]) [pa],
   [pb] and [rule] are the source position, destination position and
   rule index (a source's defined registers in order, flow then output,
   then its used registers, then memory); within a block ([a = b]) [pa]
   is the scan's sequence number and [pb = rule = 0]. *)
let scan p emit =
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
            match Addrcheck.delta t ~a:ua ~b:ub with
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
    if Cfg.num_blocks p.p_cfg = 0 then -1 else p.p_node.(Cfg.entry p.p_cfg)
  in
  let view =
    Array.of_list
      (List.filter
         (fun id ->
           let n = p.p_node.(id) in
           entry_node >= 0 && n >= 0 && p.p_reach.(entry_node).(n))
         (Cfg.layout p.p_cfg))
  in
  let summaries =
    Array.map
      (fun b ->
        Array.of_list (summarize_block p.p_reaching (Cfg.block p.p_cfg b)))
      view
  in
  (* The inter-block index: every def and use occurrence of each
     register (one per instruction and register), and the memory
     accesses split into all of them and the non-loads. *)
  let defs_of = Hashtbl.create 64 and uses_of = Hashtbl.create 64 in
  let mem_all = Vec.create () and mem_nonload = Vec.create () in
  let index tbl (r : Reg.t) o =
    match Hashtbl.find_opt tbl (Reg.hash r) with
    | Some v -> Vec.push v o
    | None -> Hashtbl.add tbl (Reg.hash r) (Vec.of_list [ o ])
  in
  Array.iteri
    (fun vb ss ->
      Array.iteri
        (fun pos s ->
          let o =
            {
              o_view = vb;
              o_node = p.p_node.(view.(vb));
              o_pos = pos;
              o_sum = s;
            }
          in
          List.iter (fun r -> index defs_of r o) (distinct s.s_defs);
          List.iter (fun r -> index uses_of r o) (distinct s.s_uses);
          match s.s_mem with
          | Some (Alias.Load_ref _) -> Vec.push mem_all o
          | Some (Alias.Store_ref _ | Alias.Call_ref) ->
              Vec.push mem_all o;
              Vec.push mem_nonload o
          | None -> ())
        ss)
    summaries;
  let none = Vec.create () in
  let occs tbl (r : Reg.t) =
    Option.value ~default:none (Hashtbl.find_opt tbl (Reg.hash r))
  in
  (* Inter-block edges: each source instruction is joined with the
     index entries of its registers and memory family, keeping those
     whose block its own block strictly reaches. *)
  Array.iteri
    (fun a ss ->
      let reach = p.p_reach.(p.p_node.(view.(a))) in
      let join vec f =
        Vec.iter (fun o -> if o.o_view <> a && reach.(o.o_node) then f o) vec
      in
      Array.iteri
        (fun pa sa ->
          let ua = Instr.uid sa.s_instr in
          let edge o rule kind reg =
            emit a o.o_view pa o.o_pos rule
              {
                d_src = ua;
                d_dst = Instr.uid o.o_sum.s_instr;
                d_kind = kind;
                d_reg = reg;
              }
          in
          let nd = List.length sa.s_defs in
          List.iteri
            (fun k r ->
              let reg = Some r in
              join (occs uses_of r) (fun o -> edge o (2 * k) Flow reg);
              join (occs defs_of r) (fun o -> edge o ((2 * k) + 1) Output reg))
            sa.s_defs;
          List.iteri
            (fun j r ->
              let reg = Some r in
              join (occs defs_of r) (fun o -> edge o ((2 * nd) + j) Anti reg))
            sa.s_uses;
          match sa.s_mem with
          | None -> ()
          | Some x ->
              let rule = (2 * nd) + List.length sa.s_uses in
              join
                (match x with
                | Alias.Load_ref _ -> mem_nonload
                | Alias.Store_ref _ | Alias.Call_ref -> mem_all)
                (fun o ->
                  let ub = Instr.uid o.o_sum.s_instr in
                  match o.o_sum.s_mem with
                  | Some y
                    when refine ua x ub y
                           (interblock_mem_conflict sa o.o_sum)
                    ->
                      edge o rule Mem None
                  | Some _ | None -> ()))
        ss)
    summaries;
  Array.iteri
    (fun a ss ->
      let seq = ref 0 in
      intra_deps
        ~mem_conflict:(fun (m, am) (u, a) ->
          refine m am u a (Alias.conflict am a))
        (Array.to_list ss)
        (fun src dst kind reg ->
          if src <> dst then begin
            emit a a !seq 0 0
              { d_src = src; d_dst = dst; d_kind = kind; d_reg = reg };
            incr seq
          end))
    summaries

let iter p f = scan p (fun _ _ _ _ _ d -> f d)

(* The reverse of the pairwise scan: inter-block edges by descending
   (source block, destination block, source position, destination
   position, rule), then intra-block edges by descending (block,
   sequence number). *)
let reconstruct p =
  let acc = ref [] in
  scan p (fun a b pa pb rule d ->
      acc := ((a <> b, a, b, pa, pb, rule), d) :: !acc);
  List.map snd (List.sort (fun (k1, _) (k2, _) -> compare k2 k1) !acc)
