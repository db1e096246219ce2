(* The dependence-graph builder that [Gis_ddg.Ddg] replaced with
   register-indexed pair visits, burst-stamped edge dedupe and flat edge
   arrays, kept as an independent reference: every node pair of every
   reachable view-node pair is tested against [Reg.Set] nodes, and each
   (src, dst) pair's edge is deduplicated in a polymorphic Hashtbl. The
   graph it gives, its disambiguation counts and its transitive pruning
   are what the indexed builder must reproduce. *)

open Gis_util
open Gis_ir
open Gis_analysis
open Gis_ddg

type edge = {
  src : int;
  dst : int;
  kind : Ddg.dep_kind;
  reg : Reg.t option;
  delay : int;
}

type node = {
  idx : int;
  uid : int;
  instr : Instr.t option;
  view_node : int;
  defs : Reg.Set.t;
  uses : Reg.Set.t;
}

type t = {
  nodes : node array;
  exec : int array;
  edges : edge list;
  tally : int array;
}

let tally_keys =
  [
    "alias.queries_total";
    "alias.mem_edges_pruned_total.intra";
    "alias.mem_edges_pruned_total.inter";
    "alias.fallback_total.top";
    "alias.fallback_total.origin-mismatch";
    "alias.fallback_total.overlap";
    "alias.fallback_total.call";
    "alias.fallback_total.disabled";
  ]

let queries = 0
let pruned_intra = 1
let pruned_inter = 2
let fb_top = 3
let fb_origin = 4
let fb_overlap = 5
let fb_call = 6
let fb_off = 7

let counts t =
  let c = t.tally in
  Gis_obs.Counts.counters
    (("alias.mem_edges_kept_total",
      c.(fb_top) + c.(fb_origin) + c.(fb_overlap) + c.(fb_call) + c.(fb_off))
    :: List.mapi (fun i k -> (k, c.(i))) tally_keys)

let interblock_mem_conflict ~base_sites (a_idx, a) (b_idx, b) =
  match a, b with
  | Alias.Load_ref _, Alias.Load_ref _ -> false
  | Alias.Call_ref, _ | _, Alias.Call_ref -> true
  | (Alias.Load_ref x | Alias.Store_ref x), (Alias.Load_ref y | Alias.Store_ref y)
    -> (
      if not (Reg.equal x.Alias.base y.Alias.base) then true
      else
        match base_sites a_idx, base_sites b_idx with
        | Some [ sa ], Some [ sb ] when Reaching.equal_site sa sb ->
            not (Alias.ranges_disjoint x y)
        | _, _ -> true)

let bump tally slot = tally.(slot) <- tally.(slot) + 1

let decide_mem ~sym ~tally ~pruned_slot ~ua ~ub a b conservative =
  bump tally queries;
  let prune () =
    bump tally pruned_slot;
    false
  in
  let keep reason =
    bump tally reason;
    true
  in
  match a, b with
  | Alias.Load_ref _, Alias.Load_ref _ -> false
  | Alias.Call_ref, _ | _, Alias.Call_ref ->
      if conservative then keep fb_call else false
  | ( (Alias.Load_ref x | Alias.Store_ref x),
      (Alias.Load_ref y | Alias.Store_ref y) ) -> (
      if x.Alias.family <> y.Alias.family then
        if Alias.baseline_conflict a b then prune () else false
      else if not conservative then false
      else
        match sym with
        | None -> keep fb_off
        | Some sym -> (
            match Symaddr.delta sym ~a:ua ~b:ub with
            | Some d ->
                let shifted = { y with Alias.offset = y.Alias.offset + d } in
                if Alias.ranges_disjoint x shifted then prune ()
                else keep fb_overlap
            | None ->
                keep
                  (match
                     ( Symaddr.base_value sym ua,
                       Symaddr.base_value sym ub )
                   with
                  | Symaddr.Top, _ | _, Symaddr.Top -> fb_top
                  | (Symaddr.Const _ | Symaddr.Sym _), _ -> fb_origin)))

let intra_block_scan ~(nodes : node array) ~mem_access ~flow_delay ~mem_delay
    ~mem_conflict ~add_edge node_idxs =
  let last_def = Hashtbl.create 8 in
  let uses_since = Hashtbl.create 8 in
  let mem_before = ref [] in
  List.iter
    (fun j ->
      let nd = nodes.(j) in
      Reg.Set.iter
        (fun r ->
          match Hashtbl.find_opt last_def (Reg.hash r) with
          | Some d -> add_edge d j Ddg.Flow (Some r) (flow_delay d j r)
          | None -> ())
        nd.uses;
      Reg.Set.iter
        (fun r ->
          (match Hashtbl.find_opt last_def (Reg.hash r) with
          | Some d -> add_edge d j Ddg.Output (Some r) 0
          | None -> ());
          List.iter
            (fun u -> add_edge u j Ddg.Anti (Some r) 0)
            (Option.value ~default:[]
               (Hashtbl.find_opt uses_since (Reg.hash r))))
        nd.defs;
      (match mem_access.(j) with
      | Some _ ->
          List.iter
            (fun m ->
              if mem_conflict m j then add_edge m j Ddg.Mem None (mem_delay m j))
            !mem_before;
          mem_before := j :: !mem_before
      | None -> ());
      Reg.Set.iter
        (fun r ->
          Hashtbl.replace last_def (Reg.hash r) j;
          Hashtbl.replace uses_since (Reg.hash r) [])
        nd.defs;
      Reg.Set.iter
        (fun r ->
          let cur =
            Option.value ~default:[] (Hashtbl.find_opt uses_since (Reg.hash r))
          in
          Hashtbl.replace uses_since (Reg.hash r) (j :: cur))
        nd.uses)
    node_idxs

let intra_mem_conflict ~sym ~(nodes : node array)
    ~(mem_access : Alias.access option array) ~tally m j =
  match mem_access.(m), mem_access.(j) with
  | Some a, Some b ->
      decide_mem ~sym ~tally ~pruned_slot:pruned_intra
        ~ua:nodes.(m).uid ~ub:nodes.(j).uid a b (Alias.conflict a b)
  | None, _ | _, None -> false

let make_edge_table () =
  let edges = Hashtbl.create 256 in
  let add_edge src dst kind reg delay =
    if src = dst then ()
    else
      match Hashtbl.find_opt edges (src, dst) with
      | Some (e : edge) when e.delay >= delay -> ()
      | Some _ | None ->
          Hashtbl.replace edges (src, dst) { src; dst; kind; reg; delay }
  in
  (edges, add_edge)

let flow_delay_fn machine (nodes : node array) a b r =
  match nodes.(a).instr, nodes.(b).instr with
  | Some p, Some c ->
      Gis_machine.Machine.delay machine ~producer:p ~consumer:c ~reg:r
  | None, _ | _, None -> 0

let mem_delay_fn machine (nodes : node array) a b =
  match nodes.(a).instr, nodes.(b).instr with
  | Some p, Some c -> Gis_machine.Machine.mem_delay machine ~producer:p ~consumer:c
  | None, _ | _, None -> 0

type table = {
  t_nodes : node Vec.t;
  t_mem : Alias.access option Vec.t;
  t_exec : int Vec.t;
}

let add_node tbl ~uid ~instr ~view_node ~defs ~uses ~mem ~exec =
  let idx = Vec.length tbl.t_nodes in
  Vec.push tbl.t_nodes { idx; uid; instr; view_node; defs; uses };
  Vec.push tbl.t_mem mem;
  Vec.push tbl.t_exec exec;
  idx

let add_block_nodes machine tbl ~view_node (blk : Block.t) =
  let versions = Hashtbl.create 8 in
  let version_of (r : Reg.t) =
    Option.value ~default:(-1) (Hashtbl.find_opt versions (Reg.hash r))
  in
  let idxs = ref [] in
  let visit i =
    let mem = Alias.access_of_instr ~version_of i in
    let idx =
      add_node tbl ~uid:(Instr.uid i) ~instr:(Some i) ~view_node
        ~defs:(Reg.Set.of_list (Instr.defs i))
        ~uses:(Reg.Set.of_list (Instr.uses i))
        ~mem ~exec:(Gis_machine.Machine.exec_time machine i)
    in
    List.iter
      (fun r -> Hashtbl.replace versions (Reg.hash r) (Instr.uid i))
      (Instr.defs i);
    idxs := idx :: !idxs
  in
  Vec.iter visit blk.Block.body;
  visit blk.Block.term;
  List.rev !idxs

let finalize tbl tally edges =
  {
    nodes = Vec.to_array tbl.t_nodes;
    exec = Vec.to_array tbl.t_exec;
    edges = Hashtbl.fold (fun _ e acc -> e :: acc) edges [];
    tally;
  }

let new_table () =
  { t_nodes = Vec.create (); t_mem = Vec.create (); t_exec = Vec.create () }

let build_single_block ?sym machine (blk : Block.t) =
  let tbl = new_table () in
  let idxs = add_block_nodes machine tbl ~view_node:0 blk in
  let nodes = Vec.to_array tbl.t_nodes in
  let mem_access = Vec.to_array tbl.t_mem in
  let edges, add_edge = make_edge_table () in
  let tally = Array.make (List.length tally_keys) 0 in
  intra_block_scan ~nodes ~mem_access
    ~flow_delay:(flow_delay_fn machine nodes)
    ~mem_delay:(mem_delay_fn machine nodes)
    ~mem_conflict:(intra_mem_conflict ~sym ~nodes ~mem_access ~tally)
    ~add_edge idxs;
  finalize tbl tally edges

let build ?sym cfg machine regions (view : Regions.view) =
  let tbl = new_table () in
  let by_view_node =
    Array.mapi
      (fun v kind ->
        match kind with
        | Regions.Block b ->
            add_block_nodes machine tbl ~view_node:v (Cfg.block cfg b)
        | Regions.Inner_loop c ->
            let defs = ref Reg.Set.empty and uses = ref Reg.Set.empty in
            let mem = ref false in
            Ints.Int_set.iter
              (fun b ->
                List.iter
                  (fun i ->
                    List.iter (fun r -> defs := Reg.Set.add r !defs) (Instr.defs i);
                    List.iter (fun r -> uses := Reg.Set.add r !uses) (Instr.uses i);
                    if Instr.touches_memory i then mem := true)
                  (Block.instrs (Cfg.block cfg b)))
              (Regions.summary_blocks regions ~loop_index:c);
            [
              add_node tbl ~uid:(-c - 1) ~instr:None ~view_node:v ~defs:!defs
                ~uses:!uses
                ~mem:(if !mem then Some Alias.Call_ref else None)
                ~exec:1;
            ])
      view.Regions.nodes
  in
  let num_view_nodes = Array.length by_view_node in
  let nodes = Vec.to_array tbl.t_nodes in
  let mem_access = Vec.to_array tbl.t_mem in
  let edges, add_edge = make_edge_table () in
  let flow_delay = flow_delay_fn machine nodes in
  let mem_delay = mem_delay_fn machine nodes in
  let tally = Array.make (List.length tally_keys) 0 in
  Array.iter
    (intra_block_scan ~nodes ~mem_access ~flow_delay ~mem_delay
       ~mem_conflict:(intra_mem_conflict ~sym ~nodes ~mem_access ~tally)
       ~add_edge)
    by_view_node;
  let reaching = lazy (Reaching.Query.create cfg) in
  let base_sites idx =
    match
      ( nodes.(idx).instr,
        mem_access.(idx),
        view.Regions.nodes.(nodes.(idx).view_node) )
    with
    | Some i, Some (Alias.Load_ref ri | Alias.Store_ref ri), Regions.Block block ->
        Some
          (Reaching.Query.defs_of_use (Lazy.force reaching) ~block
             ~uid:(Instr.uid i) ~reg:ri.Alias.base)
    | _, _, _ -> None
  in
  let reach = Flow.reachable_matrix view.Regions.flow in
  for va = 0 to num_view_nodes - 1 do
    for vb = 0 to num_view_nodes - 1 do
      if va <> vb && reach.(va).(vb) then
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                let na = nodes.(a) and nb = nodes.(b) in
                Reg.Set.iter
                  (fun r ->
                    if Reg.Set.mem r nb.uses then
                      add_edge a b Ddg.Flow (Some r) (flow_delay a b r);
                    if Reg.Set.mem r nb.defs then
                      add_edge a b Ddg.Output (Some r) 0)
                  na.defs;
                Reg.Set.iter
                  (fun r ->
                    if Reg.Set.mem r nb.defs then add_edge a b Ddg.Anti (Some r) 0)
                  na.uses;
                match mem_access.(a), mem_access.(b) with
                | Some x, Some y ->
                    if
                      decide_mem ~sym ~tally ~pruned_slot:pruned_inter
                        ~ua:na.uid ~ub:nb.uid x y
                        (interblock_mem_conflict ~base_sites (a, x) (b, y))
                    then add_edge a b Ddg.Mem None (mem_delay a b)
                | None, _ | _, None -> ())
              by_view_node.(vb))
          by_view_node.(va)
    done
  done;
  finalize tbl tally edges

let prune_transitive t =
  let n = Array.length t.nodes in
  let succs = Array.make n [] in
  List.iter (fun e -> succs.(e.src) <- e :: succs.(e.src)) t.edges;
  let implied e =
    List.exists
      (fun (ab : edge) ->
        ab.dst <> e.dst
        && List.exists
             (fun (bc : edge) ->
               bc.dst = e.dst
               && ab.delay + t.exec.(ab.dst) + bc.delay >= e.delay)
             succs.(ab.dst))
      succs.(e.src)
  in
  let keep = Hashtbl.create 256 in
  List.iter
    (fun e -> if not (implied e) then Hashtbl.replace keep (e.src, e.dst) e)
    t.edges;
  { t with edges = Hashtbl.fold (fun _ e acc -> e :: acc) keep [] }

let uids t = Array.map (fun nd -> nd.uid) t.nodes

let edges t =
  List.sort compare
    (List.map (fun e -> (e.src, e.dst, e.kind, e.reg, e.delay)) t.edges)
