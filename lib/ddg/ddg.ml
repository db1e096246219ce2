open Gis_util
open Gis_ir
open Gis_analysis

type dep_kind = Flow | Anti | Output | Mem

let pp_dep_kind ppf k =
  Fmt.string ppf
    (match k with Flow -> "flow" | Anti -> "anti" | Output -> "output" | Mem -> "mem")

type node = {
  idx : int;
  uid : int;
  instr : Instr.t option;
  view_node : int;
  pos : int;
  defs : Reg.Set.t;
  uses : Reg.Set.t;
}

type edge = {
  src : int;
  dst : int;
  kind : dep_kind;
  reg : Reg.t option;
  delay : int;
}

type t = {
  nodes : node array;
  succs : edge list array;
  preds : edge list array;
  exec : int array;
  of_uid : (int, int) Hashtbl.t;
  by_view_node : int list array;
  mem_access : Alias.access option array;
  tally : int array;  (** this build's disambiguation counts *)
}

(* Memory-disambiguation counts, one slot each, under their report
   keys: every conflict query, the Mem edges the refinements pruned
   (within and across blocks), and the Mem edges kept, by why the
   refinement fell back. Each build counts its own; a run sums its
   builds. *)
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

type tally = int array

let new_tally () = Array.make (List.length tally_keys) 0

let add_tally acc t =
  for i = 0 to Array.length acc - 1 do
    acc.(i) <- acc.(i) + t.tally.(i)
  done

let tally_pruned c = c.(pruned_intra) + c.(pruned_inter)

let tally_kept c =
  c.(fb_top) + c.(fb_origin) + c.(fb_overlap) + c.(fb_call) + c.(fb_off)

let tally_counts c =
  Gis_obs.Counts.counters
    (("alias.mem_edges_kept_total", tally_kept c)
    :: List.mapi (fun i k -> (k, c.(i))) tally_keys)

let mem_kept t = tally_kept t.tally
let mem_pruned t = tally_pruned t.tally

let num_nodes t = Array.length t.nodes
let exec_time t i = t.exec.(i)
let node t i = t.nodes.(i)
let nodes_of_view_node t v = t.by_view_node.(v)
let node_of_uid t u = Hashtbl.find_opt t.of_uid u
let succs t i = t.succs.(i)
let preds t i = t.preds.(i)
let num_edges t = Array.fold_left (fun acc l -> acc + List.length l) 0 t.succs

let iter_edges f t = Array.iter (List.iter f) t.succs

(* Does an inter-block pair of memory accesses conflict? Scan-local base
   versions mean nothing across blocks; instead two references share a
   base value when the base register's use has the same single reaching
   definition at both instructions (then every execution reads the same
   value there, whatever path it took). [base_sites] supplies those
   reaching definitions. *)
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

(* Decide whether a conflicting pair of accesses really needs its Mem
   edge. [conservative] is the verdict of the version/family (intra) or
   reaching-definition (inter) rule; when it says "ordered" and both
   sides are plain references, the symbolic-address pass gets the last
   word. Every decision is tallied in the graph's [tally], in the slot
   [pruned_slot] when pruned and in its fallback reason's when kept.
   Accesses of different memory families are disjoint outright; they
   count as pruned when the family-blind baseline rule would have kept
   an edge. *)
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

(* One ordered scan over the nodes of a single block, adding flow, anti,
   output and memory edges. Shared by the region builder and the
   single-block builder. [mem_conflict] answers whether an earlier
   memory node and the current one must stay ordered. *)
let intra_block_scan ~(nodes : node array) ~mem_access ~flow_delay ~mem_delay
    ~mem_conflict ~add_edge node_idxs =
  let last_def = Hashtbl.create 8 in   (* reg hash -> node idx *)
  let uses_since = Hashtbl.create 8 in (* reg hash -> node idx list *)
  let mem_before = ref [] in           (* earlier memory nodes, newest first *)
  List.iter
    (fun j ->
      let nd = nodes.(j) in
      Reg.Set.iter
        (fun r ->
          match Hashtbl.find_opt last_def (Reg.hash r) with
          | Some d -> add_edge d j Flow (Some r) (flow_delay d j r)
          | None -> ())
        nd.uses;
      Reg.Set.iter
        (fun r ->
          (match Hashtbl.find_opt last_def (Reg.hash r) with
          | Some d -> add_edge d j Output (Some r) 0
          | None -> ());
          List.iter
            (fun u -> add_edge u j Anti (Some r) 0)
            (Option.value ~default:[]
               (Hashtbl.find_opt uses_since (Reg.hash r))))
        nd.defs;
      (match mem_access.(j) with
      | Some _ ->
          List.iter
            (fun m ->
              if mem_conflict m j then add_edge m j Mem None (mem_delay m j))
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

let finalize ~nodes ~mem_access ~exec ~by_view_node ~tally edges =
  let n = Array.length nodes in
  let succs = Array.make n [] and preds = Array.make n [] in
  Hashtbl.iter
    (fun _ (e : edge) ->
      succs.(e.src) <- e :: succs.(e.src);
      preds.(e.dst) <- e :: preds.(e.dst))
    edges;
  let of_uid = Hashtbl.create (max 1 n) in
  Array.iter (fun nd -> Hashtbl.replace of_uid nd.uid nd.idx) nodes;
  { nodes; succs; preds; exec; of_uid; by_view_node; mem_access; tally }

(* The intra-block memory-conflict test both builders hand to the scan:
   version/family rule first, symbolic refinement second. *)
let intra_mem_conflict ~sym ~(nodes : node array)
    ~(mem_access : Alias.access option array) ~tally m j =
  match mem_access.(m), mem_access.(j) with
  | Some a, Some b ->
      decide_mem ~sym ~tally ~pruned_slot:pruned_intra
        ~ua:nodes.(m).uid ~ub:nodes.(j).uid a b (Alias.conflict a b)
  | None, _ | _, None -> false

(* Fault-injection hook for the differential fuzzer's self-test: when
   set, every memory dependence edge is silently dropped, so stores and
   loads reorder freely — the classic alias-analysis bug class. All
   edges funnel through [make_edge_table]'s [add_edge], so gating here
   covers both the region builder and the single-block builder. Never
   set outside tests. *)
let drop_mem_edges_for_testing = ref false
let cross_check_reach_for_testing = ref false

let make_edge_table () =
  let edges = Hashtbl.create 256 in
  let add_edge src dst kind reg delay =
    if src = dst || (!drop_mem_edges_for_testing && kind = Mem) then ()
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

(* The node table under construction: one entry per node, with its
   memory access and execution time at the same index. *)
type table = {
  t_nodes : node Vec.t;
  t_mem : Alias.access option Vec.t;
  t_exec : int Vec.t;
}

let new_table () =
  { t_nodes = Vec.create (); t_mem = Vec.create (); t_exec = Vec.create () }

let add_node tbl ~uid ~instr ~view_node ~pos ~defs ~uses ~mem ~exec =
  let idx = Vec.length tbl.t_nodes in
  Vec.push tbl.t_nodes { idx; uid; instr; view_node; pos; defs; uses };
  Vec.push tbl.t_mem mem;
  Vec.push tbl.t_exec exec;
  idx

(* One node per instruction of [blk], terminator last; returns their
   indices in program order. A memory access is versioned by the
   block-local definitions of its base register before it. Shared by
   the region builder and the single-block builder. *)
let add_block_nodes machine tbl ~view_node (blk : Block.t) =
  let versions = Hashtbl.create 8 in
  let version_of (r : Reg.t) =
    Option.value ~default:(-1) (Hashtbl.find_opt versions (Reg.hash r))
  in
  let idxs = ref [] and pos = ref 0 in
  let visit i =
    let mem = Alias.access_of_instr ~version_of i in
    let idx =
      add_node tbl ~uid:(Instr.uid i) ~instr:(Some i) ~view_node ~pos:!pos
        ~defs:(Reg.Set.of_list (Instr.defs i))
        ~uses:(Reg.Set.of_list (Instr.uses i))
        ~mem ~exec:(Gis_machine.Machine.exec_time machine i)
    in
    incr pos;
    List.iter
      (fun r -> Hashtbl.replace versions (Reg.hash r) (Instr.uid i))
      (Instr.defs i);
    idxs := idx :: !idxs
  in
  Vec.iter visit blk.Block.body;
  visit blk.Block.term;
  List.rev !idxs

let build_single_block ?sym machine (blk : Block.t) =
  let tbl = new_table () in
  let idxs = add_block_nodes machine tbl ~view_node:0 blk in
  let nodes = Vec.to_array tbl.t_nodes in
  let mem_access = Vec.to_array tbl.t_mem in
  let edges, add_edge = make_edge_table () in
  let tally = new_tally () in
  intra_block_scan ~nodes ~mem_access
    ~flow_delay:(flow_delay_fn machine nodes)
    ~mem_delay:(mem_delay_fn machine nodes)
    ~mem_conflict:(intra_mem_conflict ~sym ~nodes ~mem_access ~tally)
    ~add_edge idxs;
  finalize ~nodes ~mem_access ~exec:(Vec.to_array tbl.t_exec)
    ~by_view_node:[| idxs |] ~tally edges

let build ?sym ?reach cfg machine regions (view : Regions.view) =
  let loops_blocks c = Regions.summary_blocks regions ~loop_index:c in
  (* ---- 1. Node table ---- *)
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
              (loops_blocks c);
            [
              add_node tbl ~uid:(-c - 1) ~instr:None ~view_node:v ~pos:0
                ~defs:!defs ~uses:!uses
                ~mem:(if !mem then Some Alias.Call_ref else None)
                ~exec:1;
            ])
      view.Regions.nodes
  in
  let num_view_nodes = Array.length by_view_node in
  let nodes = Vec.to_array tbl.t_nodes in
  let mem_access = Vec.to_array tbl.t_mem in
  let exec = Vec.to_array tbl.t_exec in
  (* ---- 2. Edges ---- *)
  let edges, add_edge = make_edge_table () in
  let flow_delay = flow_delay_fn machine nodes in
  let mem_delay = mem_delay_fn machine nodes in
  let tally = new_tally () in
  (* Intra-block dependences: one ordered scan per view node. *)
  Array.iter
    (intra_block_scan ~nodes ~mem_access ~flow_delay ~mem_delay
       ~mem_conflict:(intra_mem_conflict ~sym ~nodes ~mem_access ~tally)
       ~add_edge)
    by_view_node;
  (* Inter-block dependences over reachable view-node pairs. Reaching
     definitions power the cross-block base-value proof; each access's
     base is queried on demand, once, when some pair first needs it. *)
  let reaching =
    lazy (match reach with Some q -> q | None -> Reaching.Query.create cfg)
  in
  let base_memo = Array.make (Array.length nodes) None in
  let base_sites idx =
    match
      ( base_memo.(idx),
        nodes.(idx).instr,
        mem_access.(idx),
        view.Regions.nodes.(nodes.(idx).view_node) )
    with
    | (Some _ as known), _, _, _ -> known
    | None, Some i, Some (Alias.Load_ref ri | Alias.Store_ref ri), Regions.Block block
      ->
        let ask q =
          Reaching.Query.defs_of_use q ~block ~uid:(Instr.uid i)
            ~reg:ri.Alias.base
        in
        let sites = ask (Lazy.force reaching) in
        if
          !cross_check_reach_for_testing
          && not
               (List.equal Reaching.equal_site sites
                  (ask (Reaching.Query.create cfg)))
        then failwith "Ddg.build: the shared reaching query is stale";
        base_memo.(idx) <- Some sites;
        Some sites
    | None, _, _, _ -> None
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
                      add_edge a b Flow (Some r) (flow_delay a b r);
                    if Reg.Set.mem r nb.defs then add_edge a b Output (Some r) 0)
                  na.defs;
                Reg.Set.iter
                  (fun r ->
                    if Reg.Set.mem r nb.defs then add_edge a b Anti (Some r) 0)
                  na.uses;
                match mem_access.(a), mem_access.(b) with
                | Some x, Some y ->
                    if
                      decide_mem ~sym ~tally ~pruned_slot:pruned_inter
                        ~ua:na.uid ~ub:nb.uid x y
                        (interblock_mem_conflict ~base_sites (a, x) (b, y))
                    then add_edge a b Mem None (mem_delay a b)
                | None, _ | _, None -> ())
              by_view_node.(vb))
          by_view_node.(va)
    done
  done;
  finalize ~nodes ~mem_access ~exec ~by_view_node ~tally edges

let prune_transitive t =
  let implied e =
    List.exists
      (fun (ab : edge) ->
        ab.dst <> e.dst
        && List.exists
             (fun (bc : edge) ->
               bc.dst = e.dst
               && ab.delay + t.exec.(ab.dst) + bc.delay >= e.delay)
             t.succs.(ab.dst))
      t.succs.(e.src)
  in
  let keep = Hashtbl.create 256 in
  Array.iter
    (List.iter (fun e -> if not (implied e) then Hashtbl.replace keep (e.src, e.dst) e))
    t.succs;
  let n = Array.length t.nodes in
  let succs = Array.make n [] and preds = Array.make n [] in
  Hashtbl.iter
    (fun _ (e : edge) ->
      succs.(e.src) <- e :: succs.(e.src);
      preds.(e.dst) <- e :: preds.(e.dst))
    keep;
  { t with succs; preds }

let is_acyclic t =
  let n = Array.length t.nodes in
  let color = Array.make n 0 in
  let rec go v =
    if color.(v) = 1 then false
    else if color.(v) = 2 then true
    else begin
      color.(v) <- 1;
      let ok = List.for_all (fun e -> go e.dst) t.succs.(v) in
      color.(v) <- 2;
      ok
    end
  in
  let rec all v = v >= n || (go v && all (v + 1)) in
  all 0

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  Array.iter
    (fun nd ->
      Fmt.pf ppf "%d (uid %d, view %d): %a@," nd.idx nd.uid nd.view_node
        Fmt.(option ~none:(any "<summary>") Instr.pp)
        nd.instr;
      List.iter
        (fun e ->
          Fmt.pf ppf "   -> %d [%a%a d=%d]@," e.dst pp_dep_kind e.kind
            Fmt.(option (fun ppf r -> pf ppf " %a" Reg.pp r))
            e.reg e.delay)
        t.succs.(nd.idx))
    t.nodes;
  Fmt.pf ppf "@]"
