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
  defs : Reg.t array;
  uses : Reg.t array;
}

type edge = {
  src : int;
  dst : int;
  kind : dep_kind;
  reg : Reg.t option;
  delay : int;
}

(* Edges are laid out once, flat: [by_src] holds every edge grouped by
   source, node [i]'s from [succ_off.(i)] up to [succ_off.(i + 1)];
   [by_dst] holds the same records grouped by destination. *)
type t = {
  nodes : node array;
  exec : int array;
  by_src : edge array;
  succ_off : int array;
  by_dst : edge array;
  pred_off : int array;
  of_uid : Ints.Int_table.t Lazy.t;  (** built on the first lookup *)
  by_view_node : int list array;
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

let node_of_uid t u =
  match Ints.Int_table.find (Lazy.force t.of_uid) u with -1 -> None | i -> Some i

let num_succs t i = t.succ_off.(i + 1) - t.succ_off.(i)
let succ t i k = t.by_src.(t.succ_off.(i) + k)
let num_preds t i = t.pred_off.(i + 1) - t.pred_off.(i)
let pred t i k = t.by_dst.(t.pred_off.(i) + k)
let num_edges t = Array.length t.by_src
let iter_edges f t = Array.iter f t.by_src

(* Does an inter-block pair of memory accesses conflict? Scan-local base
   versions mean nothing across blocks; instead two references share a
   base value when the base register's use has the same single reaching
   definition at both instructions (then every execution reads the same
   value there, whatever path it took). [base_sites] supplies those
   reaching definitions. *)
let interblock_mem_conflict ~base_sites a_idx a b_idx b =
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

(* A verdict, tallied in [slot]: [false] for no edge, [true] for one. *)
let pruned tally slot =
  bump tally slot;
  false

let kept tally slot =
  bump tally slot;
  true

let decide_mem ~sym ~tally ~pruned_slot ~ua ~ub a b conservative =
  bump tally queries;
  match a, b with
  | Alias.Load_ref _, Alias.Load_ref _ -> false
  | Alias.Call_ref, _ | _, Alias.Call_ref ->
      if conservative then kept tally fb_call else false
  | ( (Alias.Load_ref x | Alias.Store_ref x),
      (Alias.Load_ref y | Alias.Store_ref y) ) -> (
      if x.Alias.family <> y.Alias.family then
        if Alias.baseline_conflict a b then pruned tally pruned_slot else false
      else if not conservative then false
      else
        match sym with
        | None -> kept tally fb_off
        | Some sym -> (
            match Symaddr.delta sym ~a:ua ~b:ub with
            | Some d ->
                let shifted = { y with Alias.offset = y.Alias.offset + d } in
                if Alias.ranges_disjoint x shifted then pruned tally pruned_slot
                else kept tally fb_overlap
            | None ->
                kept tally
                  (match
                     ( Symaddr.base_value sym ua,
                       Symaddr.base_value sym ub )
                   with
                  | Symaddr.Top, _ | _, Symaddr.Top -> fb_top
                  | (Symaddr.Const _ | Symaddr.Sym _), _ -> fb_origin)))

let is_load = function
  | Some (Alias.Load_ref _) -> true
  | Some (Alias.Store_ref _ | Alias.Call_ref) | None -> false

(* Fault-injection hook for the differential fuzzer's self-test: when
   set, every memory dependence edge is silently dropped, so stores and
   loads reorder freely — the classic alias-analysis bug class. All
   edges funnel through [add_mem], so gating here covers both the
   region builder and the single-block builder. Never set outside
   tests. *)
let drop_mem_edges_for_testing = ref false
let cross_check_reach_for_testing = ref false

(* ---- The node table ---- *)

(* A register list as an array in [Reg.compare] order without repeats:
   the order in which the dependence rules visit a node's registers. *)
let reg_array = function
  | [] -> [||]
  | [ r ] -> [| r |]
  | [ a; b ] ->
      let c = Reg.compare a b in
      if c = 0 then [| a |] else if c < 0 then [| a; b |] else [| b; a |]
  | l -> Array.of_list (List.sort_uniq Reg.compare l)

(* Is [r] among [rs] from index [k] on? *)
let rec has_reg r (rs : Reg.t array) k =
  k < Array.length rs && (Reg.equal rs.(k) r || has_reg r rs (k + 1))

(* The node table under construction, sized up front: one entry per
   node with its execution time and memory access at the same index.
   Registers are numbered densely by first mention ([Reg.hash] to
   number), so the scans below index arrays by register instead of
   hashing sets. *)
type table = {
  t_nodes : node array;
  t_exec : int array;
  t_mem : Alias.access option array;
      (** preset for loop summaries; the block scan fills instructions' *)
  mutable next : int;
  reg_num : Ints.Int_table.t;
  mutable num_regs : int;
  mutable num_uses : int;  (** use occurrences, over all nodes *)
}

let no_node =
  { idx = -1; uid = -1; instr = None; view_node = -1; pos = -1; defs = [||]; uses = [||] }

let new_table n =
  {
    t_nodes = Array.make n no_node;
    t_exec = Array.make n 0;
    t_mem = Array.make n None;
    next = 0;
    reg_num = Ints.Int_table.create (2 * n);
    num_regs = 0;
    num_uses = 0;
  }

let number tbl r =
  let h = Reg.hash r in
  match Ints.Int_table.find tbl.reg_num h with
  | -1 ->
      let x = tbl.num_regs in
      Ints.Int_table.replace tbl.reg_num h x;
      tbl.num_regs <- x + 1;
      x
  | x -> x

let reg_index tbl r = Ints.Int_table.find tbl.reg_num (Reg.hash r)

let add_node tbl ~uid ~instr ~view_node ~pos ~defs ~uses ~mem ~exec =
  let idx = tbl.next in
  for k = 0 to Array.length defs - 1 do
    ignore (number tbl defs.(k))
  done;
  for k = 0 to Array.length uses - 1 do
    ignore (number tbl uses.(k))
  done;
  tbl.num_uses <- tbl.num_uses + Array.length uses;
  tbl.t_nodes.(idx) <- { idx; uid; instr; view_node; pos; defs; uses };
  tbl.t_exec.(idx) <- exec;
  tbl.t_mem.(idx) <- mem;
  tbl.next <- idx + 1;
  idx

(* One node per instruction of [blk], terminator last; returns their
   indices in program order. Shared by the region builder and the
   single-block builder. *)
let add_block_nodes machine tbl ~view_node (blk : Block.t) =
  let first = tbl.next in
  let visit pos i =
    ignore
      (add_node tbl ~uid:(Instr.uid i) ~instr:(Some i) ~view_node ~pos
         ~defs:(reg_array (Instr.defs i)) ~uses:(reg_array (Instr.uses i))
         ~mem:None ~exec:(Gis_machine.Machine.exec_time machine i))
  in
  Vec.iteri visit blk.Block.body;
  visit (Vec.length blk.Block.body) blk.Block.term;
  List.init (tbl.next - first) (fun k -> first + k)

(* ---- Edge dedupe ---- *)

(* Every candidate edge of one (src, dst) pair arrives in one burst: the
   block scan adds all of a node's incoming edges while it visits that
   node, and the cross-block pass adds each pair's at once. So a burst
   stamp per source finds the pair's edge so far, and a candidate
   replaces it only with a strictly longer delay: the first candidate of
   the longest delay survives. *)
type edges = {
  buf : edge Vec.t;
  stamp : int array;  (** per source: the burst its [slot] was set in *)
  slot : int array;  (** per source: its edge of this burst, in [buf] *)
  mutable burst : int;
}

let new_edges n =
  { buf = Vec.create (); stamp = Array.make n (-1); slot = Array.make n 0; burst = 0 }

let next_burst es = es.burst <- es.burst + 1

let wins es src dst delay =
  src <> dst
  && (es.stamp.(src) <> es.burst || (Vec.get es.buf es.slot.(src)).delay < delay)

let store es src dst kind reg delay =
  let e = { src; dst; kind; reg; delay } in
  if es.stamp.(src) = es.burst then Vec.set es.buf es.slot.(src) e
  else begin
    es.stamp.(src) <- es.burst;
    es.slot.(src) <- Vec.length es.buf;
    Vec.push es.buf e
  end

let add_reg es src dst kind r delay =
  if wins es src dst delay then store es src dst kind (Some r) delay

let add_mem es src dst delay =
  if (not !drop_mem_edges_for_testing) && wins es src dst delay then
    store es src dst Mem None delay

(* A counting sort into [n] buckets: [each f] calls [f k x] for every
   entry [x] of bucket [k], the same way twice. Bucket [k]'s entries,
   in call order, are [at] from [off.(k)] up to [off.(k + 1)]. *)
let buckets n ~empty each =
  let off = Array.make (n + 1) 0 in
  each (fun k _ -> off.(k + 1) <- off.(k + 1) + 1);
  for k = 1 to n do
    off.(k) <- off.(k) + off.(k - 1)
  done;
  let at = Array.make off.(n) empty and fill = Array.sub off 0 n in
  each (fun k x ->
      at.(fill.(k)) <- x;
      fill.(k) <- fill.(k) + 1);
  (off, at)

let no_edge = { src = -1; dst = -1; kind = Mem; reg = None; delay = 0 }

let with_edges t edges =
  let n = Array.length t.nodes in
  let succ_off, by_src =
    buckets n ~empty:no_edge (fun f -> Array.iter (fun e -> f e.src e) edges)
  in
  let pred_off, by_dst =
    buckets n ~empty:no_edge (fun f -> Array.iter (fun e -> f e.dst e) edges)
  in
  { t with by_src; succ_off; by_dst; pred_off }

let finalize ~nodes ~exec ~by_view_node ~tally es =
  let of_uid =
    lazy
      (let tbl = Ints.Int_table.create (Array.length nodes) in
       Array.iter
         (fun nd -> if nd.uid >= 0 then Ints.Int_table.replace tbl nd.uid nd.idx)
         nodes;
       tbl)
  in
  with_edges
    {
      nodes;
      exec;
      by_src = [||];
      succ_off = [||];
      by_dst = [||];
      pred_off = [||];
      of_uid;
      by_view_node;
      tally;
    }
    (Vec.to_array es.buf)

let flow_delay machine (nodes : node array) a b r =
  match nodes.(a).instr, nodes.(b).instr with
  | Some p, Some c ->
      Gis_machine.Machine.delay machine ~producer:p ~consumer:c ~reg:r
  | None, _ | _, None -> 0

let mem_delay machine (nodes : node array) a b =
  match nodes.(a).instr, nodes.(b).instr with
  | Some p, Some c -> Gis_machine.Machine.mem_delay machine ~producer:p ~consumer:c
  | None, _ | _, None -> 0

(* ---- Intra-block dependences ---- *)

(* One ordered scan per block, adding flow, anti, output and memory
   edges into each node as it is visited. Per register number: the
   block's last definition and the uses since it, valid while [seen]
   holds the block's epoch; the uses form linked lists through
   [use_node]/[use_next]. The scan also fixes each instruction's memory
   access, whose base is versioned by the last in-block definition
   before it. Shared by the region builder and the single-block
   builder. *)
let intra_scan ~sym ~machine ~tally ~(nodes : node array) ~mem_access es
    tbl by_view_node =
  let nr = tbl.num_regs in
  let seen = Array.make nr (-1) in
  let last_def = Array.make nr (-1) in
  let use_head = Array.make nr (-1) in
  let use_node = Array.make tbl.num_uses 0 in
  let use_next = Array.make tbl.num_uses 0 in
  let mem_before = Array.make (Array.length nodes) 0 in
  let epoch = ref 0 in
  let fresh x =
    if seen.(x) <> !epoch then begin
      seen.(x) <- !epoch;
      last_def.(x) <- -1;
      use_head.(x) <- -1
    end
  in
  let version_of r =
    let x = reg_index tbl r in
    if seen.(x) = !epoch && last_def.(x) >= 0 then nodes.(last_def.(x)).uid
    else -1
  in
  let visit_block block_nodes =
    incr epoch;
    let num_mem = ref 0 and num_use = ref 0 in
    List.iter
      (fun j ->
        let nd = nodes.(j) in
        (match nd.instr with
        | Some i -> mem_access.(j) <- Alias.access_of_instr ~version_of i
        | None -> ());
        next_burst es;
        for k = 0 to Array.length nd.uses - 1 do
          let r = nd.uses.(k) in
          let x = reg_index tbl r in
          fresh x;
          let d = last_def.(x) in
          if d >= 0 then add_reg es d j Flow r (flow_delay machine nodes d j r)
        done;
        for k = 0 to Array.length nd.defs - 1 do
          let r = nd.defs.(k) in
          let x = reg_index tbl r in
          fresh x;
          if last_def.(x) >= 0 then add_reg es last_def.(x) j Output r 0;
          let e = ref use_head.(x) in
          while !e >= 0 do
            add_reg es use_node.(!e) j Anti r 0;
            e := use_next.(!e)
          done
        done;
        (match mem_access.(j) with
        | Some b ->
            for k = !num_mem - 1 downto 0 do
              let m = mem_before.(k) in
              match mem_access.(m) with
              | Some a ->
                  if
                    decide_mem ~sym ~tally ~pruned_slot:pruned_intra
                      ~ua:nodes.(m).uid ~ub:nd.uid a b (Alias.conflict a b)
                  then add_mem es m j (mem_delay machine nodes m j)
              | None -> ()
            done;
            mem_before.(!num_mem) <- j;
            incr num_mem
        | None -> ());
        for k = 0 to Array.length nd.defs - 1 do
          let x = reg_index tbl nd.defs.(k) in
          last_def.(x) <- j;
          use_head.(x) <- -1
        done;
        for k = 0 to Array.length nd.uses - 1 do
          let x = reg_index tbl nd.uses.(k) in
          use_node.(!num_use) <- j;
          use_next.(!num_use) <- use_head.(x);
          use_head.(x) <- !num_use;
          incr num_use
        done)
      block_nodes
  in
  Array.iter visit_block by_view_node

let build_single_block ?sym machine (blk : Block.t) =
  let tbl = new_table (Block.instr_count blk) in
  let idxs = add_block_nodes machine tbl ~view_node:0 blk in
  let nodes = tbl.t_nodes and mem_access = tbl.t_mem in
  let es = new_edges (Array.length nodes) in
  let tally = new_tally () in
  let by_view_node = [| idxs |] in
  intra_scan ~sym ~machine ~tally ~nodes ~mem_access es tbl by_view_node;
  finalize ~nodes ~exec:tbl.t_exec ~by_view_node ~tally es

(* ---- Region graphs ---- *)

let build ?sym ?reach cfg machine regions (view : Regions.view) =
  let loops_blocks c = Regions.summary_blocks regions ~loop_index:c in
  (* ---- 1. Node table ---- *)
  let tbl =
    new_table
      (Array.fold_left
         (fun acc -> function
           | Regions.Block b -> acc + Block.instr_count (Cfg.block cfg b)
           | Regions.Inner_loop _ -> acc + 1)
         0 view.Regions.nodes)
  in
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
            let set s = Array.of_list (Reg.Set.elements s) in
            [
              add_node tbl ~uid:(-c - 1) ~instr:None ~view_node:v ~pos:0
                ~defs:(set !defs) ~uses:(set !uses)
                ~mem:(if !mem then Some Alias.Call_ref else None)
                ~exec:1;
            ])
      view.Regions.nodes
  in
  let num_view_nodes = Array.length by_view_node in
  let nodes = tbl.t_nodes and mem_access = tbl.t_mem and exec = tbl.t_exec in
  let n = Array.length nodes in
  (* ---- 2. Edges ---- *)
  let es = new_edges n in
  let tally = new_tally () in
  (* Intra-block dependences: one ordered scan per view node. *)
  intra_scan ~sym ~machine ~tally ~nodes ~mem_access es tbl by_view_node;
  (* Inter-block dependences over reachable view-node pairs. Reaching
     definitions power the cross-block base-value proof; each access's
     base is queried on demand, once, when some pair first needs it. *)
  let reaching =
    lazy (match reach with Some q -> q | None -> Reaching.Query.create cfg)
  in
  let base_memo = Array.make n None in
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
  (* One pair's candidates, in the per-pair rule order that decides
     which kind, register and delay survive the dedupe: [a]'s defs in
     [Reg.compare] order give flow, then output; [a]'s uses give anti;
     then memory. Two loads never conflict; their queries are counted
     in bulk below. *)
  let pair a b =
    next_burst es;
    let na = nodes.(a) and nb = nodes.(b) in
    for k = 0 to Array.length na.defs - 1 do
      let r = na.defs.(k) in
      if has_reg r nb.uses 0 then add_reg es a b Flow r (flow_delay machine nodes a b r);
      if has_reg r nb.defs 0 then add_reg es a b Output r 0
    done;
    for k = 0 to Array.length na.uses - 1 do
      let r = na.uses.(k) in
      if has_reg r nb.defs 0 then add_reg es a b Anti r 0
    done;
    match mem_access.(a), mem_access.(b) with
    | Some (Alias.Load_ref _), Some (Alias.Load_ref _) -> ()
    | Some x, Some y ->
        if
          decide_mem ~sym ~tally ~pruned_slot:pruned_inter ~ua:na.uid
            ~ub:nb.uid x y
            (interblock_mem_conflict ~base_sites a x b y)
        then add_mem es a b (mem_delay machine nodes a b)
    | None, _ | _, None -> ()
  in
  (* Only pairs that can carry an edge are visited: those sharing a
     register one of them defines, found through per-register
     occurrence lists, and those of two memory accesses, at least one
     not a load. *)
  let reach = Flow.reachable_rows view.Regions.flow in
  (* The nodes, in index order, that define or use each register
     number, and the memory accesses and the non-load ones among them of
     each view node. *)
  let by_reg regs =
    buckets tbl.num_regs ~empty:0 (fun f ->
        Array.iter
          (fun nd -> Array.iter (fun r -> f (reg_index tbl r) nd.idx) (regs nd))
          nodes)
  in
  let def_off, def_at = by_reg (fun nd -> nd.defs) in
  let use_off, use_at = by_reg (fun nd -> nd.uses) in
  let by_view keep =
    buckets num_view_nodes ~empty:0 (fun f ->
        Array.iter
          (fun nd -> if keep mem_access.(nd.idx) then f nd.view_node nd.idx)
          nodes)
  in
  let mem_off, mem_at = by_view Option.is_some in
  let wr_off, wr_at = by_view (fun m -> Option.is_some m && not (is_load m)) in
  (* [a]'s partners so far, each once: [partner_of.(b) = a]. *)
  let partner_of = Array.make n (-1) in
  let partners = Array.make n 0 in
  let num_partners = ref 0 in
  let meet_all a off at x =
    let va = nodes.(a).view_node in
    for k = off.(x) to off.(x + 1) - 1 do
      let b = at.(k) in
      let vb = nodes.(b).view_node in
      if vb <> va && Bitset.mem reach.(va) vb && partner_of.(b) <> a then begin
        partner_of.(b) <- a;
        partners.(!num_partners) <- b;
        incr num_partners
      end
    done
  in
  for a = 0 to n - 1 do
    let na = nodes.(a) in
    let va = na.view_node in
    num_partners := 0;
    for k = 0 to Array.length na.defs - 1 do
      let x = reg_index tbl na.defs.(k) in
      meet_all a use_off use_at x;
      meet_all a def_off def_at x
    done;
    for k = 0 to Array.length na.uses - 1 do
      meet_all a def_off def_at (reg_index tbl na.uses.(k))
    done;
    if Option.is_some mem_access.(a) then begin
      let a_load = is_load mem_access.(a) in
      for vb = 0 to num_view_nodes - 1 do
        if vb <> va && Bitset.mem reach.(va) vb then
          if a_load then begin
            let all = mem_off.(vb + 1) - mem_off.(vb)
            and writes = wr_off.(vb + 1) - wr_off.(vb) in
            tally.(queries) <- tally.(queries) + all - writes;
            meet_all a wr_off wr_at vb
          end
          else meet_all a mem_off mem_at vb
      done
    end;
    for k = 0 to !num_partners - 1 do
      pair a partners.(k)
    done
  done;
  finalize ~nodes ~exec ~by_view_node ~tally es

(* An edge [a -> c] is implied when some 2-path [a -> b -> c] enforces
   at least as strong a timing constraint. [via.(c)] is the strongest
   such path from the current source, valid while [stamp.(c)] holds it. *)
let prune_transitive t =
  let n = Array.length t.nodes in
  let stamp = Array.make n (-1) and via = Array.make n 0 in
  let kept = Vec.create () in
  for a = 0 to n - 1 do
    for k = t.succ_off.(a) to t.succ_off.(a + 1) - 1 do
      let ab = t.by_src.(k) in
      let b = ab.dst in
      let base = ab.delay + t.exec.(b) in
      for l = t.succ_off.(b) to t.succ_off.(b + 1) - 1 do
        let bc = t.by_src.(l) in
        let c = bc.dst in
        let w = base + bc.delay in
        if stamp.(c) <> a then begin
          stamp.(c) <- a;
          via.(c) <- w
        end
        else if w > via.(c) then via.(c) <- w
      done
    done;
    for k = t.succ_off.(a) to t.succ_off.(a + 1) - 1 do
      let e = t.by_src.(k) in
      if not (stamp.(e.dst) = a && via.(e.dst) >= e.delay) then Vec.push kept e
    done
  done;
  with_edges t (Vec.to_array kept)

let is_acyclic t =
  let n = Array.length t.nodes in
  let color = Array.make n 0 in
  let rec go v =
    if color.(v) = 1 then false
    else if color.(v) = 2 then true
    else begin
      color.(v) <- 1;
      let rec succs k = k >= t.succ_off.(v + 1) || (go t.by_src.(k).dst && succs (k + 1)) in
      let ok = succs t.succ_off.(v) in
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
      for k = t.succ_off.(nd.idx) to t.succ_off.(nd.idx + 1) - 1 do
        let e = t.by_src.(k) in
        Fmt.pf ppf "   -> %d [%a%a d=%d]@," e.dst pp_dep_kind e.kind
          Fmt.(option (fun ppf r -> pf ppf " %a" Reg.pp r))
          e.reg e.delay
      done)
    t.nodes;
  Fmt.pf ppf "@]"
