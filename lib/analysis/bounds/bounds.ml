open Gis_ir
module Deps = Gis_check.Deps
module Regions = Gis_analysis.Regions
module Machine = Gis_machine.Machine
module Trace = Gis_obs.Trace
module Json = Gis_obs.Json

(* Everything here is derived from the checker's independently
   reconstructed dependence graph, never the scheduler's DDG: a bound
   computed from the data structure under test would inherit its bugs.

   Two kinds of numbers come out, with different contracts:

   - Static per-region numbers (Estart/Lstart/slack, cp and resource
     bounds on ONE pass through the region) are reports: they describe
     the dependence structure of the final code.

   - The dynamic lower bound is a soundness claim against the
     simulator: the machine issues in order, so within one execution
     of a block the issue-cycle gaps the simulator attributes to that
     block telescope to at least the block's longest weighted
     dependence chain. Summing entries(b) * chain_lb(b) therefore
     never exceeds the gap cycles charged to the block's executions,
     and the run's own per-unit issue counts bound the span from below
     by ceil(issues/width) - 1. Both claims are machine-model facts
     (the interlock rule and per-cycle unit slots), not heuristics. *)

type credit = { category : string; cycles : int }

type instr_bound = {
  uid : int;
  block : Label.t;
  estart : int;
  lstart : int;
  slack : int;
}

type binding_edge = {
  e_src : int;
  e_dst : int;
  e_kind : Deps.kind;
  e_weight : int;
  e_rank : int;
}

type region_bound = {
  region_id : int;
  header : Label.t;
  nesting : int;
  blocks : Label.t list;
  instr_count : int;
  static_cp_lb : int;
  static_res_lb : int;
  instrs : instr_bound list;
  binding : binding_edge list;
  entries : int;
  achieved : int;
  chain_lb : int;
  gap : int;
  credits : credit list;
}

type t = {
  achieved : int;
  cp_lb : int;
  res_lb : int;
  lower_bound : int;
  gap : int;
  credits : credit list;
  regions : region_bound list;
  partial : bool;
}

let ceil_div a b = if b <= 0 then 0 else (a + b - 1) / b

(* Largest-remainder apportionment of [total] across the stall
   categories in proportion to [weights] — integer credits that sum
   back to [total] exactly (the scheme Provenance.attribute uses for
   the motion-kind credits). *)
let apportion total weights =
  let wsum = List.fold_left (fun acc (_, w) -> acc + w) 0 weights in
  if total = 0 then List.map (fun (c, _) -> { category = c; cycles = 0 }) weights
  else if wsum <= 0 || total < 0 then
    (* Nothing to be proportional to (or an unsound negative gap the
       identity check will flag): keep the sum exact by charging the
       first category. *)
    List.mapi
      (fun i (c, _) -> { category = c; cycles = (if i = 0 then total else 0) })
      weights
  else begin
    let base =
      List.map (fun (c, w) -> (c, total * w / wsum, total * w mod wsum)) weights
    in
    let used = List.fold_left (fun acc (_, b, _) -> acc + b) 0 base in
    let order =
      List.mapi (fun i (_, _, r) -> (i, r)) base
      |> List.sort (fun (i, r) (j, r') ->
             match Int.compare r' r with 0 -> Int.compare i j | c -> c)
    in
    let bonus = Array.make (List.length base) 0 in
    List.iteri (fun k (i, _) -> if k < total - used then bonus.(i) <- 1) order;
    List.mapi (fun i (c, b, _) -> { category = c; cycles = b + bonus.(i) }) base
  end

let credit_total = List.fold_left (fun acc c -> acc + c.cycles) 0

(* ------------------------------------------------------------------ *)
(* Dependence edge weights in issue-to-issue cycles.                   *)
(* ------------------------------------------------------------------ *)

(* The simulator's interlock rule: a consumer issues no earlier than
   issue(producer) + exec(producer) + delay(producer, consumer, reg). *)
let flow_weight machine ~src ~dst ~reg =
  Machine.exec_time machine src
  + Machine.delay machine ~producer:src ~consumer:dst ~reg

(* A memory edge's dynamically guaranteed weight. The simulator tracks
   only the LAST store (and last call) issued before a memory-touching
   consumer, so a store->X edge may only claim the smallest mem_delay
   over the stores between its endpoints — whichever of them is last
   at run time, in-order issue still puts it no earlier than the
   edge's source. *)
let mem_chain_weight machine ~instr_at ~src_pos ~dst_pos ~dst =
  let src = instr_at src_pos in
  let family =
    if Instr.is_store src then Some Instr.is_store
    else if Instr.is_call src then Some Instr.is_call
    else None
  in
  match family with
  | None -> 0
  | Some same ->
      let w = ref max_int in
      for p = src_pos to dst_pos - 1 do
        let i = instr_at p in
        if same i then
          w := min !w (Machine.mem_delay machine ~producer:i ~consumer:dst)
      done;
      if !w = max_int then 0 else !w

(* Static (one-pass report) weight: the edge taken at face value.
   Anti/output edges order issue but carry no interlock delay. *)
let static_weight machine (d : Deps.dep) ~src ~dst =
  match d.Deps.d_kind with
  | Deps.Flow -> (
      match d.Deps.d_reg with
      | Some reg -> flow_weight machine ~src ~dst ~reg
      | None -> 0)
  | Deps.Mem -> Machine.mem_delay machine ~producer:src ~consumer:dst
  | Deps.Anti | Deps.Output -> 0

(* ------------------------------------------------------------------ *)
(* Indexing the final CFG.                                             *)
(* ------------------------------------------------------------------ *)

type site = { s_block : int; s_pos : int; s_instr : Instr.t }

let index_cfg cfg =
  let sites = Hashtbl.create 64 in
  let block_instrs = Hashtbl.create 16 in
  List.iter
    (fun bid ->
      let b = Cfg.block cfg bid in
      let arr =
        Array.init
          (Gis_util.Vec.length b.Block.body + 1)
          (fun p ->
            if p < Gis_util.Vec.length b.Block.body then
              Gis_util.Vec.get b.Block.body p
            else b.Block.term)
      in
      Array.iteri
        (fun p i ->
          Hashtbl.replace sites (Instr.uid i)
            { s_block = bid; s_pos = p; s_instr = i })
        arr;
      Hashtbl.replace block_instrs bid arr)
    (Cfg.layout cfg);
  (sites, block_instrs)

(* ------------------------------------------------------------------ *)
(* Per-block dynamic chains.                                           *)
(* ------------------------------------------------------------------ *)

(* Longest dynamically-enforced dependence chain of each block, as an
   issue-cycle offset from the block's first issue. In-order issue
   makes issue cycles monotone in position, so the DP folds a running
   prefix maximum into each node's incoming weighted edges;
   order-only edges add nothing beyond the prefix. *)
let block_chains machine cfg deps sites block_instrs =
  let per_block_edges : (int, (int * int * int) list) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (d : Deps.dep) ->
      match
        (Hashtbl.find_opt sites d.Deps.d_src, Hashtbl.find_opt sites d.Deps.d_dst)
      with
      | Some s, Some t when s.s_block = t.s_block && s.s_pos < t.s_pos ->
          let instr_at p = (Hashtbl.find block_instrs s.s_block).(p) in
          let w =
            match d.Deps.d_kind with
            | Deps.Flow -> (
                match d.Deps.d_reg with
                | Some reg ->
                    flow_weight machine ~src:s.s_instr ~dst:t.s_instr ~reg
                | None -> 0)
            | Deps.Mem ->
                mem_chain_weight machine ~instr_at ~src_pos:s.s_pos
                  ~dst_pos:t.s_pos ~dst:t.s_instr
            | Deps.Anti | Deps.Output -> 0
          in
          if w > 0 then
            Hashtbl.replace per_block_edges s.s_block
              ((s.s_pos, t.s_pos, w)
              :: Option.value ~default:[]
                   (Hashtbl.find_opt per_block_edges s.s_block))
      | _ -> ())
    deps;
  let chains = Hashtbl.create 16 in
  List.iter
    (fun bid ->
      let n = Array.length (Hashtbl.find block_instrs bid) in
      let offset = Array.make n 0 in
      let edges =
        List.sort
          (fun (_, d, _) (_, d', _) -> Int.compare d d')
          (Option.value ~default:[] (Hashtbl.find_opt per_block_edges bid))
      in
      let rest = ref edges in
      let running = ref 0 in
      for p = 0 to n - 1 do
        offset.(p) <- !running;
        let rec take () =
          match !rest with
          | (s, d, w) :: tl when d = p ->
              offset.(p) <- max offset.(p) (offset.(s) + w);
              rest := tl;
              take ()
          | _ -> ()
        in
        take ();
        running := max !running offset.(p)
      done;
      Hashtbl.replace chains bid !running)
    (Cfg.layout cfg);
  chains

(* ------------------------------------------------------------------ *)
(* Static per-region Estart/Lstart over the dependence DAG.            *)
(* ------------------------------------------------------------------ *)

let region_static ~top_k machine cfg sites block_instrs deps
    (r : Regions.region) =
  let in_region uid =
    match Hashtbl.find_opt sites uid with
    | Some s -> Gis_util.Ints.Int_set.mem s.s_block r.Regions.own_blocks
    | None -> false
  in
  let uids =
    Gis_util.Ints.Int_set.fold
      (fun bid acc ->
        Array.fold_left
          (fun acc i -> Instr.uid i :: acc)
          acc
          (Hashtbl.find block_instrs bid))
      r.Regions.own_blocks []
    |> List.sort Int.compare
  in
  let n = List.length uids in
  let uid_arr = Array.of_list uids in
  let idx = Hashtbl.create 32 in
  Array.iteri (fun k uid -> Hashtbl.replace idx uid k) uid_arr;
  let edges =
    List.filter_map
      (fun (d : Deps.dep) ->
        if in_region d.Deps.d_src && in_region d.Deps.d_dst then
          let src = (Hashtbl.find sites d.Deps.d_src).s_instr in
          let dst = (Hashtbl.find sites d.Deps.d_dst).s_instr in
          Some (d, static_weight machine d ~src ~dst)
        else None)
      deps
  in
  (* Kahn order over the region's dependence DAG (dependences respect
     the back-edge-masked forward view, so it is acyclic). *)
  let succs = Array.make (max n 1) [] in
  let indeg = Array.make (max n 1) 0 in
  List.iter
    (fun ((d : Deps.dep), w) ->
      let s = Hashtbl.find idx d.Deps.d_src
      and t = Hashtbl.find idx d.Deps.d_dst in
      succs.(s) <- (t, w) :: succs.(s);
      indeg.(t) <- indeg.(t) + 1)
    edges;
  let estart = Array.make (max n 1) 0 in
  let order = ref [] in
  let q = Queue.create () in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then Queue.add i q
  done;
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    order := i :: !order;
    List.iter
      (fun (t, w) ->
        estart.(t) <- max estart.(t) (estart.(i) + w);
        indeg.(t) <- indeg.(t) - 1;
        if indeg.(t) = 0 then Queue.add t q)
      succs.(i)
  done;
  let tail = Array.make (max n 1) 0 in
  List.iter
    (fun i ->
      List.iter (fun (t, w) -> tail.(i) <- max tail.(i) (w + tail.(t))) succs.(i))
    !order;
  let cp = ref 0 in
  for i = 0 to n - 1 do
    cp := max !cp (estart.(i) + tail.(i))
  done;
  let counts = Hashtbl.create 3 in
  Array.iter
    (fun uid ->
      let ut = Instr.unit_ty (Hashtbl.find sites uid).s_instr in
      Hashtbl.replace counts ut
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts ut)))
    uid_arr;
  let res_lb =
    max 0
      (Hashtbl.fold
         (fun ut c acc -> max acc (ceil_div c (Machine.units machine ut) - 1))
         counts 0)
  in
  let instrs =
    List.init n (fun k ->
        let uid = uid_arr.(k) in
        let s = Hashtbl.find sites uid in
        {
          uid;
          block = (Cfg.block cfg s.s_block).Block.label;
          estart = estart.(k);
          lstart = !cp - tail.(k);
          slack = !cp - tail.(k) - estart.(k);
        })
  in
  let binding =
    List.map
      (fun ((d : Deps.dep), w) ->
        let s = Hashtbl.find idx d.Deps.d_src
        and t = Hashtbl.find idx d.Deps.d_dst in
        {
          e_src = d.Deps.d_src;
          e_dst = d.Deps.d_dst;
          e_kind = d.Deps.d_kind;
          e_weight = w;
          e_rank = estart.(s) + w + tail.(t);
        })
      edges
    |> List.sort (fun a b ->
           match Int.compare b.e_rank a.e_rank with
           | 0 -> (
               match Int.compare b.e_weight a.e_weight with
               | 0 -> (
                   match Int.compare a.e_src b.e_src with
                   | 0 -> Int.compare a.e_dst b.e_dst
                   | c -> c)
               | c -> c)
           | c -> c)
    |> List.filteri (fun k _ -> k < top_k)
  in
  (!cp, res_lb, instrs, binding)

(* ------------------------------------------------------------------ *)

let compute ?(top_k = 5) ?(disambig = true) ~machine ~halted cfg
    (summary : Trace.summary) =
  let program = Deps.of_cfg ~disambig cfg in
  let deps = Deps.reconstruct program in
  let sites, block_instrs = index_cfg cfg in
  let chains = block_chains machine cfg deps sites block_instrs in
  let label_of bid = (Cfg.block cfg bid).Block.label in
  let entries_of =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (b : Trace.block_stat) ->
        Hashtbl.replace tbl b.Trace.block (b.Trace.entries, b.Trace.stall_cycles))
      summary.Trace.blocks;
    fun label -> Option.value ~default:(0, 0) (Hashtbl.find_opt tbl label)
  in
  let weights =
    [
      ("interlock", summary.Trace.interlock_cycles);
      ("mem_interlock", summary.Trace.mem_interlock_cycles);
      ("call_interlock", summary.Trace.call_interlock_cycles);
      ("unit_busy", Trace.unit_busy_total summary);
    ]
  in
  let rstruct = Regions.compute cfg in
  let regions =
    List.map
      (fun (r : Regions.region) ->
        let static_cp_lb, static_res_lb, instrs, binding =
          region_static ~top_k machine cfg sites block_instrs deps r
        in
        let blocks =
          Gis_util.Ints.Int_set.fold
            (fun bid acc -> bid :: acc)
            r.Regions.own_blocks []
          |> List.sort Int.compare |> List.map label_of
        in
        let entries, achieved, chain, max_entered_chain =
          Gis_util.Ints.Int_set.fold
            (fun bid (en, ach, ch, mx) ->
              let e, s = entries_of (label_of bid) in
              let c = Option.value ~default:0 (Hashtbl.find_opt chains bid) in
              (en + e, ach + s, ch + (e * c), if e > 0 then max mx c else mx))
            r.Regions.own_blocks (0, 0, 0, 0)
        in
        (* A run that did not halt left (at most) one block execution
           incomplete; that block's region must concede one full
           chain. The partial block is unknown here, so every region
           concedes its own worst entered chain — sound, and a no-op
           for the overwhelmingly common halted case. *)
        let chain = if halted then chain else max 0 (chain - max_entered_chain) in
        let gap = achieved - chain in
        {
          region_id = r.Regions.id;
          header = label_of r.Regions.entry_block;
          nesting = r.Regions.nesting;
          blocks;
          instr_count = List.length instrs;
          static_cp_lb;
          static_res_lb;
          instrs;
          binding;
          entries;
          achieved;
          chain_lb = chain;
          gap;
          credits = apportion gap weights;
        })
      (Regions.regions rstruct)
  in
  let achieved = summary.Trace.last_issue in
  let cp_lb = List.fold_left (fun acc r -> acc + r.chain_lb) 0 regions in
  let res_lb =
    max 0
      (List.fold_left
         (fun acc (u : Trace.unit_stat) ->
           max acc
             (ceil_div u.Trace.issues (Machine.units machine u.Trace.unit_) - 1))
         0 summary.Trace.units)
  in
  let lower_bound = max cp_lb res_lb in
  let gap = achieved - lower_bound in
  {
    achieved;
    cp_lb;
    res_lb;
    lower_bound;
    gap;
    credits = apportion gap weights;
    regions;
    partial = not halted;
  }

let identity_holds t =
  t.gap >= 0
  && credit_total t.credits = t.gap
  && t.achieved = t.lower_bound + credit_total t.credits
  && List.for_all
       (fun (r : region_bound) ->
         r.gap >= 0
         && credit_total r.credits = r.gap
         && r.achieved = r.chain_lb + credit_total r.credits)
       t.regions
  && List.fold_left (fun acc (r : region_bound) -> acc + r.achieved) 0 t.regions
     = t.achieved

let slack_of_uid t uid =
  List.find_map
    (fun r ->
      List.find_map
        (fun i -> if i.uid = uid then Some i.slack else None)
        r.instrs)
    t.regions

(* ---- rendering ---- *)

let pp_kind ppf = function
  | Deps.Flow -> Fmt.string ppf "flow"
  | Deps.Anti -> Fmt.string ppf "anti"
  | Deps.Output -> Fmt.string ppf "output"
  | Deps.Mem -> Fmt.string ppf "mem"

let pp_credits ppf cs =
  match List.filter (fun c -> c.cycles <> 0) cs with
  | [] -> Fmt.string ppf "none"
  | nz ->
      Fmt.(
        list ~sep:comma (fun ppf c -> Fmt.pf ppf "%s %d" c.category c.cycles))
        ppf nz

let slack_range = function
  | [] -> None
  | i :: rest ->
      Some
        (List.fold_left
           (fun (lo, hi) j -> (min lo j.slack, max hi j.slack))
           (i.slack, i.slack) rest)

let pp ppf t =
  Fmt.pf ppf "achieved (last issue) %6d@." t.achieved;
  Fmt.pf ppf "lower bound           %6d  = max(chain %d, resource %d)@."
    t.lower_bound t.cp_lb t.res_lb;
  Fmt.pf ppf "gap                   %6d  <- %a@." t.gap pp_credits t.credits;
  if t.partial then
    Fmt.pf ppf "(run did not halt: chain bounds conservatively reduced)@.";
  let last = List.length t.regions - 1 in
  List.iteri
    (fun k r ->
      let bar, pad = if k = last then ("└─", "   ") else ("├─", "│  ") in
      Fmt.pf ppf "%s region %d (header %a, nesting %d, %d instrs, blocks %a)@."
        bar r.region_id Label.pp r.header r.nesting r.instr_count
        Fmt.(list ~sep:comma Label.pp)
        r.blocks;
      Fmt.pf ppf "%s entries %d: achieved %d = chain lb %d + gap %d  <- %a@."
        pad r.entries r.achieved r.chain_lb r.gap pp_credits r.credits;
      Fmt.pf ppf "%s one pass: cp %d, resource %d" pad r.static_cp_lb
        r.static_res_lb;
      (match slack_range r.instrs with
      | Some (lo, hi) -> Fmt.pf ppf "; slack %d..%d@." lo hi
      | None -> Fmt.pf ppf "@.");
      List.iter
        (fun e ->
          Fmt.pf ppf "%s   #%d -%a(%d)-> #%d  rank %d%s@." pad e.e_src pp_kind
            e.e_kind e.e_weight e.e_dst e.e_rank
            (if e.e_rank = r.static_cp_lb && r.static_cp_lb > 0 then
               "  [critical]"
             else ""))
        r.binding)
    t.regions;
  Fmt.pf ppf "identity %s@." (if identity_holds t then "exact" else "VIOLATED")

let credits_to_json cs =
  Json.Obj (List.map (fun c -> (c.category, Json.Int c.cycles)) cs)

let instr_to_json i =
  Json.Obj
    [
      ("uid", Json.Int i.uid);
      ("block", Json.String i.block);
      ("estart", Json.Int i.estart);
      ("lstart", Json.Int i.lstart);
      ("slack", Json.Int i.slack);
    ]

let edge_to_json e =
  Json.Obj
    [
      ("src_uid", Json.Int e.e_src);
      ("dst_uid", Json.Int e.e_dst);
      ("kind", Json.String (Fmt.str "%a" pp_kind e.e_kind));
      ("weight", Json.Int e.e_weight);
      ("rank", Json.Int e.e_rank);
    ]

let region_to_json r =
  Json.Obj
    [
      ("id", Json.Int r.region_id);
      ("header", Json.String r.header);
      ("nesting", Json.Int r.nesting);
      ("blocks", Json.List (List.map (fun l -> Json.String l) r.blocks));
      ("instr_count", Json.Int r.instr_count);
      ("static_cp_lb", Json.Int r.static_cp_lb);
      ("static_res_lb", Json.Int r.static_res_lb);
      ("entries", Json.Int r.entries);
      ("achieved_cycles", Json.Int r.achieved);
      ("chain_lower_cycles", Json.Int r.chain_lb);
      ("gap_cycles", Json.Int r.gap);
      ("credits", credits_to_json r.credits);
      ("instrs", Json.List (List.map instr_to_json r.instrs));
      ("binding_edges", Json.List (List.map edge_to_json r.binding));
    ]

let to_json t =
  Json.Obj
    [
      ("achieved_cycles", Json.Int t.achieved);
      ("cp_lower_cycles", Json.Int t.cp_lb);
      ("res_lower_cycles", Json.Int t.res_lb);
      ("lower_bound_cycles", Json.Int t.lower_bound);
      ("gap_cycles", Json.Int t.gap);
      ("credits", credits_to_json t.credits);
      ("identity_exact", Json.Bool (identity_holds t));
      ("partial", Json.Bool t.partial);
      ("regions", Json.List (List.map region_to_json t.regions));
    ]
