open Gis_util
open Gis_ir
open Gis_machine
open Gis_analysis
open Gis_ddg

type move = {
  uid : int;
  from_label : Label.t;
  to_label : Label.t;
  speculative : bool;
  renamed : (Reg.t * Reg.t) option;
  duplicated_into : Label.t list;
      (** blocks that received a fresh copy of the instruction — the
          restricted "scheduling with duplication" of Definition 6 *)
}

let pp_move ppf m =
  Fmt.pf ppf "%d: %a -> %a%s%a%a" m.uid Label.pp m.from_label Label.pp
    m.to_label
    (if m.speculative then " (speculative)" else "")
    Fmt.(
      option (fun ppf (a, b) -> pf ppf " [rename %a->%a]" Reg.pp a Reg.pp b))
    m.renamed
    Fmt.(
      list (fun ppf l -> pf ppf " [copy in %a]" Label.pp l))
    m.duplicated_into

type blocked = {
  blocked_uid : int;
  reason : [ `Live_on_exit of Reg.t | `Rename_unsafe of Reg.t ];
}

type region_report = {
  region_id : int;
  nesting : int;
  scheduled : bool;
  skip_reason : string option;
  moves : move list;
  blocked : blocked list;
  attempted : bool;
  rule_decides : int array;
}

let src = Logs.Src.create "gis.global" ~doc:"global instruction scheduler"

module Log = (val Logs.src_log src : Logs.LOG)

(* Every decision (a candidate, a motion with its duplication copies, a
   rename, a blocked motion, a skipped region) is written once, as one
   [Config.emit] event; provenance and the per-decision [sched.*]
   counts are folds over that stream. A region's outcome and, with
   provenance, which Section 5.2 rank rule separated each contested
   pick from its best runner-up ([rule_decides]: one slot per rule of
   [Priority_rule.all], then the order fallback where every rule tied)
   are in its report. Which rules do real work is the signal the
   ROADMAP's rank-auto-tuning item will optimize against. *)
let rule_slots = List.length Priority_rule.all + 1

let tally_decision decides ~rules winner runner_up =
  let slot =
    match Priority.deciding_rule ~rules winner runner_up with
    | Some r ->
        Option.get (List.find_index (fun x -> x = r) Priority_rule.all)
    | None -> rule_slots - 1
  in
  decides.(slot) <- decides.(slot) + 1

let counts reports =
  let count p = List.length (List.filter p reports) in
  let decides = Array.make rule_slots 0 in
  List.iter
    (fun r ->
      Array.iteri (fun i n -> decides.(i) <- decides.(i) + n) r.rule_decides)
    reports;
  Gis_obs.Counts.counters
    ([
       ("sched.regions_scheduled_total", count (fun r -> r.scheduled));
       ( "sched.regions_skipped_total",
         count (fun r -> r.attempted && not r.scheduled) );
     ]
    @ List.mapi
        (fun i slug -> ("priority.rule_decides_total." ^ slug, decides.(i)))
        (List.map Priority_rule.slug Priority_rule.all @ [ "order-fallback" ]))

let blocked_reason = function
  | `Live_on_exit r -> Fmt.str "%a live on exit" Reg.pp r
  | `Rename_unsafe r -> Fmt.str "%a not renameable" Reg.pp r

(* ------------------------------------------------------------------ *)

let region_too_big config cfg (region : Regions.region) =
  let open Ints in
  let blocks = Int_set.cardinal region.Regions.own_blocks in
  let instrs =
    Int_set.fold
      (fun b acc -> acc + Block.instr_count (Cfg.block cfg b))
      region.Regions.own_blocks 0
  in
  if blocks > config.Config.max_region_blocks then
    Some (Fmt.str "region has %d blocks (limit %d)" blocks config.Config.max_region_blocks)
  else if instrs > config.Config.max_region_instrs then
    Some (Fmt.str "region has %d instructions (limit %d)" instrs config.Config.max_region_instrs)
  else None

(* Whole-procedure facts shared by every region of one pass. Motion
   never changes the CFG's edges, layout or block count, so liveness is
   computed once, on its first read, and then updated: each mutation
   records the blocks it rewrote, and the next read re-scans just those
   ({!Liveness.update}). Reaching definitions are asked one use at a
   time ({!Reaching.Query}) on the current code, so they never go
   stale, and one query serves every region's DDG build and rename
   check. [rank] is each block's position in the layout, the "original
   program order" of heuristic rule 7. *)
type dataflow = {
  mutable live : Liveness.t option;
  mutable touched : Ints.Int_set.t;
      (** blocks rewritten since [live] was last brought up to date *)
  reach : Reaching.Query.t Lazy.t;
  rank : int array;
}

let new_dataflow cfg =
  { live = None; touched = Ints.Int_set.empty;
    reach = lazy (Reaching.Query.create cfg); rank = Cfg.layout_rank cfg }

(* Scheduling state for one region. *)
type state = {
  cfg : Cfg.t;
  machine : Machine.t;
  config : Config.t;
  view : Regions.view;
  ddg : Ddg.t;
  dom : Dominance.t;
  post : Dominance.Post.post;
  cdg : Cdg.t;
  heur : Heuristics.t;
  order_of : int array;  (** ddg node -> original program order *)
  home : int array;  (** ddg node -> current view node *)
  done_ : bool array;  (** ddg node -> dependences from it are fulfilled *)
  current : Instr.t option array;  (** possibly renamed instruction *)
  df : dataflow;
  mutable moves : move list;
  mutable blocked_log : blocked list;
  rule_decides : int array;  (** [||] unless the run keeps provenance *)
  pending_copies : (int, Instr.t list) Hashtbl.t;
      (** copies destined for blocks whose own pass has not run yet *)
  mutable processed : Ints.Int_set.t;  (** view nodes already scheduled *)
}

let view_label st v =
  match st.view.Regions.nodes.(v) with
  | Regions.Block b -> Some (Cfg.block st.cfg b).Block.label
  | Regions.Inner_loop _ -> None

let is_block st v =
  match st.view.Regions.nodes.(v) with
  | Regions.Block _ -> true
  | Regions.Inner_loop _ -> false

(* Record that [blocks] were rewritten. Before the first liveness read
   there is nothing to update: the compute will see the current code. *)
let touch st blocks =
  match st.df.live with
  | None -> ()
  | Some _ ->
      st.df.touched <-
        List.fold_left (fun acc b -> Ints.Int_set.add b acc) st.df.touched blocks

(* Only the speculative safety rule and the pressure term read liveness,
   so useful-only scheduling never computes it, and a burst of motions
   between two reads costs one update. *)
let liveness st =
  match st.df.live with
  | None ->
      let l = Liveness.compute st.cfg in
      st.df.live <- Some l;
      l
  | Some l ->
      if not (Ints.Int_set.is_empty st.df.touched) then begin
        Liveness.update l st.cfg ~blocks:(Ints.Int_set.elements st.df.touched);
        st.df.touched <- Ints.Int_set.empty
      end;
      l

let make_state ?sym ~df machine config cfg regions view =
  let ddg = Ddg.build ?sym ~reach:(Lazy.force df.reach) cfg machine regions view in
  let ddg = if config.Config.prune_transitive then Ddg.prune_transitive ddg else ddg in
  let flow = view.Regions.flow in
  let dom = Dominance.compute flow in
  let post = Dominance.Post.compute flow in
  let cdg = Cdg.compute ~edge_label:view.Regions.edge_label flow in
  let heur = Heuristics.compute ddg in
  let n = Ddg.num_nodes ddg in
  (* "Original program order" (heuristic rule 7) follows the source
     layout, not the topological visit order. *)
  let node_rank v =
    match view.Regions.nodes.(v) with
    | Regions.Block b -> df.rank.(b)
    | Regions.Inner_loop _ -> max_int
  in
  let order_of = Array.make n 0 in
  let counter = ref 0 in
  let by_layout =
    List.sort
      (fun a b -> Int.compare (node_rank a) (node_rank b))
      (List.init flow.Flow.num_nodes Fun.id)
  in
  List.iter
    (fun v ->
      List.iter
        (fun i ->
          order_of.(i) <- !counter;
          incr counter)
        (Ddg.nodes_of_view_node ddg v))
    by_layout;
  {
    cfg;
    machine;
    config;
    view;
    ddg;
    dom;
    post;
    cdg;
    heur;
    order_of;
    home = Array.init n (fun i -> (Ddg.node ddg i).Ddg.view_node);
    done_ = Array.make n false;
    current = Array.init n (fun i -> (Ddg.node ddg i).Ddg.instr);
    df;
    moves = [];
    blocked_log = [];
    rule_decides =
      (match config.Config.prov with
      | Some _ -> Array.make rule_slots 0
      | None -> [||]);
    pending_copies = Hashtbl.create 4;
    processed = Ints.Int_set.empty;
  }

let equiv_blocks st a =
  let flow = st.view.Regions.flow in
  List.filter
    (fun e ->
      e <> a && is_block st e
      && Dominance.equivalent st.dom st.post a e)
    (List.init flow.Flow.num_nodes Fun.id)

(* Speculative candidate blocks (Section 5.1, level 2): blocks within
   [max_speculation_degree] CSPDG edges of [a] or its equivalent blocks
   (Definition 7). With the paper's degree of 1 these are exactly the
   immediate CSPDG successors of U(A). Blocks not dominated by [a]
   would require duplication and are excluded; when a profile is
   available, blocks unlikely to execute are excluded too. *)
let speculative_blocks st a equiv =
  let u_of_a = a :: equiv in
  let max_degree = max 1 st.config.Config.max_speculation_degree in
  let within_degree b =
    List.exists
      (fun s ->
        match Cdg.speculation_degree st.cdg ~src:s ~dst:b with
        | Some d -> d >= 1 && d <= max_degree
        | None -> false)
      u_of_a
  in
  let likely_enough b =
    match st.config.Config.profile with
    | None -> true
    | Some counts -> (
        match view_label st a, view_label st b with
        | Some la, Some lb ->
            let ca = counts la and cb = counts lb in
            ca = 0
            || float_of_int cb /. float_of_int ca
               >= st.config.Config.min_speculation_probability
        | None, _ | _, None -> true)
  in
  List.init st.view.Regions.flow.Flow.num_nodes Fun.id
  |> List.filter (fun b ->
         (not (List.mem b u_of_a))
         && is_block st b
         && Dominance.dominates st.dom a b
         && within_degree b
         && likely_enough b)

(* Join blocks eligible for duplication-based motion into [a]
   (Definition 6, restricted form): [a] is an immediate view predecessor
   of the join [b] but does not dominate it (else the motion would be
   plain useful/speculative); every other predecessor is a plain block
   whose only successor is [b] (so a copy at its end executes exactly
   when [b] would have executed it — never speculatively); and [b] is
   not the region entry, so its view predecessors are the whole story —
   no masked back edge or region-external path sneaks into it. *)
let duplication_blocks st a equiv =
  if not st.config.Config.allow_duplication then []
  else begin
    let flow = st.view.Regions.flow in
    let u_of_a = a :: equiv in
    List.init flow.Flow.num_nodes Fun.id
    |> List.filter (fun b ->
           (not (List.mem b u_of_a))
           && b <> flow.Flow.entry
           && is_block st b
           && (not (Dominance.dominates st.dom a b))
           && List.mem a flow.Flow.pred.(b)
           && List.for_all
                (fun p ->
                  p = a
                  || is_block st p
                     && flow.Flow.succ.(p) = [ b ]
                     && not (List.mem p flow.Flow.extra_exits))
                flow.Flow.pred.(b))
  end

(* All data sources of a duplication candidate must sit in blocks that
   dominate the join [b]: every path into [b] — through [a] or any other
   predecessor — must have produced the operands the copies read. *)
let duplication_sources_ok st ~join i =
  let rec from k =
    k >= Ddg.num_preds st.ddg i
    || Dominance.dominates st.dom st.home.((Ddg.pred st.ddg i k).Ddg.src) join
       && from (k + 1)
  in
  from 0

(* ---- speculation safety (Section 5.3) ---- *)

type safety =
  | Safe
  | Safe_with_rename of Reg.t * (int * int) list
      (** reg to rename, consumers as (uid, block) *)
  | Unsafe of blocked

let plainly_renameable inst r =
  match Instr.kind inst with
  | Instr.Load { base; update = true; _ } when Reg.equal base r -> false
  | Instr.Store _ -> false
  | Instr.Load _ | Instr.Load_imm _ | Instr.Move _ | Instr.Binop _
  | Instr.Fbinop _ | Instr.Compare _ | Instr.Fcompare _ | Instr.Call _ ->
      true
  | Instr.Branch_cond _ | Instr.Jump _ | Instr.Halt -> false

let check_speculative st ~target_block ~from_block inst =
  let live = liveness st in
  let clobbered =
    List.filter
      (Liveness.mem_before_terminator live st.cfg target_block)
      (Instr.defs inst)
  in
  match clobbered with
  | [] -> Safe
  | [ r ] when st.config.Config.rename && plainly_renameable inst r -> (
      match
        Reaching.Query.sole_def_of_all_uses (Lazy.force st.df.reach)
          ~block:from_block ~uid:(Instr.uid inst) ~reg:r
      with
      | Some uses -> Safe_with_rename (r, uses)
      | None ->
          Unsafe { blocked_uid = Instr.uid inst; reason = `Rename_unsafe r })
  | r :: _ -> Unsafe { blocked_uid = Instr.uid inst; reason = `Live_on_exit r }

(* Physically move node [i] into [target]: detach from its current
   block, its home's ([Block.remove_by_uid] raises if it is not there),
   apply renaming if required, append to the target body (final order
   is rewritten when the block pass finishes). Each renamed consumer is
   rewritten in the block the rename check found it in. Returns the
   placed instruction, the label it left and the renaming applied. *)
let apply_motion st ~node:i ~target_blk ~rename =
  let inst =
    match st.current.(i) with Some x -> x | None -> assert false
  in
  let from_blk_id =
    match st.view.Regions.nodes.(st.home.(i)) with
    | Regions.Block b -> b
    | Regions.Inner_loop _ -> assert false
  in
  let from_blk = Cfg.block st.cfg from_blk_id in
  ignore (Block.remove_by_uid from_blk ~uid:(Instr.uid inst));
  let inst, renamed =
    match rename with
    | None -> (inst, None)
    | Some (r, consumers) ->
        let r' = Cfg.fresh_reg st.cfg r.Reg.cls in
        let inst' = Instr.rename_def inst ~from_reg:r ~to_reg:r' in
        touch st (List.map snd consumers);
        List.iter
          (fun (u, block) ->
            ignore
              (Cfg.update_instr ~block st.cfg ~uid:u
                 ~f:(Instr.rename_uses ~from_reg:r ~to_reg:r'));
            match Ddg.node_of_uid st.ddg u with
            | Some j ->
                st.current.(j) <-
                  Option.map
                    (Instr.rename_uses ~from_reg:r ~to_reg:r')
                    st.current.(j)
            | None -> ())
          consumers;
        (inst', Some (r, r'))
  in
  st.current.(i) <- Some inst;
  Vec.push target_blk.Block.body inst;
  touch st [ from_blk_id; target_blk.Block.id ];
  (inst, from_blk.Block.label, renamed)

(* ---- the per-block cycle-by-cycle process (Section 5.1) ---- *)

let schedule_block st a blk_id =
  let blk = Cfg.block st.cfg blk_id in
  let equiv = equiv_blocks st a in
  let useful_homes = a :: equiv in
  let spec =
    match st.config.Config.level with
    | Config.Speculative -> speculative_blocks st a equiv
    | Config.Useful | Config.Local -> []
  in
  let dup =
    match st.config.Config.level with
    | Config.Speculative -> duplication_blocks st a equiv
    | Config.Useful | Config.Local -> []
  in
  (* Nodes only ever move into the block being scheduled, from blocks
     later in topological order, so the block's own nodes are those of
     its view node that no earlier block took. *)
  let own = List.filter (fun i -> st.home.(i) = a) (Ddg.nodes_of_view_node st.ddg a) in
  let term_node =
    match Ddg.node_of_uid st.ddg (Instr.uid blk.Block.term) with
    | Some i -> i
    | None -> failwith "Global_sched: terminator not in DDG"
  in
  (* Candidate set: own instructions plus importable ones. *)
  let imports = ref [] in
  let import_ok ~spec_src i =
    match st.current.(i) with
    | None -> false
    | Some inst ->
        (not st.done_.(i))
        &&
        if spec_src then Instr.speculable inst
        else Instr.movable_across_blocks inst
  in
  let consider ~speculative ~ok blocks =
    List.iter
      (fun v ->
        List.iter
          (fun i ->
            if st.home.(i) = v && import_ok ~spec_src:speculative i && ok v i
            then begin
              imports := i :: !imports;
              match st.current.(i) with
              | Some inst ->
                  Config.emit st.config
                    (Gis_obs.Sink.Candidate_considered
                       {
                         uid = Instr.uid inst;
                         from_block =
                           Option.value ~default:blk.Block.label
                             (view_label st v);
                         into_block = blk.Block.label;
                         speculative;
                       })
              | None -> ()
            end)
          (Ddg.nodes_of_view_node st.ddg v))
      blocks
  in
  (* No level guard: [schedule_region] never runs a block pass at
     [Local], and [spec] and [dup] are empty below [Speculative]. *)
  consider ~speculative:false ~ok:(fun _ _ -> true) equiv;
  consider ~speculative:true ~ok:(fun _ _ -> true) spec;
  consider ~speculative:true
    ~ok:(fun d i -> duplication_sources_ok st ~join:d i)
    dup;
  (* Without the pressure term, [item]'s fields are fixed for the
     lifetime of a queued entry: [home] changes only when a node
     issues. The [pressure] field, however, reads the lazy liveness
     that every motion invalidates, so under [pressure_aware] each
     applied motion answers [Accept_rekeyed] and the engine re-keys the
     surviving entries; otherwise pop order follows the original keys,
     keeping the golden schedules byte-identical. *)
  let pressure_budget cls =
    match st.config.Config.regs with
    | Some n when cls <> Reg.Cr -> n
    | Some _ | None -> Machine.regs st.machine cls
  in
  let pressure_of i =
    if (not st.config.Config.pressure_aware) || st.home.(i) = a then 0
    else
      match st.current.(i) with
      | None -> 0
      | Some inst ->
          let live = liveness st in
          Heuristics.import_pressure
            ~live:(Liveness.mem_before_terminator live st.cfg blk_id)
            ~count:(Liveness.count_before_terminator live st.cfg blk_id)
            ~budget:pressure_budget inst
  in
  let item i =
    {
      Priority.node = i;
      useful = List.mem st.home.(i) useful_homes;
      d = Heuristics.d st.heur i;
      cp = Heuristics.cp st.heur i;
      order = st.order_of.(i);
      pressure = pressure_of i;
    }
  in
  let rules =
    if st.config.Config.pressure_aware then
      Priority_rule.Min_pressure :: st.config.Config.rules
    else st.config.Config.rules
  in
  (* Own instructions issue unconditionally; an import first has to
     pass the legality checks of its motion kind, and is then moved. *)
  let commit (it : Priority.item) =
    let i = it.Priority.node in
    if st.home.(i) = a then List_sched.Accept
    else begin
      let speculative = not (List.mem st.home.(i) useful_homes) in
      let inst =
        match st.current.(i) with Some x -> x | None -> assert false
      in
      let needs_duplication = List.mem st.home.(i) dup in
      (* A duplication motion additionally needs the instruction's
         definitions out of the way of every copy host's branch. *)
      let copy_hosts =
        if not needs_duplication then []
        else
          List.filter
            (fun p -> p <> a)
            st.view.Regions.flow.Flow.pred.(st.home.(i))
      in
      let copy_hosts_ok =
        List.for_all
          (fun p ->
            match st.view.Regions.nodes.(p) with
            | Regions.Block pb ->
                let term = (Cfg.block st.cfg pb).Block.term in
                List.for_all
                  (fun r ->
                    not (List.exists (Reg.equal r) (Instr.uses term)))
                  (Instr.defs inst)
            | Regions.Inner_loop _ -> false)
          copy_hosts
      in
      let verdict =
        if needs_duplication && not copy_hosts_ok then
          Unsafe
            {
              blocked_uid = Instr.uid inst;
              reason =
                `Live_on_exit
                  (match Instr.defs inst with
                  | r :: _ -> r
                  | [] -> assert false);
            }
        else if speculative then
          match st.view.Regions.nodes.(st.home.(i)) with
          | Regions.Block from_block ->
              check_speculative st ~target_block:blk_id ~from_block inst
          | Regions.Inner_loop _ -> assert false
        else Safe
      in
      (* Returns each copy as (copy uid, host label), in host order. *)
      let place_copies placed =
        List.map
          (fun p ->
            match st.view.Regions.nodes.(p) with
            | Regions.Block pb ->
                let host = Cfg.block st.cfg pb in
                let copy = Cfg.copy_instr st.cfg placed in
                touch st [ pb ];
                if Ints.Int_set.mem p st.processed then
                  Vec.push host.Block.body copy
                else
                  Hashtbl.replace st.pending_copies p
                    (copy
                    :: Option.value ~default:[]
                         (Hashtbl.find_opt st.pending_copies p));
                (Instr.uid copy, host.Block.label)
            | Regions.Inner_loop _ -> assert false)
          copy_hosts
      in
      (* One event per motion, with the heap entry's decision-time ranks
         and the copies, then one for its renaming. *)
      let move rename =
        let placed, from_block, renamed =
          apply_motion st ~node:i ~target_blk:blk ~rename
        in
        let copies = place_copies placed in
        let uid = Instr.uid placed and to_block = blk.Block.label
        and scores = Priority.scores it in
        st.moves <-
          {
            uid;
            from_label = from_block;
            to_label = to_block;
            speculative;
            renamed;
            duplicated_into = List.map snd copies;
          }
          :: st.moves;
        Config.emit st.config
          (if speculative then
             Gis_obs.Sink.Moved_speculative
               { uid; from_block; to_block; scores; copies }
           else
             Gis_obs.Sink.Moved_useful
               { uid; from_block; to_block; scores; copies });
        Option.iter
          (fun (from_reg, to_reg) ->
            Config.emit st.config (Gis_obs.Sink.Renamed { uid; from_reg; to_reg }))
          renamed;
        st.home.(i) <- a;
        if st.config.Config.pressure_aware then List_sched.Accept_rekeyed
        else List_sched.Accept
      in
      match verdict with
      | Safe -> move None
      | Safe_with_rename (r, uses) -> move (Some (r, uses))
      | Unsafe b ->
          st.blocked_log <- b :: st.blocked_log;
          Config.emit st.config
            (Gis_obs.Sink.Blocked
               { uid = b.blocked_uid; reason = blocked_reason b.reason });
          List_sched.Reject
    end
  in
  (* The terminator waits for the block's own instructions — and
     yields to ready duplication candidates, which are free to take
     (the join shrinks on every path) but would otherwise lose the
     race against a delay-less jump. Useful/speculative candidates
     get no such priority: their interplay with the terminator is
     exactly the paper's, keeping the Figure 5/6 schedules intact. *)
  let yields_to = List.filter (fun i -> List.mem st.home.(i) dup) !imports in
  let emitted, _ =
    List_sched.run ~fulfilled:(fun p -> st.done_.(p)) ~yields_to
      ?tally:
        (match st.config.Config.prov with
        | Some _ -> Some (tally_decision st.rule_decides ~rules)
        | None -> None)
      ~machine:st.machine ~rules ~item ~commit ~own ~imports:!imports
      ~term:term_node st.ddg
  in
  List.iter (fun i -> st.done_.(i) <- true) emitted;
  (* Rewrite the block body in emission order; the terminator stays in
     place as the block's [term]. *)
  let order = List.filter (fun i -> i <> term_node) emitted in
  Vec.clear blk.Block.body;
  List.iter
    (fun i ->
      match st.current.(i) with
      | Some inst -> Vec.push blk.Block.body inst
      | None -> assert false)
    order;
  (* Copies stashed for this block by earlier duplication motions go at
     the end, just before the terminator — always order-correct there. *)
  (match Hashtbl.find_opt st.pending_copies a with
  | Some copies ->
      List.iter (Vec.push blk.Block.body) (List.rev copies);
      Hashtbl.remove st.pending_copies a
  | None -> ());
  st.processed <- Ints.Int_set.add a st.processed;
  touch st [ blk_id ]

(* A region left alone: the report and the stream both say why.
   [attempted] is false for a region outside the pass's scope (its
   filter or the nesting limit), which [sched.regions_skipped_total]
   does not count. *)
let skip ~attempted config (region : Regions.region) why =
  Config.emit config
    (Gis_obs.Sink.Region_skipped { region_id = region.Regions.id; reason = why });
  {
    region_id = region.Regions.id;
    nesting = region.Regions.nesting;
    scheduled = false;
    skip_reason = Some why;
    moves = [];
    blocked = [];
    attempted;
    rule_decides = [||];
  }

let schedule_region ?sym ?alias ~df machine config cfg regions region =
  let skipped = skip ~attempted:true config region in
  if config.Config.level = Config.Local then
    skipped "local-only configuration"
  else
    match region_too_big config cfg region with
    | Some why -> skipped why
    | None -> (
        match Regions.view cfg regions region with
        | exception Invalid_argument why -> skipped why
        | view ->
            let st = make_state ?sym ~df machine config cfg regions view in
            (match alias with Some t -> Ddg.add_tally t st.ddg | None -> ());
            let topo = Flow.reverse_postorder view.Regions.flow in
            List.iter
              (fun v ->
                (match view.Regions.nodes.(v) with
                | Regions.Block blk_id -> schedule_block st v blk_id
                | Regions.Inner_loop _ -> ());
                (* Everything homed in this view node is now behind us:
                   its imports were marked as they issued, and the rest
                   started here. *)
                List.iter
                  (fun i -> if st.home.(i) = v then st.done_.(i) <- true)
                  (Ddg.nodes_of_view_node st.ddg v))
              topo;
            Log.debug (fun m ->
                m "region %d: %d moves" region.Regions.id (List.length st.moves));
            {
              region_id = region.Regions.id;
              nesting = region.Regions.nesting;
              scheduled = true;
              skip_reason = None;
              moves = List.rev st.moves;
              blocked = List.rev st.blocked_log;
              attempted = true;
              rule_decides = st.rule_decides;
            })

(* Regions are eligible when within [max_nesting_levels] of the
   innermost level: a leaf loop has inner level 1, a region whose
   deepest nested loop chain has k levels has inner level k + 1.
   Levels for the whole region forest are memoized once per [schedule]
   call instead of being recomputed (quadratically) per region. *)
let inner_levels regions =
  let all = Regions.regions regions in
  let memo = Hashtbl.create 16 in
  let rec depth_below (r : Regions.region) =
    match Hashtbl.find_opt memo r.Regions.id with
    | Some d -> d
    | None ->
        let children =
          List.filter
            (fun (c : Regions.region) ->
              match c.Regions.loop, r.Regions.loop with
              | Some cl, Some rl -> cl.Gis_analysis.Loops.parent = Some rl.Gis_analysis.Loops.index
              | Some cl, None -> cl.Gis_analysis.Loops.parent = None
              | None, _ -> false)
            all
        in
        let d =
          1 + List.fold_left (fun acc c -> max acc (depth_below c)) 0 children
        in
        Hashtbl.add memo r.Regions.id d;
        d
  in
  depth_below

let is_inner_region (region : Regions.region) =
  match region.Regions.loop with
  | Some l -> l.Gis_analysis.Loops.children = []
  | None -> false

let schedule ?(only = fun _ -> true) ?regions ?alias machine config cfg =
  let regions =
    match regions with Some r -> r | None -> Regions.compute cfg
  in
  (* The symbolic address analysis is whole-procedure and its per-access
     facts survive legal code motion (register dependences pin every
     address computation), so one run serves every region of this pass. *)
  let sym =
    if config.Config.disambiguate && config.Config.level <> Config.Local then
      Some (Symaddr.compute cfg)
    else None
  in
  let inner_level = inner_levels regions in
  let df = new_dataflow cfg in
  List.map
    (fun region ->
      if not (only region) then
        skip ~attempted:false config region "filtered out for this pass"
      else if inner_level region > config.Config.max_nesting_levels then
        skip ~attempted:false config region
          (Fmt.str "nesting: inner level %d exceeds limit %d"
             (inner_level region)
             config.Config.max_nesting_levels)
      else
        (* Per-region attribution: each scheduled region becomes a
           profile node under the enclosing global pass. The name is
           only built when a profiler is attached, so the detached path
           stays allocation-identical. *)
        match config.Config.prof with
        | None ->
            schedule_region ?sym ?alias ~df machine config cfg regions region
        | Some _ as prof ->
            Gis_obs.Prof.record prof
              (Fmt.str "region-%d" region.Regions.id)
              (fun () ->
                schedule_region ?sym ?alias ~df machine config cfg regions
                  region))
    (Regions.regions regions)
