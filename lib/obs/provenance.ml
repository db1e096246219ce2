open Gis_ir

(* Motion provenance: where every final instruction came from.

   The table is keyed by instruction uid — [Instr.with_kind], renaming
   and register rewriting all preserve uids, and every fresh copy
   ([Cfg.copy_instr], spill code) gets a recording call at its creation
   site — so a record survives every transformation the pipeline
   applies. Recording functions take a [t option] and do nothing on
   [None]: with provenance off the passes pay one option match per
   call site and the schedule is untouched. *)

type kind = Unmoved | Useful | Speculative | Duplicated | Spill_inserted

(* Fixed order: used for deterministic remainder assignment in
   [attribute] and for the conservation counts. *)
let all_kinds = [ Useful; Speculative; Duplicated; Spill_inserted; Unmoved ]

let kind_name = function
  | Unmoved -> "unmoved"
  | Useful -> "useful"
  | Speculative -> "speculative"
  | Duplicated -> "duplicated"
  | Spill_inserted -> "spill_inserted"

let pp_kind ppf k = Fmt.string ppf (kind_name k)

type scores = Sink.scores = { d : int; cp : int; order : int; pressure : int }

type record = {
  uid : int;
  origin : Label.t;
  kind : kind;
  scores : scores option;
  copy_index : int;
  renamed : bool;
  moved_from : Label.t option;
}

type t = {
  tbl : (int, record) Hashtbl.t;
  (* uid -> (block, position) in the final CFG; filled by [finalize] *)
  final : (int, Label.t * int) Hashtbl.t;
  (* the copies of the last motion, which its [Renamed] event (if any)
     marks along with the moved instruction *)
  mutable last_copies : int list;
}

let create () =
  { tbl = Hashtbl.create 256; final = Hashtbl.create 256; last_copies = [] }

let find t uid = Hashtbl.find_opt t.tbl uid

let seed prov ~uid ~origin =
  match prov with
  | None -> ()
  | Some t ->
      if not (Hashtbl.mem t.tbl uid) then
        Hashtbl.replace t.tbl uid
          {
            uid;
            origin;
            kind = Unmoved;
            scores = None;
            copy_index = 0;
            renamed = false;
            moved_from = None;
          }

(* A fresh copy made by unrolling/rotation inherits its source's
   lineage one generation deeper; a copy of an untracked instruction
   (provenance enabled mid-flight) starts a lineage of its own. *)
let copied prov ~orig ~copy ~block =
  match prov with
  | None -> ()
  | Some t ->
      let r =
        match Hashtbl.find_opt t.tbl orig with
        | Some r -> { r with uid = copy; copy_index = r.copy_index + 1 }
        | None ->
            {
              uid = copy;
              origin = block;
              kind = Unmoved;
              scores = None;
              copy_index = 1;
              renamed = false;
              moved_from = None;
            }
      in
      Hashtbl.replace t.tbl copy r

(* A committed motion updates the moved instruction's record (one is
   started for an untracked instruction). Duplication places a fresh
   copy in each other predecessor; a copy shares the original's
   provenance but is its own Duplicated record in the block it landed
   in. *)
let moved t ~uid ~kind ~scores ~from ~copies =
  let kind = if copies = [] then kind else Duplicated in
  let r =
    match Hashtbl.find_opt t.tbl uid with
    | Some r -> { r with kind; scores = Some scores; moved_from = Some from }
    | None ->
        {
          uid;
          origin = from;
          kind;
          scores = Some scores;
          copy_index = 0;
          renamed = false;
          moved_from = Some from;
        }
  in
  Hashtbl.replace t.tbl uid r;
  List.iter
    (fun (copy, _host) ->
      Hashtbl.replace t.tbl copy
        { r with uid = copy; moved_from = Some r.origin })
    copies;
  t.last_copies <- List.map fst copies

let mark_renamed t uid =
  match Hashtbl.find_opt t.tbl uid with
  | Some r -> Hashtbl.replace t.tbl uid { r with renamed = true }
  | None -> ()

let observe prov (e : Sink.sched_event) =
  match prov, e with
  | None, _ -> ()
  | Some t, Sink.Moved_useful { uid; from_block; scores; copies; _ } ->
      moved t ~uid ~kind:Useful ~scores ~from:from_block ~copies
  | Some t, Sink.Moved_speculative { uid; from_block; scores; copies; _ } ->
      moved t ~uid ~kind:Speculative ~scores ~from:from_block ~copies
  | Some t, Sink.Renamed { uid; _ } ->
      List.iter (mark_renamed t) (uid :: t.last_copies)
  | ( Some _,
      ( Sink.Candidate_considered _ | Sink.Blocked _ | Sink.Region_skipped _
      | Sink.Block_scheduled _ ) ) ->
      ()

let spill prov ~uid ~block =
  match prov with
  | None -> ()
  | Some t ->
      Hashtbl.replace t.tbl uid
        {
          uid;
          origin = block;
          kind = Spill_inserted;
          scores = None;
          copy_index = 0;
          renamed = false;
          moved_from = None;
        }

(* Record local-scheduler ranks for instructions the global pass never
   touched, without disturbing a motion's decision-time scores. *)
let scored prov ~uid ~scores =
  match prov with
  | None -> ()
  | Some t -> (
      match Hashtbl.find_opt t.tbl uid with
      | Some ({ scores = None; _ } as r) ->
          Hashtbl.replace t.tbl uid { r with scores = Some scores }
      | Some _ | None -> ())

let iter_reachable_blocks cfg f =
  let reach = Cfg.reachable cfg in
  List.iter
    (fun id ->
      if Gis_util.Ints.Int_set.mem id reach then f (Cfg.block cfg id))
    (Cfg.layout cfg)

let finalize prov cfg =
  match prov with
  | None -> ()
  | Some t ->
      Hashtbl.reset t.final;
      iter_reachable_blocks cfg (fun b ->
          let label = b.Block.label in
          let pos = ref 0 in
          let at i =
            Hashtbl.replace t.final (Instr.uid i) (label, !pos);
            incr pos
          in
          Gis_util.Vec.iter at b.Block.body;
          at b.Block.term)

(* ---- queries over a finalized table ---- *)

type entry = { record : record; block : Label.t; position : int }

let entries t =
  Hashtbl.fold
    (fun uid (block, position) acc ->
      match Hashtbl.find_opt t.tbl uid with
      | Some record -> { record; block; position } :: acc
      | None -> acc)
    t.final []
  |> List.sort (fun a b ->
         match Label.compare a.block b.block with
         | 0 -> compare a.position b.position
         | c -> c)

let missing t cfg =
  let acc = ref [] in
  iter_reachable_blocks cfg (fun b ->
      let at i =
        if not (Hashtbl.mem t.tbl (Instr.uid i)) then
          acc := Instr.uid i :: !acc
      in
      Gis_util.Vec.iter at b.Block.body;
      at b.Block.term);
  List.rev !acc

let counts t =
  let tally = List.map (fun k -> (k, ref 0)) all_kinds in
  Hashtbl.iter
    (fun uid _site ->
      match Hashtbl.find_opt t.tbl uid with
      | Some r -> incr (List.assoc r.kind tally)
      | None -> ())
    t.final;
  List.map (fun (k, c) -> (k, !c)) tally

(* ---- per-block cycle attribution ---- *)

type attribution = {
  ablock : Label.t;
  delta : int;  (** base stall gap minus scheduled stall gap; >0 = saved *)
  credits : (kind * int) list;  (** sums to [delta] exactly *)
}

(* Apportion [delta] across the kinds statically present in the block,
   weighted by instruction count, using largest remainders so the
   integer credits sum to [delta] exactly. Deterministic: remainders
   tie-break in [all_kinds] order. *)
let apportion delta weights =
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 weights in
  if delta = 0 || total = 0 then
    [ (Unmoved, delta) ]
  else begin
    let sign = if delta < 0 then -1 else 1 in
    let mag = abs delta in
    let shares =
      List.map
        (fun (k, w) -> (k, mag * w / total, mag * w mod total))
        weights
    in
    let floor_sum = List.fold_left (fun acc (_, q, _) -> acc + q) 0 shares in
    let leftover = mag - floor_sum in
    let order =
      List.mapi (fun i (k, q, r) -> (i, k, q, r)) shares
      |> List.sort (fun (i1, _, _, r1) (i2, _, _, r2) ->
             match compare r2 r1 with 0 -> compare i1 i2 | c -> c)
    in
    let bumped =
      List.mapi (fun rank (i, k, q, _) -> (i, k, if rank < leftover then q + 1 else q)) order
      |> List.sort (fun (i1, _, _) (i2, _, _) -> compare i1 i2)
    in
    List.filter_map
      (fun (_, k, q) -> if q = 0 then None else Some (k, sign * q))
      bumped
  end

let block_gaps (s : Trace.summary) =
  List.map
    (fun (b : Trace.block_stat) -> (b.Trace.block, b.Trace.stall_cycles))
    s.Trace.blocks

let attribute t ~(base : Trace.summary) ~(sched : Trace.summary) =
  let base_gaps = block_gaps base and sched_gaps = block_gaps sched in
  let labels =
    List.sort_uniq Label.compare
      (List.map fst base_gaps @ List.map fst sched_gaps)
  in
  (* Static per-kind instruction counts per final block, the weights. *)
  let by_block = Hashtbl.create 16 in
  Hashtbl.iter
    (fun uid (block, _) ->
      match Hashtbl.find_opt t.tbl uid with
      | Some r ->
          let cur =
            Option.value ~default:[] (Hashtbl.find_opt by_block block)
          in
          Hashtbl.replace by_block block (r.kind :: cur)
      | None -> ())
    t.final;
  List.filter_map
    (fun label ->
      let find gaps = Option.value ~default:0 (List.assoc_opt label gaps) in
      let delta = find base_gaps - find sched_gaps in
      let kinds = Option.value ~default:[] (Hashtbl.find_opt by_block label) in
      let weights =
        List.filter_map
          (fun k ->
            match List.length (List.filter (( = ) k) kinds) with
            | 0 -> None
            | n -> Some (k, n))
          all_kinds
      in
      if delta = 0 && weights = [] then None
      else Some { ablock = label; delta; credits = apportion delta weights })
    labels

let attribution_total atts =
  List.fold_left (fun acc a -> acc + a.delta) 0 atts

(* ---- rendering ---- *)

let scores_to_json s =
  Json.Obj
    [
      ("d", Json.Int s.d);
      ("cp", Json.Int s.cp);
      ("order", Json.Int s.order);
      ("pressure", Json.Int s.pressure);
    ]

let entry_to_json e =
  let r = e.record in
  Json.Obj
    ([
       ("uid", Json.Int r.uid);
       ("block", Json.String e.block);
       ("position", Json.Int e.position);
       ("origin", Json.String r.origin);
       ("kind", Json.String (kind_name r.kind));
       ("copy_index", Json.Int r.copy_index);
       ("renamed", Json.Bool r.renamed);
     ]
    @ (match r.moved_from with
      | Some l -> [ ("moved_from", Json.String l) ]
      | None -> [])
    @
    match r.scores with
    | Some s -> [ ("scores", scores_to_json s) ]
    | None -> [])

let to_json t =
  Json.Obj
    [
      ( "counts",
        Json.Obj
          (List.map (fun (k, c) -> (kind_name k, Json.Int c)) (counts t)) );
      ("instructions", Json.List (List.map entry_to_json (entries t)));
    ]

let attribution_to_json atts =
  Json.List
    (List.map
       (fun a ->
         Json.Obj
           [
             ("block", Json.String a.ablock);
             ("delta_cycles", Json.Int a.delta);
             ( "credits",
               Json.Obj
                 (List.map
                    (fun (k, c) -> (kind_name k, Json.Int c))
                    a.credits) );
           ])
       atts)
