open Gis_util
open Gis_ir
open Ints

type node = Block of int | Inner_loop of int

type region = {
  id : int;
  loop : Loops.loop option;
  entry_block : int;
  own_blocks : Int_set.t;
  nesting : int;
}

type t = {
  cfg_entry : int;
  loop_info : Loops.t;
  region_list : region list;
}

let compute cfg =
  let loop_info = Loops.compute cfg in
  let loops = Loops.loops loop_info in
  let next_id = ref 0 in
  let fresh () =
    let id = !next_id in
    incr next_id;
    id
  in
  let region_of_loop (l : Loops.loop) =
    let nested =
      List.fold_left
        (fun acc c -> Int_set.union acc loops.(c).Loops.blocks)
        Int_set.empty l.Loops.children
    in
    {
      id = fresh ();
      loop = Some l;
      entry_block = l.Loops.header;
      own_blocks = Int_set.diff l.Loops.blocks nested;
      nesting = l.Loops.depth;
    }
  in
  let loop_regions = List.map region_of_loop (Loops.innermost_first loop_info) in
  let all_loop_blocks =
    Array.fold_left
      (fun acc l -> Int_set.union acc l.Loops.blocks)
      Int_set.empty loops
  in
  let reachable = Cfg.reachable cfg in
  let toplevel =
    {
      id = fresh ();
      loop = None;
      entry_block = Cfg.entry cfg;
      own_blocks = Int_set.diff reachable all_loop_blocks;
      nesting = 0;
    }
  in
  {
    cfg_entry = Cfg.entry cfg;
    loop_info;
    region_list = loop_regions @ [ toplevel ];
  }

let regions t = t.region_list

let summary_blocks t ~loop_index =
  (Loops.loops t.loop_info).(loop_index).Loops.blocks

type view = {
  flow : Flow.t;
  nodes : node array;
  edge_label : int -> int -> Cfg.edge_kind;
  block_node : int -> int option;
}

let view cfg t region =
  let loops = Loops.loops t.loop_info in
  (* Immediate child loops of this region. *)
  let children =
    match region.loop with
    | Some l -> l.Loops.children
    | None ->
        Array.to_list loops
        |> List.filter_map (fun l ->
               if l.Loops.parent = None then Some l.Loops.index else None)
  in
  (* Node table: own blocks first (sorted), then child loops. *)
  let own = Int_set.elements region.own_blocks in
  let nodes =
    Array.of_list
      (List.map (fun b -> Block b) own
      @ List.map (fun c -> Inner_loop c) children)
  in
  let node_count = Array.length nodes in
  let node_of_block = Hashtbl.create 16 in
  Array.iteri
    (fun idx n ->
      match n with
      | Block b -> Hashtbl.replace node_of_block b idx
      | Inner_loop c ->
          Int_set.iter
            (fun b -> Hashtbl.replace node_of_block b idx)
            loops.(c).Loops.blocks)
    nodes;
  let masked =
    match region.loop with Some l -> l.Loops.back_edges | None -> []
  in
  let succ = Array.make node_count [] in
  let labels = Hashtbl.create 32 in
  let add_edge a b kind =
    if a <> b && not (List.mem b succ.(a)) then begin
      succ.(a) <- succ.(a) @ [ b ];
      Hashtbl.replace labels (a, b) kind
    end
  in
  let in_region b =
    Int_set.mem b region.own_blocks
    || List.exists (fun c -> Int_set.mem b loops.(c).Loops.blocks) children
  in
  (* Nodes with an edge that leaves the view (loop exit or masked back
     edge): control can escape there, which postdominance must see. *)
  let extra_exits = ref [] in
  let visit_block b =
    List.iter
      (fun (s, kind) ->
        let a = Hashtbl.find node_of_block b in
        if in_region s && not (List.mem (b, s) masked) then begin
          let vb = Hashtbl.find node_of_block s in
          if a <> vb then add_edge a vb kind
        end
        else extra_exits := a :: !extra_exits)
      (Cfg.successors cfg b)
  in
  Int_set.iter visit_block region.own_blocks;
  List.iter
    (fun c -> Int_set.iter visit_block loops.(c).Loops.blocks)
    children;
  let entry =
    match Hashtbl.find_opt node_of_block region.entry_block with
    | Some v -> v
    | None -> invalid_arg "Regions.view: entry block not in region"
  in
  let to_block =
    Array.map (function Block b -> b | Inner_loop _ -> -1) nodes
  in
  let flow = Flow.make ~extra_exits:!extra_exits ~entry ~to_block succ in
  if not (Flow.is_acyclic flow) then
    invalid_arg "Regions.view: region graph is cyclic (irreducible CFG?)";
  let edge_label a b =
    match Hashtbl.find_opt labels (a, b) with
    | Some k -> k
    | None -> invalid_arg "Regions.view: unknown edge"
  in
  let block_node b = Hashtbl.find_opt node_of_block b in
  { flow; nodes; edge_label; block_node }
