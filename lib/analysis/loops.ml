open Gis_util
open Gis_ir
open Ints

type loop = {
  index : int;
  header : int;
  blocks : Int_set.t;
  back_edges : (int * int) list;
  parent : int option;
  children : int list;
  depth : int;
}

type t = {
  loops : loop array;
  reducible : bool;
  innermost : int array;  (** block id -> innermost loop index or -1 *)
}

(* Retreating edges: edges (a, b) where b is an ancestor of a in the
   DFS tree (i.e. the DFS has not finished b when the edge is seen). *)
let retreating_edges cfg =
  let n = Cfg.num_blocks cfg in
  let color = Array.make n 0 in
  let edges = ref [] in
  let rec go v =
    color.(v) <- 1;
    List.iter
      (fun (s, _) ->
        if color.(s) = 1 then edges := (v, s) :: !edges
        else if color.(s) = 0 then go s)
      (Cfg.successors cfg v);
    color.(v) <- 2
  in
  go (Cfg.entry cfg);
  !edges

let natural_loop_body cfg (tail, header) =
  let body = ref (Int_set.singleton header) in
  let rec pull v =
    if not (Int_set.mem v !body) then begin
      body := Int_set.add v !body;
      List.iter pull (Cfg.predecessors cfg v)
    end
  in
  pull tail;
  !body

let compute cfg =
  let flow = Flow.of_cfg ~entry:(Cfg.entry cfg) cfg in
  (* The full-CFG view preserves ids: check, then use ids directly. *)
  let id_of_local = flow.Flow.to_block in
  let local_of_id = Flow.local_of_block flow in
  let dom = Dominance.compute flow in
  let dominates a b =
    match Int_map.find_opt a local_of_id, Int_map.find_opt b local_of_id with
    | Some la, Some lb -> Dominance.dominates dom la lb
    | None, _ | _, None -> false
  in
  ignore id_of_local;
  let retreating = retreating_edges cfg in
  let back_edges = List.filter (fun (t, h) -> dominates h t) retreating in
  let reducible =
    List.for_all (fun e -> List.mem e back_edges) retreating
  in
  (* Group back edges by header and take the union of their bodies. *)
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (t, h) ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_header h) in
      Hashtbl.replace by_header h ((t, h) :: cur))
    back_edges;
  let headers = List.sort_uniq Int.compare (List.map snd back_edges) in
  let raw =
    List.map
      (fun h ->
        let edges = Hashtbl.find by_header h in
        let blocks =
          List.fold_left
            (fun acc e -> Int_set.union acc (natural_loop_body cfg e))
            Int_set.empty edges
        in
        (h, blocks, edges))
      headers
  in
  (* Nesting: the parent of a loop is the smallest strictly-containing
     loop. Containment is by block-set inclusion. *)
  let count = List.length raw in
  let arr = Array.of_list raw in
  let parent = Array.make count None in
  for i = 0 to count - 1 do
    let _, bi, _ = arr.(i) in
    for j = 0 to count - 1 do
      if i <> j then begin
        let _, bj, _ = arr.(j) in
        if Int_set.subset bi bj && not (Int_set.equal bi bj) then
          match parent.(i) with
          | None -> parent.(i) <- Some j
          | Some k ->
              let _, bk, _ = arr.(k) in
              if Int_set.cardinal bj < Int_set.cardinal bk then
                parent.(i) <- Some j
      end
    done
  done;
  let children = Array.make count [] in
  Array.iteri
    (fun i p ->
      match p with Some j -> children.(j) <- i :: children.(j) | None -> ())
    parent;
  let rec depth_of i =
    match parent.(i) with None -> 1 | Some j -> 1 + depth_of j
  in
  let loops =
    Array.init count (fun i ->
        let header, blocks, back_edges = arr.(i) in
        {
          index = i;
          header;
          blocks;
          back_edges;
          parent = parent.(i);
          children = children.(i);
          depth = depth_of i;
        })
  in
  let innermost = Array.make (Cfg.num_blocks cfg) (-1) in
  let ordered =
    List.sort
      (fun a b -> Int.compare a.depth b.depth)
      (Array.to_list loops)
  in
  (* Outer loops first, inner loops overwrite. *)
  List.iter
    (fun l -> Int_set.iter (fun b -> innermost.(b) <- l.index) l.blocks)
    ordered;
  { loops; reducible; innermost }

let loops t = t.loops
let reducible t = t.reducible

let innermost_first t =
  List.sort
    (fun a b -> Int.compare b.depth a.depth)
    (Array.to_list t.loops)

let pp ppf t =
  Fmt.pf ppf "@[<v>reducible=%b" t.reducible;
  Array.iter
    (fun l ->
      Fmt.pf ppf "@,loop %d: header=%d depth=%d blocks=%a" l.index l.header
        l.depth Ints.pp_int_set l.blocks)
    t.loops;
  Fmt.pf ppf "@]"

let last_block ~rank loop =
  Int_set.fold
    (fun b last -> if rank.(b) > rank.(last) then b else last)
    loop.blocks loop.header

let small_innermost ~max_blocks cfg =
  let t = compute cfg in
  if not t.reducible then []
  else
    List.filter
      (fun l -> l.children = [] && Int_set.cardinal l.blocks <= max_blocks)
      (innermost_first t)
