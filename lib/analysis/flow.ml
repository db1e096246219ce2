open Gis_util
open Gis_ir

type t = {
  num_nodes : int;
  entry : int;
  succ : int list array;
  pred : int list array;
  to_block : int array;
  extra_exits : int list;
}

let local_of_block t =
  let open Ints in
  let map = ref Int_map.empty in
  Array.iteri
    (fun local blk -> if blk >= 0 then map := Int_map.add blk local !map)
    t.to_block;
  !map

let derive_preds num_nodes succ =
  let pred = Array.make num_nodes [] in
  Array.iteri
    (fun a succs -> List.iter (fun b -> pred.(b) <- a :: pred.(b)) succs)
    succ;
  Array.map List.rev pred

let make ?(extra_exits = []) ~entry ~to_block succ =
  let num_nodes = Array.length succ in
  if Array.length to_block <> num_nodes then
    invalid_arg "Flow.make: to_block length mismatch";
  if entry < 0 || entry >= num_nodes then invalid_arg "Flow.make: bad entry";
  {
    num_nodes;
    entry;
    succ;
    pred = derive_preds num_nodes succ;
    to_block;
    extra_exits = List.sort_uniq Int.compare extra_exits;
  }

let exit_nodes t =
  let sinks =
    List.filter (fun v -> t.succ.(v) = []) (List.init t.num_nodes Fun.id)
  in
  List.sort_uniq Int.compare (sinks @ t.extra_exits)

let of_cfg ?blocks ?(masked_edges = []) ~entry cfg =
  let open Ints in
  let keep =
    match blocks with
    | Some s -> s
    | None ->
        List.fold_left
          (fun acc id -> Int_set.add id acc)
          Int_set.empty (Cfg.layout cfg)
  in
  if not (Int_set.mem entry keep) then
    invalid_arg "Flow.of_cfg: entry not in block subset";
  let ids = Int_set.elements keep in
  let to_block = Array.of_list ids in
  let of_block =
    List.fold_left
      (fun (m, i) blk -> (Int_map.add blk i m, i + 1))
      (Int_map.empty, 0) ids
    |> fst
  in
  let masked = List.fold_left (fun s e -> e :: s) [] masked_edges in
  let is_masked a b = List.exists (fun (x, y) -> x = a && y = b) masked in
  let extra_exits = ref [] in
  let succ =
    Array.mapi
      (fun local blk ->
        Cfg.successors cfg blk
        |> List.filter_map (fun (s, _) ->
               if Int_set.mem s keep && not (is_masked blk s) then
                 Int_map.find_opt s of_block
               else begin
                 extra_exits := local :: !extra_exits;
                 None
               end))
      to_block
  in
  let entry_local =
    match Int_map.find_opt entry of_block with
    | Some i -> i
    | None -> invalid_arg "Flow.of_cfg: entry vanished"
  in
  make ~extra_exits:!extra_exits ~entry:entry_local ~to_block succ

let reverse t ~exit_nodes =
  let n = t.num_nodes in
  let succ = Array.make (n + 1) [] in
  for v = 0 to n - 1 do
    succ.(v) <- t.pred.(v)
  done;
  succ.(n) <- exit_nodes;
  let to_block = Array.append t.to_block [| -1 |] in
  make ~entry:n ~to_block succ

let postorder t =
  let seen = Array.make t.num_nodes false in
  let order = ref [] in
  let rec go v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter go t.succ.(v);
      order := v :: !order
    end
  in
  go t.entry;
  List.rev !order

let reverse_postorder t = List.rev (postorder t)

let reachable_matrix t =
  let n = t.num_nodes in
  let m = Array.make_matrix n n false in
  for src = 0 to n - 1 do
    let rec go v =
      if not m.(src).(v) then begin
        m.(src).(v) <- true;
        List.iter go t.succ.(v)
      end
    in
    go src
  done;
  m

let reachable_rows t =
  let n = t.num_nodes in
  Array.init n (fun src ->
      let row = Bitset.create n in
      let rec go v =
        if not (Bitset.mem row v) then begin
          Bitset.add row v;
          List.iter go t.succ.(v)
        end
      in
      go src;
      row)

let is_acyclic t =
  (* White/grey/black DFS over every node. *)
  let color = Array.make t.num_nodes 0 in
  let rec go v =
    if color.(v) = 1 then false
    else if color.(v) = 2 then true
    else begin
      color.(v) <- 1;
      let ok = List.for_all go t.succ.(v) in
      color.(v) <- 2;
      ok
    end
  in
  let rec all v = v >= t.num_nodes || (go v && all (v + 1)) in
  all 0

let pp ppf t =
  Fmt.pf ppf "@[<v>entry=%d" t.entry;
  Array.iteri
    (fun v succs ->
      Fmt.pf ppf "@,%d (blk %d) -> %a" v t.to_block.(v)
        Fmt.(list ~sep:comma int)
        succs)
    t.succ;
  Fmt.pf ppf "@]"
