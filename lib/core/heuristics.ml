open Gis_ddg

type t = { d : int array; cp : int array }

let compute ddg =
  let n = Ddg.num_nodes ddg in
  let d = Array.make n 0 in
  let cp = Array.make n 0 in
  for i = 0 to n - 1 do
    cp.(i) <- Ddg.exec_time ddg i
  done;
  (* Intra-block edges always point from a smaller [pos] to a larger
     one, so visiting each block's nodes in reverse position order
     visits every node after its successors (paper: "by visiting I
     after visiting its data dependence successors"). *)
  let visit i =
    let nd = Ddg.node ddg i in
    List.iter
      (fun (e : Ddg.edge) ->
        if (Ddg.node ddg e.Ddg.dst).Ddg.view_node = nd.Ddg.view_node then begin
          d.(i) <- max d.(i) (d.(e.Ddg.dst) + e.Ddg.delay);
          cp.(i) <-
            max cp.(i) (cp.(e.Ddg.dst) + e.Ddg.delay + Ddg.exec_time ddg i)
        end)
      (Ddg.succs ddg i)
  in
  (* Nodes of a block are returned in position order; iterate over all
     blocks' lists reversed. *)
  let rec each_view v =
    if v >= 0 then begin
      List.iter visit (List.rev (Ddg.nodes_of_view_node ddg v));
      each_view (v - 1)
    end
  in
  (* View nodes are 0..k-1; find k by probing node view indices. *)
  let max_view =
    let rec go i acc =
      if i >= n then acc else go (i + 1) (max acc (Ddg.node ddg i).Ddg.view_node)
    in
    go 0 (-1)
  in
  each_view max_view;
  { d; cp }

let d t i = t.d.(i)
let cp t i = t.cp.(i)

let import_pressure ~live ~count ~budget inst =
  List.fold_left
    (fun acc r ->
      if live r then acc
      else
        let n = count r.Gis_ir.Reg.cls in
        let b = budget r.Gis_ir.Reg.cls in
        if n >= b then acc + 1 + (n - b) else acc)
    0
    (Gis_ir.Instr.defs inst)

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  Array.iteri (fun i dv -> Fmt.pf ppf "node %d: D=%d CP=%d@," i dv t.cp.(i)) t.d;
  Fmt.pf ppf "@]"
