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
     one, and a block's nodes are numbered consecutively in position
     order, so visiting nodes in decreasing index visits every node
     after its successors (paper: "by visiting I after visiting its
     data dependence successors"). *)
  for i = n - 1 downto 0 do
    let v = (Ddg.node ddg i).Ddg.view_node in
    for k = 0 to Ddg.num_succs ddg i - 1 do
      let e = Ddg.succ ddg i k in
      let j = e.Ddg.dst in
      if (Ddg.node ddg j).Ddg.view_node = v then begin
        d.(i) <- max d.(i) (d.(j) + e.Ddg.delay);
        cp.(i) <- max cp.(i) (cp.(j) + e.Ddg.delay + Ddg.exec_time ddg i)
      end
    done
  done;
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
