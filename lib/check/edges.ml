open Gis_ir

let succs cfg id =
  List.map
    (fun l ->
      match Cfg.find_label cfg l with
      | Some s -> s
      | None -> invalid_arg (Fmt.str "Edges.succs: unknown label %a" Label.pp l))
    (Block.successor_labels (Cfg.block cfg id))

let preds cfg =
  let preds = Array.make (Cfg.num_blocks cfg) [] in
  for id = Cfg.num_blocks cfg - 1 downto 0 do
    List.iter (fun s -> preds.(s) <- id :: preds.(s)) (succs cfg id)
  done;
  preds
