open Gis_ir

type label = Cfg.edge_kind

type t = {
  parents : (int * label) list array;
  children : (int * label) list array;
}

let default_edge_label (flow : Flow.t) a b =
  match flow.Flow.succ.(a) with
  | [ _ ] -> Cfg.Always
  | [ ft; tk ] ->
      if b = ft then Cfg.Fallthru
      else if b = tk then Cfg.Taken
      else invalid_arg "Cdg: edge not found"
  | _ -> invalid_arg "Cdg: node with unexpected successor count"

let compute ?edge_label (flow : Flow.t) =
  let edge_label =
    match edge_label with
    | Some f -> f
    | None -> default_edge_label flow
  in
  let n = flow.Flow.num_nodes in
  let post = Dominance.Post.compute flow in
  let vexit = Dominance.Post.virtual_exit post in
  let parents = Array.make n [] in
  let children = Array.make n [] in
  let add dep_on v l =
    if not (List.mem (dep_on, l) parents.(v)) then begin
      parents.(v) <- (dep_on, l) :: parents.(v);
      children.(dep_on) <- (v, l) :: children.(dep_on)
    end
  in
  for a = 0 to n - 1 do
    (* Only branch points generate dependences. An edge that left the
       view (a loop exit) still makes its source a branch point: the
       in-view successors execute only when that branch stays inside. *)
    let fanout =
      List.length flow.Flow.succ.(a)
      + (if List.mem a flow.Flow.extra_exits then 1 else 0)
    in
    if fanout > 1 then
      List.iter
        (fun b ->
          if not (Dominance.Post.postdominates post b a) then begin
            let l = edge_label a b in
            let stop =
              match Dominance.Post.ipostdom_raw post a with
              | Some d -> d
              | None -> vexit
            in
            (* Walk the postdominator tree from [b] up to (excluding)
               ipostdom(a); every node on the way is controlled by [a]. *)
            let rec climb v =
              if v <> stop && v <> vexit then begin
                add a v l;
                match Dominance.Post.ipostdom_raw post v with
                | Some d -> climb d
                | None -> ()
              end
            in
            climb b
          end)
        flow.Flow.succ.(a)
  done;
  { parents; children }

let parents t v = t.parents.(v)

let immediate_successors t v =
  List.sort_uniq Int.compare (List.map fst t.children.(v))

let canonical deps =
  List.sort_uniq
    (fun (a, la) (b, lb) ->
      match Int.compare a b with 0 -> Stdlib.compare la lb | c -> c)
    deps

let identically_dependent t a b =
  canonical t.parents.(a) = canonical t.parents.(b)

let speculation_degree t ~src ~dst =
  (* BFS over CSPDG children; the graph is acyclic and small. *)
  let n = Array.length t.children in
  let dist = Array.make n (-1) in
  let q = Queue.create () in
  dist.(src) <- 0;
  Queue.add src q;
  let rec loop () =
    if Queue.is_empty q then ()
    else begin
      let v = Queue.pop q in
      List.iter
        (fun (c, _) ->
          if dist.(c) = -1 then begin
            dist.(c) <- dist.(v) + 1;
            Queue.add c q
          end)
        t.children.(v);
      loop ()
    end
  in
  loop ();
  if dist.(dst) = -1 then None else Some dist.(dst)

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  Array.iteri
    (fun v deps ->
      if deps <> [] then
        Fmt.pf ppf "%d <- %a@,"
          v
          Fmt.(
            list ~sep:comma (fun ppf (d, l) ->
                pf ppf "%d/%a" d Cfg.pp_edge_kind l))
          deps)
    t.parents;
  Fmt.pf ppf "@]"
