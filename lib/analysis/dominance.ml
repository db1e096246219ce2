open Gis_util

type t = {
  flow : Flow.t;
  idom : int array;  (** idom.(v); entry maps to itself; -1 unreachable *)
  (* Euler-tour intervals over the dominator tree give O(1)
     ancestor queries. *)
  tin : int array;
  tout : int array;
  depth : int array;
  children : int list array;
}

(* Cooper, Harvey, Kennedy: "A simple, fast dominance algorithm". *)
let compute_idoms (flow : Flow.t) =
  let n = flow.Flow.num_nodes in
  let rpo = Flow.reverse_postorder flow in
  let rpo_index = Array.make n (-1) in
  List.iteri (fun i v -> rpo_index.(v) <- i) rpo;
  let idom = Array.make n (-1) in
  idom.(flow.Flow.entry) <- flow.Flow.entry;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while rpo_index.(!a) > rpo_index.(!b) do
        a := idom.(!a)
      done;
      while rpo_index.(!b) > rpo_index.(!a) do
        b := idom.(!b)
      done
    done;
    !a
  in
  let step () =
    let changed = ref false in
    List.iter
      (fun v ->
        if v <> flow.Flow.entry then begin
          let processed_preds =
            List.filter (fun p -> idom.(p) <> -1) flow.Flow.pred.(v)
          in
          match processed_preds with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if idom.(v) <> new_idom then begin
                idom.(v) <- new_idom;
                changed := true
              end
        end)
      rpo;
    !changed
  in
  ignore (Fix.iterate step);
  idom

let compute flow =
  let n = flow.Flow.num_nodes in
  let idom = compute_idoms flow in
  let children = Array.make n [] in
  for v = 0 to n - 1 do
    if idom.(v) <> -1 && v <> flow.Flow.entry then
      children.(idom.(v)) <- v :: children.(idom.(v))
  done;
  let tin = Array.make n (-1) and tout = Array.make n (-1) in
  let depth = Array.make n (-1) in
  let clock = ref 0 in
  let rec dfs d v =
    depth.(v) <- d;
    tin.(v) <- !clock;
    incr clock;
    List.iter (dfs (d + 1)) children.(v);
    tout.(v) <- !clock;
    incr clock
  in
  dfs 0 flow.Flow.entry;
  { flow; idom; tin; tout; depth; children }

let reachable t v = t.idom.(v) <> -1

let idom t v =
  if (not (reachable t v)) || v = t.flow.Flow.entry then None
  else Some t.idom.(v)

let dominates t a b =
  reachable t a && reachable t b && t.tin.(a) <= t.tin.(b)
  && t.tout.(b) <= t.tout.(a)

let dom_tree_depth t v = t.depth.(v)

module Post = struct
  type post = {
    dom : t;  (** dominance over the reversed graph *)
    vexit : int;
  }

  let compute flow =
    let n = flow.Flow.num_nodes in
    let rev = Flow.reverse flow ~exit_nodes:(Flow.exit_nodes flow) in
    { dom = compute rev; vexit = n }

  let postdominates p b a = dominates p.dom b a

  let virtual_exit p = p.vexit

  let ipostdom_raw p v = idom p.dom v

  let ipostdom p v =
    match idom p.dom v with
    | Some d when d <> p.vexit -> Some d
    | Some _ | None -> None
end

let equivalent dom post a b =
  dominates dom a b && Post.postdominates post b a

let naive_dominators (flow : Flow.t) =
  let open Ints in
  let n = flow.Flow.num_nodes in
  let all = List.fold_left (fun s v -> Int_set.add v s) Int_set.empty (List.init n Fun.id) in
  let reach = Array.make n false in
  let rec mark v =
    if not reach.(v) then begin
      reach.(v) <- true;
      List.iter mark flow.Flow.succ.(v)
    end
  in
  mark flow.Flow.entry;
  let doms = Array.make n Int_set.empty in
  for v = 0 to n - 1 do
    if reach.(v) then
      doms.(v) <-
        (if v = flow.Flow.entry then Int_set.singleton v else all)
  done;
  let step () =
    let changed = ref false in
    for v = 0 to n - 1 do
      if reach.(v) && v <> flow.Flow.entry then begin
        let preds = List.filter (fun p -> reach.(p)) flow.Flow.pred.(v) in
        let inter =
          match preds with
          | [] -> Int_set.empty
          | first :: rest ->
              List.fold_left
                (fun acc p -> Int_set.inter acc doms.(p))
                doms.(first) rest
        in
        let next = Int_set.add v inter in
        if not (Int_set.equal next doms.(v)) then begin
          doms.(v) <- next;
          changed := true
        end
      end
    done;
    !changed
  in
  ignore (Fix.iterate step);
  doms
