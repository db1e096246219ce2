open Gis_util
open Gis_ir
open Gis_ddg

type verdict = Accept | Accept_rekeyed | Reject

let run ?(fulfilled = fun _ -> false) ?(yields_to = []) ?tally ~machine ~rules
    ~item ~commit ~own ~imports ~term ddg =
  let n = Ddg.num_nodes ddg in
  let candidate = Array.make n false in
  let is_own = Array.make n false in
  List.iter (fun i -> candidate.(i) <- true) imports;
  List.iter
    (fun i ->
      candidate.(i) <- true;
      is_own.(i) <- true)
    own;
  (* Per-candidate dependence bookkeeping. A candidate whose
     predecessor is neither fulfilled nor a candidate can never become
     ready during this run. *)
  let pending = Array.make n 0 in
  let ready_at = Array.make n 0 in
  let barred = Array.make n false in
  let issue = Array.make n (-1) in
  for i = 0 to n - 1 do
    if candidate.(i) then
      List.iter
        (fun (e : Ddg.edge) ->
          let p = e.Ddg.src in
          if fulfilled p then ()
          else if candidate.(p) then pending.(i) <- pending.(i) + 1
          else barred.(i) <- true)
        (Ddg.preds ddg i)
  done;
  let live i = candidate.(i) && issue.(i) = -1 in
  let emitted = Vec.create () in
  let own_left = ref (List.length own) in
  let cycle = ref 0 in
  let finished = ref false in
  let unit_of i =
    match (Ddg.node ddg i).Ddg.instr with
    | Some ins -> Instr.unit_ty ins
    | None -> Instr.Fixed
  in
  let slots = Hashtbl.create 3 in
  let slots_left u =
    match Hashtbl.find_opt slots u with
    | Some k -> k
    | None -> Gis_machine.Machine.units machine u
  in
  let take_slot u = Hashtbl.replace slots u (slots_left u - 1) in
  (* Ready-list machinery. Candidates whose dependences are satisfied
     sit in [ready_h]; candidates whose operands become available at a
     known future cycle wait in [waiting] keyed by that cycle. A node's
     [ready_at] is final once its last in-flight predecessor has issued,
     which is exactly when it is released, so [waiting] keys never go
     stale. Entries keep the [item] they were queued with until a
     commit answers [Accept_rekeyed]. *)
  let ready_h = Heap.create ~cmp:(Priority.compare ~rules) in
  let waiting = Heap.create ~cmp:(fun (ra, _) (rb, _) -> Int.compare ra rb) in
  let deferred = ref [] in
  let rekey () =
    let rec drain h acc =
      match Heap.pop h with Some x -> drain h (x :: acc) | None -> acc
    in
    List.iter
      (fun it -> Heap.push ready_h (item it.Priority.node))
      (drain ready_h []);
    List.iter
      (fun (r, it) -> Heap.push waiting (r, item it.Priority.node))
      (drain waiting []);
    deferred := List.map (fun it -> item it.Priority.node) !deferred
  in
  let release i =
    if i <> term && live i && not barred.(i) then begin
      let it = item i in
      if ready_at.(i) <= !cycle then Heap.push ready_h it
      else Heap.push waiting (ready_at.(i), it)
    end
  in
  for i = 0 to n - 1 do
    if candidate.(i) && pending.(i) = 0 then release i
  done;
  let basic_ready i =
    live i && (not barred.(i)) && pending.(i) = 0
    && ready_at.(i) <= !cycle
    && slots_left (unit_of i) > 0
  in
  let term_item () =
    if
      !own_left = 1 && basic_ready term
      && not (List.exists basic_ready yields_to)
    then Some (item term)
    else None
  in
  (* Best heap entry that can still issue this cycle; entries whose
     unit is saturated move to [deferred] for the next cycle. *)
  let rec pick_ready () =
    match Heap.pop ready_h with
    | None -> None
    | Some it ->
        let i = it.Priority.node in
        if not (live i) then pick_ready ()
        else if slots_left (unit_of i) > 0 then Some it
        else begin
          deferred := it :: !deferred;
          pick_ready ()
        end
  in
  (* Best still-live entry left in the heap. Popped entries go straight
     back; the comparator is total, so re-pushing cannot perturb pop
     order. *)
  let runner_up () =
    let popped = ref [] in
    let rec go () =
      match Heap.pop ready_h with
      | None -> None
      | Some it ->
          popped := it :: !popped;
          if live it.Priority.node then Some it else go ()
    in
    let res = go () in
    List.iter (Heap.push ready_h) !popped;
    res
  in
  let pick () =
    match pick_ready (), term_item () with
    | None, t -> t
    | (Some it as s), None ->
        (match tally with
        | Some f -> Option.iter (f it) (runner_up ())
        | None -> ());
        s
    | (Some it as s), (Some t as tt) ->
        let tally = Option.value tally ~default:(fun _ _ -> ()) in
        if Priority.compare ~rules t it < 0 then begin
          tally t it;
          Heap.push ready_h it;
          tt
        end
        else begin
          tally it t;
          s
        end
  in
  let accept i =
    issue.(i) <- !cycle;
    take_slot (unit_of i);
    Vec.push emitted i;
    if is_own.(i) then decr own_left;
    List.iter
      (fun (e : Ddg.edge) ->
        let j = e.Ddg.dst in
        if candidate.(j) then begin
          pending.(j) <- pending.(j) - 1;
          let avail =
            match e.Ddg.kind with
            | Ddg.Flow -> !cycle + Ddg.exec_time ddg i + e.Ddg.delay
            | Ddg.Anti | Ddg.Output | Ddg.Mem -> !cycle + e.Ddg.delay
          in
          ready_at.(j) <- max ready_at.(j) avail;
          if pending.(j) = 0 then release j
        end)
      (Ddg.succs ddg i);
    if i = term then finished := true
  in
  let rec step () =
    if not !finished then
      match pick () with
      | None -> ()
      | Some it ->
          let i = it.Priority.node in
          (match commit it with
          | Accept -> accept i
          | Accept_rekeyed ->
              accept i;
              rekey ()
          | Reject -> candidate.(i) <- false);
          step ()
  in
  while not !finished do
    Hashtbl.reset slots;
    (* Start-of-cycle: operands newly available this cycle, plus
       candidates shut out by unit saturation last cycle (units never
       free up mid-cycle, so they could not have issued any earlier). *)
    List.iter (Heap.push ready_h) !deferred;
    deferred := [];
    let rec drain_waiting () =
      match Heap.peek waiting with
      | Some (r, it) when r <= !cycle ->
          ignore (Heap.pop waiting);
          Heap.push ready_h it;
          drain_waiting ()
      | Some _ | None -> ()
    in
    drain_waiting ();
    step ();
    (* Stalled for good: nothing left to issue ever, and the terminator
       can only wait for a cycle when its gate is open and its operands
       are in flight. *)
    if
      (not !finished) && !deferred = []
      && Heap.peek ready_h = None
      && Heap.peek waiting = None
      && not
           (!own_left = 1 && live term
           && (not barred.(term))
           && pending.(term) = 0)
    then failwith "List_sched: stalled";
    incr cycle
  done;
  (Vec.to_list emitted, issue)
