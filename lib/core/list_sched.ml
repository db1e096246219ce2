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
      for k = 0 to Ddg.num_preds ddg i - 1 do
        let p = (Ddg.pred ddg i k).Ddg.src in
        if fulfilled p then ()
        else if candidate.(p) then pending.(i) <- pending.(i) + 1
        else barred.(i) <- true
      done
  done;
  let live i = candidate.(i) && issue.(i) = -1 in
  let emitted = Vec.create () in
  let own_left = ref (List.length own) in
  let cycle = ref 0 in
  let finished = ref false in
  (* Functional units by index, with the issue slots each has left in
     the current cycle. *)
  let capacity =
    Array.map (Gis_machine.Machine.units machine) [| Instr.Fixed; Instr.Float; Instr.Branch |]
  in
  let slots = Array.copy capacity in
  let unit_of i =
    match (Ddg.node ddg i).Ddg.instr with
    | Some ins -> (
        match Instr.unit_ty ins with
        | Instr.Fixed -> 0
        | Instr.Float -> 1
        | Instr.Branch -> 2)
    | None -> 0
  in
  (* Ready-list machinery. Candidates whose dependences are satisfied
     sit in [ready_h]; candidates whose operands become available at a
     known future cycle wait in [waiting] ordered by [ready_at]. A
     node's [ready_at] is final once its last in-flight predecessor has
     issued, which is exactly when it is released, so [waiting] keys
     never go stale. Entries keep the [item] they were queued with
     until a commit answers [Accept_rekeyed]. No node is queued twice:
     it enters once, on release, and every entry taken out goes back or
     is decided. *)
  let ready_h = Heap.create ~cmp:(fun a b -> Priority.compare ~rules a b) in
  let waiting =
    Heap.create ~cmp:(fun (a : Priority.item) (b : Priority.item) ->
        Int.compare ready_at.(a.Priority.node) ready_at.(b.Priority.node))
  in
  let deferred = Vec.create () in
  (* How many [ready_h] entries each unit has. While no unit with a free
     slot has any, no entry can issue this cycle, and the heap is left
     as it is rather than emptied into [deferred] and refilled next
     cycle: nothing reads it again before then. *)
  let queued = Array.make (Array.length capacity) 0 in
  let enqueue (it : Priority.item) =
    let u = unit_of it.Priority.node in
    queued.(u) <- queued.(u) + 1;
    Heap.push ready_h it
  in
  let dequeue () =
    let it = Heap.pop ready_h in
    let u = unit_of it.Priority.node in
    queued.(u) <- queued.(u) - 1;
    it
  in
  let rec issuable u =
    u < Array.length slots && ((slots.(u) > 0 && queued.(u) > 0) || issuable (u + 1))
  in
  let rekey () =
    let fresh (it : Priority.item) = item it.Priority.node in
    Heap.rekey fresh ready_h;
    Heap.rekey fresh waiting;
    for k = 0 to Vec.length deferred - 1 do
      Vec.set deferred k (fresh (Vec.get deferred k))
    done
  in
  let release i =
    if i <> term && live i && not barred.(i) then begin
      let it = item i in
      if ready_at.(i) <= !cycle then enqueue it
      else Heap.push waiting it
    end
  in
  for i = 0 to n - 1 do
    if candidate.(i) && pending.(i) = 0 then release i
  done;
  let basic_ready i =
    live i && (not barred.(i)) && pending.(i) = 0
    && ready_at.(i) <= !cycle
    && slots.(unit_of i) > 0
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
    if not (issuable 0) then None
    else
      let it = dequeue () in
      let i = it.Priority.node in
      if not (live i) then pick_ready ()
      else if slots.(unit_of i) > 0 then Some it
      else begin
        Vec.push deferred it;
        pick_ready ()
      end
  in
  (* Best still-live entry left in the heap. Popped entries go straight
     back; the comparator is total, so re-pushing cannot perturb pop
     order. *)
  let runner_up () =
    let popped = ref [] in
    let rec go () =
      if Heap.is_empty ready_h then None
      else
        let it = Heap.pop ready_h in
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
          enqueue it;
          tt
        end
        else begin
          tally it t;
          s
        end
  in
  let accept i =
    issue.(i) <- !cycle;
    slots.(unit_of i) <- slots.(unit_of i) - 1;
    Vec.push emitted i;
    if is_own.(i) then decr own_left;
    for k = 0 to Ddg.num_succs ddg i - 1 do
      let e = Ddg.succ ddg i k in
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
      end
    done;
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
    Array.blit capacity 0 slots 0 (Array.length slots);
    (* Start-of-cycle: operands newly available this cycle, plus
       candidates shut out by unit saturation last cycle (units never
       free up mid-cycle, so they could not have issued any earlier). *)
    for k = 0 to Vec.length deferred - 1 do
      enqueue (Vec.get deferred k)
    done;
    Vec.clear deferred;
    while
      (not (Heap.is_empty waiting))
      && ready_at.((Heap.top waiting).Priority.node) <= !cycle
    do
      enqueue (Heap.pop waiting)
    done;
    step ();
    (* Stalled for good: nothing left to issue ever, and the terminator
       can only wait for a cycle when its gate is open and its operands
       are in flight. *)
    if
      (not !finished) && Vec.is_empty deferred
      && Heap.is_empty ready_h
      && Heap.is_empty waiting
      && not
           (!own_left = 1 && live term
           && (not barred.(term))
           && pending.(term) = 0)
    then failwith "List_sched: stalled";
    incr cycle
  done;
  (Vec.to_list emitted, issue)
