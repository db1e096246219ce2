open Gis_ir

let unit_name u = Fmt.str "%a" Instr.pp_unit_ty u

(* Group consecutive events that share an issue cycle. Events arrive
   chronologically, so a plain left fold suffices. *)
let by_cycle events =
  List.fold_left
    (fun acc (e : Trace.event) ->
      match acc with
      | (c, es) :: rest when c = e.Trace.cycle -> (c, e :: es) :: rest
      | _ -> (e.Trace.cycle, [ e ]) :: acc)
    [] events
  |> List.rev_map (fun (c, es) -> (c, List.rev es))

(* Compact per-line stall code; the expansion is printed once in the
   diagram header rather than spelled out on every stalled line. *)
let stall_code ppf = function
  | Trace.No_stall -> Fmt.string ppf "--"
  | Trace.In_order k -> Fmt.pf ppf "IO+%d" k
  | Trace.Interlock { reg; producer } ->
      Fmt.pf ppf "RAW %a<-#%d" Reg.pp reg producer
  | Trace.Mem_interlock { producer } -> Fmt.pf ppf "STQ #%d" producer
  | Trace.Call_interlock { producer } -> Fmt.pf ppf "CALL #%d" producer
  | Trace.Unit_busy u -> Fmt.pf ppf "UNIT %a" Instr.pp_unit_ty u

let pp_legend ppf () =
  Fmt.pf ppf
    "stall legend: RAW=register interlock  STQ=store-queue delay  \
     CALL=serialized behind call  UNIT=functional unit busy  \
     IO+k=in-order issue (operands ready k cycles early)@."

let pp_issue_diagram ppf (s : Trace.summary) =
  match s.Trace.events with
  | [] ->
      Fmt.pf ppf
        "(no issue trace recorded — run the simulator with tracing enabled)@."
  | events ->
      pp_legend ppf ();
      let groups = by_cycle events in
      let prev = ref (-1) in
      List.iter
        (fun (cycle, es) ->
          (* Cycles where nothing issued: attribute them to the binding
             stall of the instruction that eventually broke the silence. *)
          (if cycle > !prev + 1 then
             let first = List.hd es in
             match first.Trace.stall with
             | Trace.No_stall | Trace.In_order _ ->
                 Fmt.pf ppf "cycle %4d-%-4d | -- stall --@." (!prev + 1)
                   (cycle - 1)
             | st ->
                 Fmt.pf ppf "cycle %4d-%-4d | -- %a --@." (!prev + 1)
                   (cycle - 1) stall_code st);
          Fmt.pf ppf "cycle %4d |" cycle;
          List.iter
            (fun (e : Trace.event) ->
              Fmt.pf ppf " %s: %a |" (unit_name e.Trace.unit_) Instr.pp
                e.Trace.instr)
            es;
          (match es with
          | [ e ] -> (
              match e.Trace.stall with
              | Trace.Interlock _ | Trace.Mem_interlock _
              | Trace.Call_interlock _ | Trace.Unit_busy _
                when e.Trace.gap > 0 ->
                  Fmt.pf ppf " (%a)" stall_code e.Trace.stall
              | _ -> ())
          | _ -> ());
          Fmt.pf ppf "@.";
          prev := cycle)
        groups

(* ASCII pipeline occupancy: one row per functional unit, one column
   per cycle. '#' marks an issue, '=' marks cycles an earlier issue is
   still executing on the unit, a digit marks multi-issue on a
   superscalar unit, '.' is idle. Wide traces are windowed to the
   first [max_cycles] columns with a truncation note. *)
let pp_pipeline ?(max_cycles = 120) ppf (s : Trace.summary) =
  match s.Trace.events with
  | [] ->
      Fmt.pf ppf
        "(no issue trace recorded — run the simulator with tracing enabled)@."
  | events ->
      let span = s.Trace.last_issue + 1 in
      let shown = min span max_cycles in
      let unit_tys = [ Instr.Fixed; Instr.Float; Instr.Branch ] in
      let rank = function
        | Instr.Fixed -> 0
        | Instr.Float -> 1
        | Instr.Branch -> 2
      in
      let issues = Array.make_matrix 3 shown 0 in
      let exec = Array.make_matrix 3 shown false in
      List.iter
        (fun (e : Trace.event) ->
          let r = rank e.Trace.unit_ in
          if e.Trace.cycle < shown then
            issues.(r).(e.Trace.cycle) <- issues.(r).(e.Trace.cycle) + 1;
          for c = e.Trace.cycle + 1 to min (e.Trace.fin - 1) (shown - 1) do
            exec.(r).(c) <- true
          done)
        events;
      (* Decade ruler so columns can be read off against cycle numbers. *)
      Fmt.pf ppf "%8s " "";
      for c = 0 to shown - 1 do
        Fmt.pf ppf "%c" (if c mod 10 = 0 then Char.chr (0x30 + c / 10 mod 10) else ' ')
      done;
      Fmt.pf ppf "@.";
      List.iter
        (fun u ->
          let r = rank u in
          Fmt.pf ppf "%8s " (unit_name u);
          for c = 0 to shown - 1 do
            let ch =
              match issues.(r).(c) with
              | 0 -> if exec.(r).(c) then '=' else '.'
              | 1 -> '#'
              | k -> Char.chr (0x30 + min k 9)
            in
            Fmt.pf ppf "%c" ch
          done;
          Fmt.pf ppf "@.")
        unit_tys;
      if span > shown then
        Fmt.pf ppf "(%d of %d cycles shown)@." shown span

let pp_summary ppf (s : Trace.summary) =
  Fmt.pf ppf
    "issue span %d cycles; stalls: interlock %d, store-queue %d, call %d"
    s.Trace.last_issue s.Trace.interlock_cycles s.Trace.mem_interlock_cycles
    s.Trace.call_interlock_cycles;
  List.iter
    (fun (u : Trace.unit_stat) ->
      Fmt.pf ppf ", %s-busy %d" (unit_name u.Trace.unit_) u.Trace.busy_stall)
    s.Trace.units;
  Fmt.pf ppf "; in-order-bound instrs %d@." s.Trace.in_order_instrs;
  List.iter
    (fun (u : Trace.unit_stat) ->
      let span = s.Trace.last_issue + 1 in
      let busy_cycles =
        List.fold_left
          (fun acc (k, c) -> if k > 0 then acc + c else acc)
          0 u.Trace.histogram
      in
      Fmt.pf ppf "  unit %-6s: %6d issues, active %d/%d cycles (%.1f%%)@."
        (unit_name u.Trace.unit_) u.Trace.issues busy_cycles span
        (100.0 *. float_of_int busy_cycles /. float_of_int (max 1 span)))
    s.Trace.units;
  List.iter
    (fun (b : Trace.block_stat) ->
      Fmt.pf ppf "  block %-8s: %6d entries, %6d instrs, %6d stall cycles@."
        b.Trace.block b.Trace.entries b.Trace.instrs b.Trace.stall_cycles)
    s.Trace.blocks
