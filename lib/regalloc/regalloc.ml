open Gis_ir
open Gis_machine
open Gis_sim

type interval = { reg : Reg.t; start : int; stop : int }

type cls_stat = { cls : Reg.cls; budget : int; pressure : int; used : int }

type t = {
  assignment : (Reg.t * Reg.t) list;
  spilled : (Reg.t * int) list;
  intervals : interval list;
  entry_live : Reg.t list;
  frame : Reg.t option;
  spill_loads : int;
  spill_stores : int;
  cr_spill_moves : int;
  slots : int;
  per_class : cls_stat list;
}

exception Alloc_error of string

exception Infeasible of string

let () =
  Printexc.register_printer (function
    | Infeasible m -> Some (Fmt.str "Regalloc.Infeasible(%S)" m)
    | _ -> None)

(* Spill slots live in a dedicated spill segment, not in program
   memory: the simulator routes every load/store whose base register
   is the reserved frame register ({!field-frame}) to a separate
   address space. Slot offsets can therefore start at 0 — no numeric
   range is "unreachable" from program arithmetic (a shifted or
   multiplied index can produce any integer), so isolation is by base
   register identity, never by address. Word slots for GPRs and CRs;
   doubles get 8-byte strides so printed addresses stay plausible. *)
let slot_offset (cls : Reg.cls) k =
  match cls with Reg.Fpr -> 8 * k | Reg.Gpr | Reg.Cr -> 4 * k

(* ---- live intervals ---- *)

(* Linearize blocks in layout order: a block-start position, then each
   instruction two apart, then a block-end position. One conservative
   interval per register (the classic linear-scan simplification):
   live-in extends it to the block start, live-out to the block end, so
   any hole inside the range is simply over-approximated away. *)
let build_intervals cfg =
  let live = Gis_analysis.Liveness.compute cfg in
  let tbl : (int, Reg.t * int ref * int ref) Hashtbl.t = Hashtbl.create 64 in
  let touch r p =
    match Hashtbl.find_opt tbl (Reg.hash r) with
    | Some (_, s, e) ->
        if p < !s then s := p;
        if p > !e then e := p
    | None -> Hashtbl.add tbl (Reg.hash r) (r, ref p, ref p)
  in
  let pos = ref 0 in
  List.iter
    (fun bid ->
      let b = Cfg.block cfg bid in
      let block_start = !pos in
      Gis_analysis.Liveness.iter_live_in live bid (fun r -> touch r block_start);
      List.iter
        (fun i ->
          pos := !pos + 2;
          List.iter (fun r -> touch r !pos) (Instr.uses i);
          List.iter (fun r -> touch r !pos) (Instr.defs i))
        (Block.instrs b);
      Gis_analysis.Liveness.iter_live_out live bid (fun r -> touch r (!pos + 1));
      pos := !pos + 2)
    (Cfg.layout cfg);
  let intervals =
    Hashtbl.fold
      (fun _ (r, s, e) acc -> { reg = r; start = !s; stop = !e } :: acc)
      tbl []
    |> List.sort (fun a b ->
           match Int.compare a.start b.start with
           | 0 -> Reg.compare a.reg b.reg
           | c -> c)
  in
  let entry_live = ref [] in
  Gis_analysis.Liveness.iter_live_in live (Cfg.entry cfg) (fun r ->
      entry_live := r :: !entry_live);
  let entry_live = List.sort Reg.compare !entry_live in
  (intervals, entry_live)

let class_pressure intervals cls =
  let events =
    List.concat_map
      (fun iv ->
        if iv.reg.Reg.cls = cls then [ (iv.start, 1); (iv.stop + 1, -1) ]
        else [])
      intervals
    |> List.sort compare
  in
  snd
    (List.fold_left
       (fun (cur, peak) (_, d) ->
         let c = cur + d in
         (c, max peak c))
       (0, 0) events)

(* ---- the scan (Poletto & Sarkar) ---- *)

(* Returns (assignment, spilled, slot count); physical registers are
   represented by their pool index until [phys] materializes them. *)
let scan ~pool_size ~phys intervals =
  let assignment : (int, Reg.t * Reg.t) Hashtbl.t = Hashtbl.create 64 in
  let spilled : (int, Reg.t * int) Hashtbl.t = Hashtbl.create 8 in
  let slots = ref 0 in
  let free : (Reg.cls, int list ref) Hashtbl.t = Hashtbl.create 3 in
  let active : (Reg.cls, (interval * int) list ref) Hashtbl.t =
    Hashtbl.create 3
  in
  let cell tbl cls init =
    match Hashtbl.find_opt tbl cls with
    | Some l -> l
    | None ->
        let l = ref (init ()) in
        Hashtbl.add tbl cls l;
        l
  in
  let spill iv =
    (* Condition registers spill like everything else: through memory,
       via an integer transfer scratch (see [rewrite]). *)
    Hashtbl.replace spilled (Reg.hash iv.reg) (iv.reg, !slots);
    incr slots
  in
  List.iter
    (fun iv ->
      let cls = iv.reg.Reg.cls in
      let fl = cell free cls (fun () -> List.init (pool_size cls) Fun.id) in
      let al = cell active cls (fun () -> []) in
      (* Expire: strictly-before intervals can share a register — equal
         endpoints are kept apart (a def at the very position of
         another value's last use is conservative territory). *)
      let expired, keep = List.partition (fun (a, _) -> a.stop < iv.start) !al in
      al := keep;
      List.iter (fun (_, n) -> fl := List.sort Int.compare (n :: !fl)) expired;
      let insert_active entry =
        let rec ins = function
          | ((a, _) as hd) :: tl when a.stop <= (fst entry).stop ->
              hd :: ins tl
          | rest -> entry :: rest
        in
        al := ins !al
      in
      let assign n =
        Hashtbl.replace assignment (Reg.hash iv.reg) (iv.reg, phys cls n);
        insert_active (iv, n)
      in
      match !fl with
      | n :: rest ->
          fl := rest;
          assign n
      | [] -> (
          (* Spill the interval with the furthest end — the current one
             or the active one it can replace. *)
          match List.rev !al with
          | (last, n) :: _ when last.stop > iv.stop ->
              al :=
                List.filter (fun (a, _) -> not (Reg.equal a.reg last.reg)) !al;
              Hashtbl.remove assignment (Reg.hash last.reg);
              spill last;
              assign n
          | _ -> spill iv))
    intervals;
  (assignment, spilled, !slots)

(* ---- rewriting onto physical names ---- *)

let rewrite ?prov cfg ~assignment ~spilled ~base ~scratch =
  let loads = ref 0 and stores = ref 0 and cr_moves = ref 0 in
  let phys_of r =
    match Hashtbl.find_opt assignment (Reg.hash r) with
    | Some (_, p) -> p
    | None -> r
  in
  let is_spilled r = Hashtbl.mem spilled (Reg.hash r) in
  let slot_of r = snd (Hashtbl.find spilled (Reg.hash r)) in
  Cfg.iter_blocks
    (fun b ->
      let out = ref [] in
      let emit i = out := i :: !out in
      let record i =
        Gis_obs.Provenance.spill prov ~uid:(Instr.uid i) ~block:b.Block.label
      in
      let base_reg () = match base with Some r -> r | None -> assert false in
      (* A spilled condition register cannot be loaded or stored
         directly (ill-formed, see [Validate]): it moves through memory
         via an integer transfer scratch — mfcr/mtcr modeling. [gpr_tmp]
         picks the transfer register; it must not collide with the GPR
         scratches already handed to this instruction's spilled GPR
         operands, so it takes the next free one. *)
      let reload_cr ~gpr_tmp ~cr_scratch r =
        incr loads;
        incr cr_moves;
        let load =
          Cfg.make_instr cfg
            (Instr.Load
               {
                 dst = gpr_tmp;
                 base = base_reg ();
                 offset = slot_offset r.Reg.cls (slot_of r);
                 update = false;
               })
        in
        let transfer =
          Cfg.make_instr cfg (Instr.Move { dst = cr_scratch; src = gpr_tmp })
        in
        record load;
        record transfer;
        emit load;
        emit transfer
      in
      Gis_util.Vec.iter
        (fun i ->
          let sp =
            List.sort_uniq Reg.compare
              (List.filter is_spilled (Instr.uses i @ Instr.defs i))
          in
          if sp = [] then emit (Instr.map_regs ~f:phys_of i)
          else begin
            (* Hand each distinct spilled operand a scratch register of
               its class; reload uses before, store defs after. A
               register that is both read and written (binop dst = lhs,
               an update-form base) shares one scratch for both. *)
            let scratch_map = Hashtbl.create 4 in
            let counters = Hashtbl.create 2 in
            let take cls ~what =
              let k =
                Option.value ~default:0 (Hashtbl.find_opt counters cls)
              in
              let avail = scratch cls in
              if k >= List.length avail then
                raise
                  (Alloc_error
                     (Fmt.str
                        "instruction %d needs %d %a scratch registers (%s) \
                         but only %d are reserved"
                        (Instr.uid i) (k + 1) Reg.pp_cls cls what
                        (List.length avail)));
              Hashtbl.replace counters cls (k + 1);
              List.nth avail k
            in
            List.iter
              (fun r ->
                Hashtbl.replace scratch_map (Reg.hash r)
                  (take r.Reg.cls ~what:"spilled operands"))
              sp;
            (* One GPR transfer temp per instruction, shared by the CR
               reload and store-back (its value is dead across the
               instruction itself). At most one CR operand can appear —
               compares define one, branches read one, and cr<->cr
               moves do not exist — and any instruction with a CR
               operand touches at most two GPRs, so the three-GPR
               scratch pool always has a register left for it. *)
            let cr_tmp = ref None in
            let gpr_tmp () =
              match !cr_tmp with
              | Some g -> g
              | None ->
                  let g = take Reg.Gpr ~what:"condition-register transfer" in
                  cr_tmp := Some g;
                  g
            in
            let lookup r =
              match Hashtbl.find_opt scratch_map (Reg.hash r) with
              | Some s -> s
              | None -> phys_of r
            in
            List.iter
              (fun r ->
                if List.exists (Reg.equal r) (Instr.uses i) then
                  let s = Hashtbl.find scratch_map (Reg.hash r) in
                  if r.Reg.cls = Reg.Cr then
                    reload_cr ~gpr_tmp:(gpr_tmp ()) ~cr_scratch:s r
                  else begin
                    incr loads;
                    let reload =
                      Cfg.make_instr cfg
                        (Instr.Load
                           {
                             dst = s;
                             base = base_reg ();
                             offset = slot_offset r.Reg.cls (slot_of r);
                             update = false;
                           })
                    in
                    record reload;
                    emit reload
                  end)
              sp;
            emit (Instr.map_regs ~f:lookup i);
            List.iter
              (fun r ->
                if List.exists (Reg.equal r) (Instr.defs i) then begin
                  incr stores;
                  let src =
                    let s = Hashtbl.find scratch_map (Reg.hash r) in
                    if r.Reg.cls = Reg.Cr then begin
                      (* mfcr: move the scratch CR down to the integer
                         transfer register, then store that. *)
                      incr cr_moves;
                      let g = gpr_tmp () in
                      let transfer =
                        Cfg.make_instr cfg (Instr.Move { dst = g; src = s })
                      in
                      record transfer;
                      emit transfer;
                      g
                    end
                    else s
                  in
                  let store =
                    Cfg.make_instr cfg
                      (Instr.Store
                         {
                           src;
                           base = base_reg ();
                           offset = slot_offset r.Reg.cls (slot_of r);
                           update = false;
                         })
                  in
                  record store;
                  emit store
                end)
              sp
          end)
        b.Block.body;
      (* Terminators read exactly their condition register
         ([Branch_cond]) or nothing ([Jump]/[Halt]). A spilled branch
         CR is reloaded at the end of the block body — through the
         first GPR scratch, which is free here since no other
         instruction is mid-rewrite — and the branch tests the CR
         scratch instead. *)
      let term_map = Hashtbl.create 1 in
      List.iter
        (fun r ->
          if r.Reg.cls <> Reg.Cr then
            raise
              (Alloc_error
                 (Fmt.str
                    "terminator of %a reads spilled non-condition register %a"
                    Label.pp b.Block.label Reg.pp r));
          let cr_scratch =
            match scratch Reg.Cr with
            | s :: _ -> s
            | [] ->
                raise
                  (Alloc_error
                     (Fmt.str
                        "terminator of %a reads spilled %a but no \
                         condition-register scratch is reserved"
                        Label.pp b.Block.label Reg.pp r))
          in
          let gpr_tmp =
            match scratch Reg.Gpr with
            | s :: _ -> s
            | [] -> assert false (* spilling always reserves GPR scratch *)
          in
          reload_cr ~gpr_tmp ~cr_scratch r;
          Hashtbl.replace term_map (Reg.hash r) cr_scratch)
        (List.filter is_spilled (Instr.uses b.Block.term));
      Cfg.set_term cfg b.Block.id
        (Instr.map_regs
           ~f:(fun r ->
             match Hashtbl.find_opt term_map (Reg.hash r) with
             | Some s -> s
             | None -> phys_of r)
           b.Block.term);
      Gis_util.Vec.clear b.Block.body;
      List.iter (fun i -> Gis_util.Vec.push b.Block.body i) (List.rev !out))
    cfg;
  (!loads, !stores, !cr_moves)

(* ---- driver ---- *)

let allocate ?gprs ?fprs ?prov machine cfg =
  let budget = function
    | Reg.Gpr -> Option.value gprs ~default:(Machine.regs machine Reg.Gpr)
    | Reg.Fpr -> Option.value fprs ~default:(Machine.regs machine Reg.Fpr)
    | Reg.Cr -> Machine.regs machine Reg.Cr
  in
  let gen = Cfg.regs cfg in
  let phys cls n = Reg.Gen.reserve gen cls n in
  let intervals, entry_live = build_intervals cfg in
  let has_fpr = List.exists (fun iv -> iv.reg.Reg.cls = Reg.Fpr) intervals in
  let finish ~assignment ~spilled ~slots ~base ~scratch =
    let loads, stores, cr_moves =
      rewrite ?prov cfg ~assignment ~spilled ~base ~scratch
    in
    if Hashtbl.length spilled > 0 then begin
      let base_reg = match base with Some r -> r | None -> assert false in
      let entry_block = Cfg.block cfg (Cfg.entry cfg) in
      let setup =
        Cfg.make_instr cfg (Instr.Load_imm { dst = base_reg; value = 0 })
      in
      Gis_obs.Provenance.spill prov ~uid:(Instr.uid setup)
        ~block:entry_block.Block.label;
      Gis_util.Vec.insert entry_block.Block.body 0 setup
    end;
    let used cls =
      let seen = Hashtbl.create 16 in
      List.iter
        (fun i ->
          List.iter
            (fun r ->
              if r.Reg.cls = cls then Hashtbl.replace seen (Reg.hash r) ())
            (Instr.uses i @ Instr.defs i))
        (Cfg.all_instrs cfg);
      Hashtbl.length seen
    in
    {
      assignment =
        Hashtbl.fold (fun _ (r, p) acc -> (r, p) :: acc) assignment []
        |> List.sort (fun (a, _) (b, _) -> Reg.compare a b);
      spilled =
        Hashtbl.fold (fun _ (r, s) acc -> (r, s) :: acc) spilled []
        |> List.sort (fun (a, _) (b, _) -> Reg.compare a b);
      intervals;
      entry_live;
      frame = (if Hashtbl.length spilled > 0 then base else None);
      spill_loads = loads;
      spill_stores = stores;
      cr_spill_moves = cr_moves;
      slots;
      per_class =
        List.map
          (fun cls ->
            {
              cls;
              budget = budget cls;
              pressure = class_pressure intervals cls;
              used = used cls;
            })
          [ Reg.Gpr; Reg.Fpr; Reg.Cr ];
    }
  in
  if budget Reg.Gpr < 1 || budget Reg.Fpr < 1 then
    Error "register file too small: need at least one GPR and one FPR"
  else
    match scan ~pool_size:budget ~phys intervals with
    | exception Alloc_error m -> Error m
    | assignment, spilled, slots when Hashtbl.length spilled = 0 ->
        Ok
          (finish ~assignment ~spilled ~slots ~base:None
             ~scratch:(fun _ -> []))
    | _ -> (
        (* The procedure does not fit: re-run the scan with the top of
           each file reserved — one GPR as the spill-slot frame base
           (holds 0, initialized at entry; the simulator routes every
           access through it to the dedicated spill segment) and three
           scratch registers per spillable class in use (a
           three-address op can have dst, lhs and rhs all spilled and
           distinct). Condition registers spill through memory via an
           integer transfer scratch, so CR pressure above the file
           additionally reserves the top CR as the scratch — linear
           scan spills a class exactly when its peak pressure exceeds
           its pool, so the reservation is decided up front, before any
           CFG mutation. *)
        let g = budget Reg.Gpr and f = budget Reg.Fpr in
        let crs = budget Reg.Cr in
        let cr_spill = class_pressure intervals Reg.Cr > crs in
        if g < 5 then
          Error
            (Fmt.str
               "spilling needs 5 GPRs (1 slot base + 3 scratch + 1 \
                allocatable), have %d"
               g)
        else if has_fpr && f < 4 then
          Error
            (Fmt.str
               "spilling floats needs 4 FPRs (3 scratch + 1 allocatable), \
                have %d"
               f)
        else if cr_spill && crs < 2 then
          Error
            (Fmt.str
               "spilling condition registers needs 2 CRs (1 transfer \
                scratch + 1 allocatable), have %d"
               crs)
        else
          let pool_size = function
            | Reg.Gpr -> g - 4
            | Reg.Fpr -> if has_fpr then f - 3 else f
            | Reg.Cr -> if cr_spill then crs - 1 else crs
          in
          match scan ~pool_size ~phys intervals with
          | exception Alloc_error m -> Error m
          | assignment, spilled, slots -> (
              let base = Some (phys Reg.Gpr (g - 1)) in
              let scratch = function
                | Reg.Gpr ->
                    [
                      phys Reg.Gpr (g - 2); phys Reg.Gpr (g - 3);
                      phys Reg.Gpr (g - 4);
                    ]
                | Reg.Fpr ->
                    if has_fpr then
                      [
                        phys Reg.Fpr (f - 1); phys Reg.Fpr (f - 2);
                        phys Reg.Fpr (f - 3);
                      ]
                    else []
                | Reg.Cr -> if cr_spill then [ phys Reg.Cr (crs - 1) ] else []
              in
              match finish ~assignment ~spilled ~slots ~base ~scratch with
              | t -> Ok t
              | exception Alloc_error m -> Error m))

(* ---- inputs and observables ---- *)

(* Slots that {!remap_input} pre-stages from the caller: spilled
   registers live at entry are initialized in memory, not by a spill
   store — reloads from these slots are legitimate without one. *)
let staged_slots t =
  List.filter_map
    (fun ((r : Reg.t), s) ->
      if List.exists (Reg.equal r) t.entry_live then
        Some (slot_offset r.Reg.cls s)
      else None)
    t.spilled

let remap_input t (input : Simulator.input) =
  let assign = Hashtbl.create 32 in
  List.iter (fun (r, p) -> Hashtbl.replace assign (Reg.hash r) p) t.assignment;
  let spill = Hashtbl.create 8 in
  List.iter (fun (r, s) -> Hashtbl.replace spill (Reg.hash r) s) t.spilled;
  let entry = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace entry (Reg.hash r) ()) t.entry_live;
  (* A binding for a register the procedure does not read at entry is
     dropped: its physical home may be shared with (and would clobber)
     a register that is live there. *)
  let split regs =
    List.fold_left
      (fun (kept, mem) (r, v) ->
        if not (Hashtbl.mem entry (Reg.hash r)) then (kept, mem)
        else
          match Hashtbl.find_opt spill (Reg.hash r) with
          | Some s -> (kept, (slot_offset r.Reg.cls s, v) :: mem)
          | None -> (
              match Hashtbl.find_opt assign (Reg.hash r) with
              | Some p -> ((p, v) :: kept, mem)
              | None -> ((r, v) :: kept, mem)))
      ([], []) regs
  in
  let int_regs, extra_mem = split input.Simulator.int_regs in
  let float_regs, extra_fmem = split input.Simulator.float_regs in
  (* Bindings of spilled registers are staged into the spill segment,
     not program memory — the segment the simulator's [frame] routing
     reads them back from. *)
  {
    input with
    Simulator.int_regs = List.rev int_regs;
    float_regs = List.rev float_regs;
    spill_memory = input.Simulator.spill_memory @ List.rev extra_mem;
    spill_float_memory =
      input.Simulator.spill_float_memory @ List.rev extra_fmem;
  }

let remap_with_frame alloc input =
  match alloc with
  | Some t -> (remap_input t input, t.frame)
  | None -> (input, None)

(* ---- verification ---- *)

let verify ?gprs ?fprs ~machine ~baseline ~allocated t input =
  let budget = function
    | Reg.Gpr -> Option.value gprs ~default:(Machine.regs machine Reg.Gpr)
    | Reg.Fpr -> Option.value fprs ~default:(Machine.regs machine Reg.Fpr)
    | Reg.Cr -> Machine.regs machine Reg.Cr
  in
  let ivals = Hashtbl.create 32 in
  List.iter (fun iv -> Hashtbl.replace ivals (Reg.hash iv.reg) iv) t.intervals;
  (* (a) no physical register is live across a conflicting def: the
     intervals mapped onto one physical register must be pairwise
     disjoint. *)
  let by_phys = Hashtbl.create 32 in
  List.iter
    (fun (r, p) ->
      match Hashtbl.find_opt ivals (Reg.hash r) with
      | Some iv ->
          Hashtbl.replace by_phys (Reg.hash p)
            (iv
            :: Option.value ~default:[]
                 (Hashtbl.find_opt by_phys (Reg.hash p)))
      | None -> ())
    t.assignment;
  let conflict =
    Hashtbl.fold
      (fun _ ivs acc ->
        match acc with
        | Some _ -> acc
        | None ->
            let sorted =
              List.sort (fun a b -> Int.compare a.start b.start) ivs
            in
            let rec chk = function
              | a :: (b :: _ as tl) ->
                  if a.stop >= b.start then Some (a, b) else chk tl
              | _ -> None
            in
            chk sorted)
      by_phys None
  in
  match conflict with
  | Some (a, b) ->
      Error
        (Fmt.str
           "%a and %a share a physical register but their live ranges \
            overlap"
           Reg.pp a.reg Reg.pp b.reg)
  | None -> (
      match
        List.find_opt (fun (s : cls_stat) -> s.used > budget s.cls) t.per_class
      with
      | Some s ->
          Error
            (Fmt.str "%a file overflow: %d registers used, budget %d"
               Reg.pp_cls s.cls s.used (budget s.cls))
      | None ->
          let expected =
            Simulator.observables (Simulator.run machine baseline input)
          in
          let got =
            Simulator.observables
              (Simulator.run ?frame:t.frame machine allocated
                 (remap_input t input))
          in
          if String.equal expected got then Ok ()
          else
            Error
              (Fmt.str "observable mismatch:@,symbolic:@,%s@,allocated:@,%s"
                 expected got))

let pp ppf t =
  Fmt.pf ppf "%a; spilled %d regs into %d slots (+%d reloads, +%d stores%a)"
    Fmt.(
      list ~sep:comma (fun ppf (s : cls_stat) ->
          pf ppf "%a pressure %d, used %d/%d" Reg.pp_cls s.cls s.pressure
            s.used s.budget))
    t.per_class
    (List.length t.spilled)
    t.slots t.spill_loads t.spill_stores
    (fun ppf n -> if n > 0 then Fmt.pf ppf ", +%d cr transfers" n)
    t.cr_spill_moves
