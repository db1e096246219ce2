(* The simulator that [Gis_sim.Simulator] replaced with blocks decoded
   once into id-indexed arrays, dense register files and per-cycle unit
   counters, kept verbatim as an independent reference: every field of
   every outcome the rewrite returns must equal this copy's. The only
   edits are the type equations that make its records
   [Gis_sim.Simulator]'s, so outcomes compare field by field. *)

open Gis_ir
open Gis_machine
open Gis_obs

type input = Gis_sim.Simulator.input = {
  int_regs : (Reg.t * int) list;
  float_regs : (Reg.t * float) list;
  memory : (int * int) list;
  float_memory : (int * float) list;
  spill_memory : (int * int) list;
  spill_float_memory : (int * float) list;
}

let no_input =
  {
    int_regs = [];
    float_regs = [];
    memory = [];
    float_memory = [];
    spill_memory = [];
    spill_float_memory = [];
  }

type stop_reason = Gis_sim.Simulator.stop_reason =
  | Halted | Out_of_fuel | Trap of string

let pp_stop_reason ppf = function
  | Halted -> Fmt.string ppf "halted"
  | Out_of_fuel -> Fmt.string ppf "out-of-fuel"
  | Trap m -> Fmt.pf ppf "trap: %s" m

type outcome = Gis_sim.Simulator.outcome = {
  stop : stop_reason;
  cycles : int;
  instructions : int;
  output : string list;
  final_memory : (int * int) list;
  final_float_memory : (int * float) list;
  final_spill_memory : (int * int) list;
  final_spill_float_memory : (int * float) list;
  read_int : Reg.t -> int option;
  block_counts : (Label.t * int) list;
  telemetry : Trace.summary;
}

exception Trapped of string

type state = {
  machine : Machine.t;
  cfg : Cfg.t;
  frame : Reg.t option;
      (** the allocator's spill frame base; loads and stores whose base
          register IS this register (by identity, not address value)
          are routed to the spill segment below *)
  ints : (int, int) Hashtbl.t;  (** Reg.hash -> value (GPR and CR) *)
  floats : (int, float) Hashtbl.t;
  mem : (int, int) Hashtbl.t;
  fmem : (int, float) Hashtbl.t;
  smem : (int, int) Hashtbl.t;  (** spill segment, disjoint from [mem] *)
  sfmem : (int, float) Hashtbl.t;
  producers : (int, Instr.t * int) Hashtbl.t;
      (** Reg.hash -> (producing instruction, cycle its result leaves the
          unit); consumer readiness adds the pair-specific delay *)
  unit_use : (int * int, int) Hashtbl.t;  (** (cycle, unit rank) -> issues *)
  mutable cursor : int;  (** issue cycle of the previous instruction *)
  mutable last_done : int;  (** completion cycle of the latest instruction *)
  mutable executed : int;
  mutable out : string list;
  mutable header_entries : int list;  (** issue cycles, newest first *)
  counts : (Label.t, int) Hashtbl.t;
  mutable last_store : (Instr.t * int) option;
      (** last store and its completion cycle, for the secondary
          [mem_delay] constraint (store-queue forwarding) *)
  mutable last_call : (Instr.t * int) option;
      (** last call, tracked separately: a call between a store and a
          load must not hide the store from the store-queue delay, and
          any delay the machine charges behind a call is attributed as
          call serialization, not a store-queue stall *)
  (* ---- telemetry (Gis_obs.Trace) ---- *)
  mutable cur_block : Label.t;  (** label of the block being executed *)
  mutable interlock_cycles : int;
  mutable mem_interlock_cycles : int;
  mutable call_interlock_cycles : int;
  mutable in_order_instrs : int;
  unit_busy : int array;  (** unit rank -> gap cycles lost to a full unit *)
  unit_issues : int array;  (** unit rank -> dynamic issues *)
  block_stats : (Label.t, int * int) Hashtbl.t;
      (** label -> (instructions issued, stall cycles attributed) *)
  trace : Trace.event Gis_util.Vec.t option;
      (** full per-issue event log, when requested *)
}

let unit_rank = function Instr.Fixed -> 0 | Instr.Float -> 1 | Instr.Branch -> 2

let read_int st r = Option.value ~default:0 (Hashtbl.find_opt st.ints (Reg.hash r))
let read_float st r =
  Option.value ~default:0.0 (Hashtbl.find_opt st.floats (Reg.hash r))

let write_int st r v = Hashtbl.replace st.ints (Reg.hash r) v
let write_float st r v = Hashtbl.replace st.floats (Reg.hash r) v

let operand_value st = function
  | Instr.Reg r -> read_int st r
  | Instr.Imm n -> n

let binop_value op a b =
  match op with
  | Instr.Add -> a + b
  | Instr.Sub -> a - b
  | Instr.Mul -> a * b
  | Instr.Div -> if b = 0 then raise (Trapped "division by zero") else a / b
  | Instr.Rem -> if b = 0 then raise (Trapped "remainder by zero") else a mod b
  | Instr.And -> a land b
  | Instr.Or -> a lor b
  | Instr.Xor -> a lxor b
  | Instr.Shl -> a lsl (b land 31)
  | Instr.Shr -> a asr (b land 31)

let fbinop_value op a b =
  match op with
  | Instr.Fadd -> a +. b
  | Instr.Fsub -> a -. b
  | Instr.Fmul -> a *. b
  | Instr.Fdiv -> a /. b

let sign n = if n < 0 then -1 else if n > 0 then 1 else 0

(* Issue the instruction: find its cycle under in-order issue, operand
   interlocks and per-cycle unit slots; record its defs' producers.
   Along the way, attribute every cycle between the previous issue and
   this one to its cause — register interlock, store-queue delay, or a
   full unit — and remember which constraint was binding. *)
let issue st i =
  let ready, culprit =
    List.fold_left
      (fun ((acc, _) as best) r ->
        match Hashtbl.find_opt st.producers (Reg.hash r) with
        | Some (producer, avail) ->
            let t =
              avail + Machine.delay st.machine ~producer ~consumer:i ~reg:r
            in
            if t > acc then
              (t, Some (Trace.Interlock { reg = r; producer = Instr.uid producer }))
            else best
        | None -> best)
      (0, None) (Instr.uses i)
  in
  let ready, culprit =
    (* Secondary memory delay: only a non-zero [mem_delay] constrains
       issue (zero means the hardware forwards). Stores and calls are
       tracked separately so that a call does not shadow an earlier
       store, and so the stall is attributed to the right category. *)
    if Instr.touches_memory i then begin
      let constrain (ready, culprit) source mk =
        match source with
        | Some (producer, fin) ->
            let d = Machine.mem_delay st.machine ~producer ~consumer:i in
            if d > 0 && fin + d > ready then
              (fin + d, Some (mk (Instr.uid producer)))
            else (ready, culprit)
        | None -> (ready, culprit)
      in
      constrain
        (constrain (ready, culprit) st.last_store (fun producer ->
             Trace.Mem_interlock { producer }))
        st.last_call
        (fun producer -> Trace.Call_interlock { producer })
    end
    else (ready, culprit)
  in
  let u = unit_rank (Instr.unit_ty i) in
  let cap = Machine.units st.machine (Instr.unit_ty i) in
  let start = max st.cursor ready in
  let cycle = ref start in
  let used c = Option.value ~default:0 (Hashtbl.find_opt st.unit_use (c, u)) in
  while used !cycle >= cap do
    incr cycle
  done;
  Hashtbl.replace st.unit_use (!cycle, u) (used !cycle + 1);
  (* Attribution: gap = interlock part + unit-busy part, exactly. *)
  let busy = !cycle - start in
  let interlock = max 0 (ready - st.cursor) in
  let gap = !cycle - st.cursor in
  (match culprit with
  | Some (Trace.Mem_interlock _) ->
      st.mem_interlock_cycles <- st.mem_interlock_cycles + interlock
  | Some (Trace.Call_interlock _) ->
      st.call_interlock_cycles <- st.call_interlock_cycles + interlock
  | Some _ | None -> st.interlock_cycles <- st.interlock_cycles + interlock);
  st.unit_busy.(u) <- st.unit_busy.(u) + busy;
  st.unit_issues.(u) <- st.unit_issues.(u) + 1;
  if st.cursor > ready then st.in_order_instrs <- st.in_order_instrs + 1;
  let bi, bs = Option.value ~default:(0, 0) (Hashtbl.find_opt st.block_stats st.cur_block) in
  Hashtbl.replace st.block_stats st.cur_block (bi + 1, bs + gap);
  let fin = !cycle + Machine.exec_time st.machine i in
  (match st.trace with
  | Some log ->
      let stall =
        if busy > 0 then Trace.Unit_busy (Instr.unit_ty i)
        else if interlock > 0 then
          Option.value ~default:Trace.No_stall culprit
        else if st.cursor > ready then Trace.In_order (st.cursor - ready)
        else Trace.No_stall
      in
      Gis_util.Vec.push log
        {
          Trace.cycle = !cycle;
          unit_ = Instr.unit_ty i;
          block = st.cur_block;
          instr = i;
          stall;
          gap;
          fin;
        }
  | None -> ());
  st.cursor <- !cycle;
  st.last_done <- max st.last_done fin;
  List.iter (fun r -> Hashtbl.replace st.producers (Reg.hash r) (i, fin)) (Instr.defs i);
  if Instr.is_store i then st.last_store <- Some (i, fin);
  if Instr.is_call i then st.last_call <- Some (i, fin);
  st.executed <- st.executed + 1

(* Fault-injection hook for the differential fuzzer's self-test: while
   set, additions executed on a machine with more than two fixed-point
   units are off by one. The corruption is machine-dependent on purpose
   — the fuzzer compares one seed's observable trace across a machine
   matrix against a narrow reference machine, and only a
   machine-dependent bug distinguishes those cells (a uniform semantic
   bug would corrupt the reference identically and cancel out). Never
   set outside tests. *)
let corrupt_wide_add_for_testing = ref false

(* Execute the instruction's semantics; returns the label to jump to
   when it is a taken branch terminator. *)
(* The spill segment is selected by the identity of the base register,
   never by the numeric address: program arithmetic can compute any
   integer, so no address range is unreachable, but the frame register
   is reserved by the allocator and no program value is ever assigned
   to it. This is what makes spill storage disjoint from everything the
   program can observe. *)
let is_frame st base =
  match st.frame with Some f -> Reg.equal f base | None -> false

let execute st i =
  match Instr.kind i with
  | Instr.Load { dst; base; offset; update } ->
      let addr = read_int st base + offset in
      let mem = if is_frame st base then st.smem else st.mem in
      let fmem = if is_frame st base then st.sfmem else st.fmem in
      (match dst.Reg.cls with
      | Reg.Fpr ->
          write_float st dst
            (Option.value ~default:0.0 (Hashtbl.find_opt fmem addr))
      | Reg.Gpr | Reg.Cr ->
          write_int st dst
            (Option.value ~default:0 (Hashtbl.find_opt mem addr)));
      if update then write_int st base addr;
      None
  | Instr.Store { src; base; offset; update } ->
      let addr = read_int st base + offset in
      let mem = if is_frame st base then st.smem else st.mem in
      let fmem = if is_frame st base then st.sfmem else st.fmem in
      (match src.Reg.cls with
      | Reg.Fpr -> Hashtbl.replace fmem addr (read_float st src)
      | Reg.Gpr | Reg.Cr -> Hashtbl.replace mem addr (read_int st src));
      if update then write_int st base addr;
      None
  | Instr.Load_imm { dst; value } ->
      write_int st dst value;
      None
  | Instr.Move { dst; src } ->
      (match dst.Reg.cls with
      | Reg.Fpr -> write_float st dst (read_float st src)
      | Reg.Gpr | Reg.Cr -> write_int st dst (read_int st src));
      None
  | Instr.Binop { op; dst; lhs; rhs } ->
      let v = binop_value op (read_int st lhs) (operand_value st rhs) in
      let v =
        if
          !corrupt_wide_add_for_testing
          && op = Instr.Add
          && Machine.units st.machine Instr.Fixed > 2
        then v + 1
        else v
      in
      write_int st dst v;
      None
  | Instr.Fbinop { op; dst; lhs; rhs } ->
      write_float st dst (fbinop_value op (read_float st lhs) (read_float st rhs));
      None
  | Instr.Compare { dst; lhs; rhs } ->
      write_int st dst (sign (compare (read_int st lhs) (operand_value st rhs)));
      None
  | Instr.Fcompare { dst; lhs; rhs } ->
      write_int st dst (sign (Float.compare (read_float st lhs) (read_float st rhs)));
      None
  | Instr.Branch_cond { cr; cond; expect; taken; fallthru } ->
      let holds = Instr.eval_cond cond (read_int st cr) in
      Some (if holds = expect then taken else fallthru)
  | Instr.Jump { target } -> Some target
  | Instr.Call { name; args; ret } ->
      let rendered =
        Fmt.str "%s(%s)" name
          (String.concat ","
             (List.map
                (fun r ->
                  match r.Reg.cls with
                  | Reg.Fpr -> Fmt.str "%g" (read_float st r)
                  | Reg.Gpr | Reg.Cr -> string_of_int (read_int st r))
                args))
      in
      st.out <- rendered :: st.out;
      (match ret with Some r -> write_int st r 0 | None -> ());
      None
  | Instr.Halt -> None

(* Aggregate the per-issue attribution into a [Trace.summary]. *)
let summarize st =
  let span = st.cursor + 1 in
  let unit_tys = [ Instr.Fixed; Instr.Float; Instr.Branch ] in
  let units =
    List.map
      (fun ut ->
        let rank = unit_rank ut in
        let per_count = Hashtbl.create 8 in
        let active = ref 0 in
        Hashtbl.iter
          (fun (_, r) k ->
            if r = rank then begin
              incr active;
              Hashtbl.replace per_count k
                (1 + Option.value ~default:0 (Hashtbl.find_opt per_count k))
            end)
          st.unit_use;
        let hist =
          List.sort compare
            (Hashtbl.fold (fun k c acc -> (k, c) :: acc) per_count [])
        in
        let hist =
          if st.executed = 0 then hist else (0, span - !active) :: hist
        in
        {
          Trace.unit_ = ut;
          issues = st.unit_issues.(rank);
          busy_stall = st.unit_busy.(rank);
          histogram = hist;
        })
      unit_tys
  in
  let blocks =
    Hashtbl.fold
      (fun label entries acc ->
        let instrs, stalls =
          Option.value ~default:(0, 0) (Hashtbl.find_opt st.block_stats label)
        in
        { Trace.block = label; entries; instrs; stall_cycles = stalls } :: acc)
      st.counts []
    |> List.sort (fun a b -> Label.compare a.Trace.block b.Trace.block)
  in
  {
    Trace.last_issue = st.cursor;
    interlock_cycles = st.interlock_cycles;
    mem_interlock_cycles = st.mem_interlock_cycles;
    call_interlock_cycles = st.call_interlock_cycles;
    in_order_instrs = st.in_order_instrs;
    units;
    blocks;
    events =
      (match st.trace with Some log -> Gis_util.Vec.to_list log | None -> []);
  }

let run_with_header ~fuel ?(trace = false) ?frame machine cfg ~header input =
  let st =
    {
      machine;
      cfg;
      frame;
      ints = Hashtbl.create 64;
      floats = Hashtbl.create 16;
      mem = Hashtbl.create 256;
      fmem = Hashtbl.create 16;
      smem = Hashtbl.create 16;
      sfmem = Hashtbl.create 16;
      producers = Hashtbl.create 64;
      unit_use = Hashtbl.create 1024;
      cursor = 0;
      last_done = 0;
      executed = 0;
      out = [];
      header_entries = [];
      counts = Hashtbl.create 16;
      last_store = None;
      last_call = None;
      cur_block = (Cfg.block cfg (Cfg.entry cfg)).Block.label;
      interlock_cycles = 0;
      mem_interlock_cycles = 0;
      call_interlock_cycles = 0;
      in_order_instrs = 0;
      unit_busy = Array.make 3 0;
      unit_issues = Array.make 3 0;
      block_stats = Hashtbl.create 16;
      trace = (if trace then Some (Gis_util.Vec.create ()) else None);
    }
  in
  List.iter (fun (r, v) -> write_int st r v) input.int_regs;
  List.iter (fun (r, v) -> write_float st r v) input.float_regs;
  List.iter (fun (a, v) -> Hashtbl.replace st.mem a v) input.memory;
  List.iter (fun (a, v) -> Hashtbl.replace st.fmem a v) input.float_memory;
  List.iter (fun (a, v) -> Hashtbl.replace st.smem a v) input.spill_memory;
  List.iter
    (fun (a, v) -> Hashtbl.replace st.sfmem a v)
    input.spill_float_memory;
  let stop = ref None in
  let block = ref (Cfg.block cfg (Cfg.entry cfg)) in
  (try
     while !stop = None do
       let b = !block in
       st.cur_block <- b.Block.label;
       Hashtbl.replace st.counts b.Block.label
         (1 + Option.value ~default:0 (Hashtbl.find_opt st.counts b.Block.label));
       (match header with
       | Some h when Label.equal b.Block.label h ->
           st.header_entries <- st.cursor :: st.header_entries
       | Some _ | None -> ());
       let body = b.Block.body in
       for idx = 0 to Gis_util.Vec.length body - 1 do
         if !stop = None then begin
           if st.executed >= fuel then stop := Some Out_of_fuel
           else begin
             let i = Gis_util.Vec.get body idx in
             issue st i;
             ignore (execute st i)
           end
         end
       done;
       if !stop = None then begin
         if st.executed >= fuel then stop := Some Out_of_fuel
         else begin
           let t = b.Block.term in
           issue st t;
           match execute st t with
           | Some target -> block := Cfg.block_of_label cfg target
           | None -> (
               match Instr.kind t with
               | Instr.Halt -> stop := Some Halted
               | _ -> stop := Some (Trap "fell off a non-halt terminator"))
         end
       end
     done
   with Trapped m -> stop := Some (Trap m));
  let dump tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  ( {
      stop = Option.value ~default:(Trap "internal") !stop;
      cycles = st.last_done;
      instructions = st.executed;
      output = List.rev st.out;
      final_memory = dump st.mem;
      final_float_memory = dump st.fmem;
      final_spill_memory = dump st.smem;
      final_spill_float_memory = dump st.sfmem;
      read_int = (fun r -> Hashtbl.find_opt st.ints (Reg.hash r));
      block_counts =
        List.sort compare
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.counts []);
      telemetry = summarize st;
    },
    List.rev st.header_entries )

let run ?fuel ?trace ?frame machine cfg input =
  fst
    (run_with_header
       ~fuel:(Option.value ~default:2_000_000 fuel)
       ?trace ?frame machine cfg ~header:None input)

let profile_fn o label =
  Option.value ~default:0 (List.assoc_opt label o.block_counts)

let observables o =
  Fmt.str "@[<v>stop=%a@,out=[%a]@,mem=[%a]@,fmem=[%a]@]" pp_stop_reason o.stop
    Fmt.(list ~sep:semi string)
    o.output
    Fmt.(list ~sep:semi (pair ~sep:(any ":") int int))
    o.final_memory
    Fmt.(list ~sep:semi (pair ~sep:(any ":") int float))
    o.final_float_memory

let cycles_per_iteration ?(fuel = 2_000_000) machine cfg ~header input =
  let outcome, entries = run_with_header ~fuel machine cfg ~header:(Some header) input in
  ignore outcome;
  match entries with
  | [] | [ _ ] -> failwith "cycles_per_iteration: header entered fewer than twice"
  | first :: _ ->
      let last = List.nth entries (List.length entries - 1) in
      float_of_int (last - first) /. float_of_int (List.length entries - 1)
