open Gis_ir

type t = {
  name : string;
  fixed_units : int;
  float_units : int;
  branch_units : int;
  gprs : int;
  fprs : int;
  crs : int;
  exec_time : Instr.t -> int;
  delay : producer:Instr.t -> consumer:Instr.t -> reg:Reg.t -> int;
  mem_delay : producer:Instr.t -> consumer:Instr.t -> int;
}

let name m = m.name

let units m = function
  | Instr.Fixed -> m.fixed_units
  | Instr.Float -> m.float_units
  | Instr.Branch -> m.branch_units

let exec_time m i = m.exec_time i
let delay m = m.delay
let mem_delay m = m.mem_delay

(* Physical register file, by class. The RS/6000 has 32 GPRs, 32 FPRs
   and 8 condition register fields. *)
let regs m = function
  | Reg.Gpr -> m.gprs
  | Reg.Fpr -> m.fprs
  | Reg.Cr -> m.crs

(* RS/6000 execution times: most instructions take a single cycle;
   multiply and divide are the multi-cycle exceptions (Section 2.1). *)
let rs6k_exec_time i =
  match Instr.kind i with
  | Instr.Binop { op = Instr.Mul; _ } -> 5
  | Instr.Binop { op = Instr.Div | Instr.Rem; _ } -> 19
  | Instr.Fbinop { op = Instr.Fdiv; _ } -> 19
  | Instr.Fbinop _ -> 1
  | Instr.Binop _ | Instr.Load _ | Instr.Store _ | Instr.Load_imm _
  | Instr.Move _ | Instr.Compare _ | Instr.Fcompare _ | Instr.Branch_cond _
  | Instr.Jump _ | Instr.Call _ | Instr.Halt ->
      1

(* The four delay types of Section 2.1. [reg] distinguishes the loaded
   value of an update-form load (delayed) from its incremented base
   (available immediately, computed by the fixed point unit itself). *)
let rs6k_delay ~producer ~consumer ~reg =
  match Instr.kind producer, Instr.kind consumer with
  | Instr.Load { dst; _ }, _ when Reg.equal dst reg -> 1
  | Instr.Compare _, Instr.Branch_cond _ -> 3
  | Instr.Fcompare _, Instr.Branch_cond _ -> 5
  | Instr.Fbinop _, _ -> 1
  | _, _ -> 0

let no_mem_delay ~producer:_ ~consumer:_ = 0

let make ~name ~fixed_units ~float_units ~branch_units ?(gprs = 32)
    ?(fprs = 32) ?(crs = 8) ?(exec_time = rs6k_exec_time)
    ?(delay = rs6k_delay) ?(mem_delay = no_mem_delay) () =
  if fixed_units < 1 || float_units < 0 || branch_units < 1 then
    invalid_arg "Machine.make: need at least one fixed and one branch unit";
  if gprs < 1 || fprs < 1 || crs < 1 then
    invalid_arg "Machine.make: need at least one register per class";
  {
    name;
    fixed_units;
    float_units;
    branch_units;
    gprs;
    fprs;
    crs;
    exec_time;
    delay;
    mem_delay;
  }

let rs6k =
  make ~name:"rs6k" ~fixed_units:1 ~float_units:1 ~branch_units:1 ()

(* Store-to-load forwarding takes a cycle through the store queue. *)
let detailed_mem_delay ~producer ~consumer =
  match Instr.kind producer, Instr.kind consumer with
  | Instr.Store _, Instr.Load _ -> 1
  | _, _ -> 0

let rs6k_detailed =
  make ~name:"rs6k-detailed" ~fixed_units:1 ~float_units:1 ~branch_units:1
    ~mem_delay:detailed_mem_delay ()

let superscalar ~width =
  if width < 1 then invalid_arg "Machine.superscalar: width must be positive";
  make
    ~name:(Printf.sprintf "superscalar-%d" width)
    ~fixed_units:width ~float_units:width ~branch_units:width ()

let zero_delay_single_issue =
  make ~name:"unit-latency" ~fixed_units:1 ~float_units:1 ~branch_units:1
    ~exec_time:(fun _ -> 1)
    ~delay:(fun ~producer:_ ~consumer:_ ~reg:_ -> 0)
    ()

let pp ppf m =
  Fmt.pf ppf "%s (fixed=%d float=%d branch=%d)" m.name m.fixed_units
    m.float_units m.branch_units
