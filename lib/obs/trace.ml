open Gis_ir

type stall =
  | No_stall
  | In_order of int
  | Interlock of { reg : Reg.t; producer : int }
  | Mem_interlock of { producer : int }
  | Call_interlock of { producer : int }
  | Unit_busy of Instr.unit_ty

let stall_category = function
  | No_stall -> "none"
  | In_order _ -> "in_order"
  | Interlock _ -> "interlock"
  | Mem_interlock _ -> "mem_interlock"
  | Call_interlock _ -> "call_interlock"
  | Unit_busy _ -> "unit_busy"

let pp_stall ppf = function
  | No_stall -> Fmt.string ppf "none"
  | In_order k -> Fmt.pf ppf "in-order (ready %d early)" k
  | Interlock { reg; producer } ->
      Fmt.pf ppf "interlock %a<-#%d" Reg.pp reg producer
  | Mem_interlock { producer } -> Fmt.pf ppf "store-queue behind #%d" producer
  | Call_interlock { producer } ->
      Fmt.pf ppf "serialized behind call #%d" producer
  | Unit_busy u -> Fmt.pf ppf "%a unit busy" Instr.pp_unit_ty u

type event = {
  cycle : int;
  unit_ : Instr.unit_ty;
  block : Label.t;
  instr : Instr.t;
  stall : stall;
  gap : int;
  fin : int;
}

type unit_stat = {
  unit_ : Instr.unit_ty;
  issues : int;
  busy_stall : int;
  histogram : (int * int) list;
}

type block_stat = {
  block : Label.t;
  entries : int;
  instrs : int;
  stall_cycles : int;
}

type summary = {
  last_issue : int;
  interlock_cycles : int;
  mem_interlock_cycles : int;
  call_interlock_cycles : int;
  in_order_instrs : int;
  units : unit_stat list;
  blocks : block_stat list;
  events : event list;
}

let unit_busy_total s =
  List.fold_left (fun acc u -> acc + u.busy_stall) 0 s.units

let stall_total s =
  s.interlock_cycles + s.mem_interlock_cycles + s.call_interlock_cycles
  + unit_busy_total s

let unit_name u = Fmt.str "%a" Instr.pp_unit_ty u

let stall_to_json = function
  | No_stall -> Json.Obj [ ("category", Json.String "none") ]
  | In_order k ->
      Json.Obj [ ("category", Json.String "in_order"); ("ready_early", Json.Int k) ]
  | Interlock { reg; producer } ->
      Json.Obj
        [
          ("category", Json.String "interlock");
          ("reg", Json.String (Fmt.str "%a" Reg.pp reg));
          ("producer_uid", Json.Int producer);
        ]
  | Mem_interlock { producer } ->
      Json.Obj
        [
          ("category", Json.String "mem_interlock");
          ("producer_uid", Json.Int producer);
        ]
  | Call_interlock { producer } ->
      Json.Obj
        [
          ("category", Json.String "call_interlock");
          ("producer_uid", Json.Int producer);
        ]
  | Unit_busy u ->
      Json.Obj
        [ ("category", Json.String "unit_busy"); ("unit", Json.String (unit_name u)) ]

let event_to_json e =
  Json.Obj
    [
      ("cycle", Json.Int e.cycle);
      ("unit", Json.String (unit_name e.unit_));
      ("block", Json.String e.block);
      ("uid", Json.Int (Instr.uid e.instr));
      ("instr", Json.String (Fmt.str "%a" Instr.pp e.instr));
      ("stall", stall_to_json e.stall);
      ("gap", Json.Int e.gap);
      ("fin", Json.Int e.fin);
    ]

let to_json s =
  Json.Obj
    [
      ("last_issue", Json.Int s.last_issue);
      ( "stalls",
        Json.Obj
          [
            ("interlock", Json.Int s.interlock_cycles);
            ("mem_interlock", Json.Int s.mem_interlock_cycles);
            ("call_interlock", Json.Int s.call_interlock_cycles);
            ( "unit_busy",
              Json.Obj
                (List.map
                   (fun u -> (unit_name u.unit_, Json.Int u.busy_stall))
                   s.units) );
            ("total", Json.Int (stall_total s));
            ("in_order_instrs", Json.Int s.in_order_instrs);
          ] );
      ( "units",
        Json.List
          (List.map
             (fun u ->
               Json.Obj
                 [
                   ("unit", Json.String (unit_name u.unit_));
                   ("issues", Json.Int u.issues);
                   ("busy_stall", Json.Int u.busy_stall);
                   ( "utilization",
                     Json.List
                       (List.map
                          (fun (k, c) ->
                            Json.Obj
                              [ ("issued", Json.Int k); ("cycles", Json.Int c) ])
                          u.histogram) );
                 ])
             s.units) );
      ( "blocks",
        Json.List
          (List.map
             (fun b ->
               Json.Obj
                 [
                   ("block", Json.String b.block);
                   ("entries", Json.Int b.entries);
                   ("instructions", Json.Int b.instrs);
                   ("stall_cycles", Json.Int b.stall_cycles);
                 ])
             s.blocks) );
      ("events", Json.List (List.map event_to_json s.events));
    ]

let pp_event ppf e =
  Fmt.pf ppf "cycle %4d | %a | %a: %a" e.cycle Label.pp e.block
    Instr.pp_unit_ty e.unit_ Instr.pp e.instr;
  match e.stall with
  | No_stall -> ()
  | s -> Fmt.pf ppf "  [%a, +%d]" pp_stall s e.gap
