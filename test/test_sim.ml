open Gis_ir
open Gis_machine
open Gis_sim
module B = Builder
module Trace = Gis_obs.Trace

let machine = Machine.rs6k

let run ?(input = Simulator.no_input) cfg = Simulator.run machine cfg input

let straight_line kinds =
  let cfg = Cfg.create () in
  let b = Cfg.add_block cfg ~label:"A" in
  Cfg.set_entry cfg b.Block.id;
  List.iter (fun k -> Gis_util.Vec.push b.Block.body (Cfg.make_instr cfg k)) kinds;
  cfg

let test_arithmetic () =
  let g = Reg.Gen.create () in
  let a = Reg.Gen.fresh g Reg.Gpr in
  let b = Reg.Gen.fresh g Reg.Gpr in
  let c = Reg.Gen.fresh g Reg.Gpr in
  let cfg =
    B.func ~reg_gen:g
      [
        ( "A",
          [
            B.li ~dst:a 10;
            B.li ~dst:b 3;
            B.binop Instr.Mul ~dst:c ~lhs:a ~rhs:(Instr.Reg b);
            B.call "print_int" [ c ];
            B.binop Instr.Div ~dst:c ~lhs:a ~rhs:(Instr.Reg b);
            B.call "print_int" [ c ];
            B.binop Instr.Rem ~dst:c ~lhs:a ~rhs:(Instr.Reg b);
            B.call "print_int" [ c ];
            B.binop Instr.Shl ~dst:c ~lhs:a ~rhs:(Instr.Imm 2);
            B.call "print_int" [ c ];
            B.binop Instr.Xor ~dst:c ~lhs:a ~rhs:(Instr.Imm 6);
            B.call "print_int" [ c ];
          ],
          Instr.Halt );
      ]
  in
  let o = run cfg in
  Alcotest.(check (list string)) "outputs"
    [ "print_int(30)"; "print_int(3)"; "print_int(1)"; "print_int(40)";
      "print_int(12)" ]
    o.Simulator.output;
  Alcotest.(check bool) "halted" true (o.Simulator.stop = Simulator.Halted)

let test_div_by_zero_traps () =
  let g = Reg.Gen.create () in
  let a = Reg.Gen.fresh g Reg.Gpr in
  let cfg =
    B.func ~reg_gen:g
      [
        ("A", [ B.li ~dst:a 1; B.binop Instr.Div ~dst:a ~lhs:a ~rhs:(Instr.Imm 0) ],
         Instr.Halt);
      ]
  in
  match (run cfg).Simulator.stop with
  | Simulator.Trap _ -> ()
  | Simulator.Halted | Simulator.Out_of_fuel -> Alcotest.fail "expected trap"

let test_memory_and_update_forms () =
  let g = Reg.Gen.create () in
  let base = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let y = Reg.Gen.fresh g Reg.Gpr in
  let cfg =
    B.func ~reg_gen:g
      [
        ( "A",
          [
            B.li ~dst:base 100;
            B.li ~dst:x 7;
            (* STU writes to 104 and leaves base=104. *)
            B.store_update ~src:x ~base ~offset:4;
            (* LU reads from 112 and leaves base=112. *)
            B.load_update ~dst:y ~base ~offset:8;
            B.call "print_int" [ y ];
            B.call "print_int" [ base ];
          ],
          Instr.Halt );
      ]
  in
  let input =
    { Simulator.no_input with Simulator.memory = [ (112, 55) ] }
  in
  let o = run ~input cfg in
  Alcotest.(check (list string)) "update semantics"
    [ "print_int(55)"; "print_int(112)" ]
    o.Simulator.output;
  Alcotest.(check bool) "store landed at 104" true
    (List.mem (104, 7) o.Simulator.final_memory)

let test_branches () =
  let g = Reg.Gen.create () in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  let cfg sel =
    let cfg =
      B.func ~reg_gen:g
        [
          ("A", [ B.li ~dst:x sel; B.cmpi ~dst:c ~lhs:x 5 ],
           B.bt ~cr:c ~cond:Instr.Lt ~taken:"LT" ~fallthru:"GE");
          ("LT", [ B.call "print_int" [ x ] ], Instr.Halt);
          ("GE", [ B.li ~dst:x 99; B.call "print_int" [ x ] ], Instr.Halt);
        ]
    in
    cfg
  in
  Alcotest.(check (list string)) "taken" [ "print_int(3)" ]
    (run (cfg 3)).Simulator.output;
  Alcotest.(check (list string)) "fallthru" [ "print_int(99)" ]
    (run (cfg 7)).Simulator.output

let test_fuel () =
  let cfg = B.func [ ("A", [], B.jmp "A") ] in
  let o = Simulator.run ~fuel:100 machine cfg Simulator.no_input in
  Alcotest.(check bool) "out of fuel" true (o.Simulator.stop = Simulator.Out_of_fuel);
  Alcotest.(check int) "counted" 100 o.Simulator.instructions

let test_float_path () =
  let g = Reg.Gen.create () in
  let base = Reg.Gen.fresh g Reg.Gpr in
  let fa = Reg.Gen.fresh g Reg.Fpr in
  let fb = Reg.Gen.fresh g Reg.Fpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let cfg =
    B.func ~reg_gen:g
      [
        ( "A",
          [
            B.li ~dst:base 0;
            B.load ~dst:fa ~base ~offset:0;
            B.load ~dst:fb ~base ~offset:8;
            B.fbinop Instr.Fadd ~dst:fa ~lhs:fa ~rhs:fb;
            B.fcmp ~dst:c ~lhs:fa ~rhs:fb;
          ],
          B.bt ~cr:c ~cond:Instr.Gt ~taken:"BIG" ~fallthru:"SMALL" );
        ("BIG", [ B.li ~dst:x 1; B.call "print_int" [ x ] ], Instr.Halt);
        ("SMALL", [ B.li ~dst:x 0; B.call "print_int" [ x ] ], Instr.Halt);
      ]
  in
  let input =
    { Simulator.no_input with Simulator.float_memory = [ (0, 2.5); (8, 1.5) ] }
  in
  let o = run ~input cfg in
  Alcotest.(check (list string)) "float compare" [ "print_int(1)" ] o.Simulator.output;
  Alcotest.(check bool) "float memory dumped" true
    (o.Simulator.final_float_memory = [ (0, 2.5); (8, 1.5) ])

(* ---- timing model ---- *)

let issue_cycles kinds =
  (* Cycles of a straight-line block, via total cycle count. *)
  let cfg = straight_line kinds in
  (run cfg).Simulator.cycles

let test_delayed_load_stall () =
  let g = Reg.Gen.create () in
  let a = Reg.Gen.fresh g Reg.Gpr in
  let b = Reg.Gen.fresh g Reg.Gpr in
  let base = Reg.Gen.fresh g Reg.Gpr in
  (* load @0; dependent add must wait: ready = 0+1+1 = 2; halt @2. *)
  let dependent =
    issue_cycles [ B.load ~dst:a ~base ~offset:0; B.addi ~dst:b ~lhs:a 1 ]
  in
  (* independent add issues @1. *)
  let independent =
    issue_cycles [ B.load ~dst:a ~base ~offset:0; B.addi ~dst:b ~lhs:base 1 ]
  in
  Alcotest.(check bool)
    (Fmt.str "dependent (%d) slower than independent (%d)" dependent independent)
    true
    (dependent = independent + 1)

let test_compare_branch_delay () =
  let g = Reg.Gen.create () in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  let cfg =
    B.func ~reg_gen:g
      [
        ("A", [ B.li ~dst:x 1; B.cmpi ~dst:c ~lhs:x 0 ],
         B.bt ~cr:c ~cond:Instr.Gt ~taken:"B" ~fallthru:"B");
        ("B", [], Instr.Halt);
      ]
  in
  (* li@0, cmp@1, branch at 1+1+3=5; B's halt takes the branch unit at
     6 and completes at 7. *)
  Alcotest.(check int) "3-cycle compare->branch" 7 (run cfg).Simulator.cycles

let test_detailed_store_load_penalty () =
  let g = Reg.Gen.create () in
  let base = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let y = Reg.Gen.fresh g Reg.Gpr in
  let kinds =
    [ B.store ~src:x ~base ~offset:0; B.load ~dst:y ~base ~offset:4 ]
  in
  let cycles m =
    let cfg = straight_line kinds in
    (Simulator.run m cfg Simulator.no_input).Simulator.cycles
  in
  Alcotest.(check int) "one extra cycle on the detailed model"
    (cycles Machine.rs6k + 1)
    (cycles Machine.rs6k_detailed)

(* Calls are serialization points, not stores: an intervening call must
   not clear the store-queue constraint, and a call's own memory delay
   is attributed to its own category. Custom machines make each effect
   deterministic. *)
let call_machine ~store_load ~call_load =
  Machine.make ~name:"call-test" ~fixed_units:1 ~float_units:1 ~branch_units:1
    ~exec_time:(fun _ -> 1)
    ~mem_delay:(fun ~producer ~consumer ->
      match (Instr.kind producer, Instr.kind consumer) with
      | Instr.Store _, Instr.Load _ -> store_load
      | Instr.Call _, Instr.Load _ -> call_load
      | _, _ -> 0)
    ()

let test_store_queue_survives_call () =
  (* store; call; load — the store->load penalty binds across the
     call. A simulator that tracked only "the last memory writer" would
     let the call shadow the store and charge nothing. *)
  let g = Reg.Gen.create () in
  let base = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let y = Reg.Gen.fresh g Reg.Gpr in
  let cfg =
    straight_line
      [
        B.store ~src:x ~base ~offset:0;
        B.call "print_int" [ x ];
        B.load ~dst:y ~base ~offset:4;
      ]
  in
  let m = call_machine ~store_load:3 ~call_load:0 in
  let o = Simulator.run m cfg Simulator.no_input in
  let s = o.Simulator.telemetry in
  Alcotest.(check bool) "store-queue stall charged across the call" true
    (s.Trace.mem_interlock_cycles > 0);
  Alcotest.(check int) "no call-interlock on this machine" 0
    s.Trace.call_interlock_cycles;
  Alcotest.(check int) "identity holds" s.Trace.last_issue
    (Trace.stall_total s)

let test_call_heavy_breakdown () =
  (* store; call; load; store; load — the first load is bound by the
     call (larger delay), the second by the store; the two stalls land
     in their own categories and the accounting identity still holds. *)
  let g = Reg.Gen.create () in
  let base = Reg.Gen.fresh g Reg.Gpr in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let y = Reg.Gen.fresh g Reg.Gpr in
  let z = Reg.Gen.fresh g Reg.Gpr in
  let cfg =
    straight_line
      [
        B.store ~src:x ~base ~offset:0;
        B.call "print_int" [ x ];
        B.load ~dst:y ~base ~offset:4;
        B.store ~src:y ~base ~offset:8;
        B.load ~dst:z ~base ~offset:12;
      ]
  in
  let m = call_machine ~store_load:2 ~call_load:3 in
  let o = Simulator.run m cfg Simulator.no_input in
  let s = o.Simulator.telemetry in
  Alcotest.(check bool) "call-bound stall recorded" true
    (s.Trace.call_interlock_cycles > 0);
  Alcotest.(check bool) "store-bound stall recorded" true
    (s.Trace.mem_interlock_cycles > 0);
  Alcotest.(check bool) "call stall larger (delay 3 vs 2)" true
    (s.Trace.call_interlock_cycles > s.Trace.mem_interlock_cycles);
  Alcotest.(check int) "identity holds" s.Trace.last_issue
    (Trace.stall_total s);
  (* The category is visible in serialized telemetry too. *)
  match
    Gis_obs.Json.of_string (Gis_obs.Json.to_string (Trace.to_json s))
  with
  | Error e -> Alcotest.fail e
  | Ok v -> (
      match Gis_obs.Json.member "stalls" v with
      | None -> Alcotest.fail "stalls object missing"
      | Some stalls -> (
          match Gis_obs.Json.member "call_interlock" stalls with
          | Some (Gis_obs.Json.Int n) ->
              Alcotest.(check int) "serialized call_interlock"
                s.Trace.call_interlock_cycles n
          | _ -> Alcotest.fail "stalls.call_interlock missing"))

let test_parallel_units () =
  let g = Reg.Gen.create () in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let kinds = [ B.li ~dst:x 1; B.li ~dst:x 2; B.li ~dst:x 3; B.li ~dst:x 4 ] in
  let narrow = issue_cycles kinds in
  let cfg = straight_line kinds in
  let wide = (Simulator.run (Machine.superscalar ~width:4) cfg Simulator.no_input).Simulator.cycles in
  Alcotest.(check bool)
    (Fmt.str "4-issue (%d) beats 1-issue (%d)" wide narrow)
    true (wide < narrow)

(* The paper's Section 3 estimate: Figure 2 runs in 20-22 cycles per
   iteration depending on how many min/max updates happen. *)
let test_fcompare_branch_delay () =
  let g = Reg.Gen.create () in
  let f0 = Reg.Gen.fresh g Reg.Fpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  let cfg =
    B.func ~reg_gen:g
      [
        ("A", [ B.fcmp ~dst:c ~lhs:f0 ~rhs:f0 ],
         B.bt ~cr:c ~cond:Instr.Eq ~taken:"B" ~fallthru:"B");
        ("B", [], Instr.Halt);
      ]
  in
  (* fcmp@0; branch at 0+1+5=6; halt@7; done at 8. *)
  Alcotest.(check int) "5-cycle fcompare->branch" 8 (run cfg).Simulator.cycles

let test_minmax_iteration_bands () =
  let t = Gis_workloads.Minmax.build () in
  (* All elements equal: u > v never holds; max updates... choose inputs
     forcing specific paths. Increasing data: u<v every pair -> the
     "else" arm with one update (max). *)
  let increasing = List.init 32 (fun i -> i * 3) in
  let per_iter =
    Simulator.cycles_per_iteration machine t.Gis_workloads.Minmax.cfg
      ~header:t.Gis_workloads.Minmax.loop_header
      (Gis_workloads.Minmax.input t increasing)
  in
  Alcotest.(check bool) (Fmt.str "band (%f)" per_iter) true
    (per_iter >= 19.0 && per_iter <= 23.0)

let test_cycles_per_iteration_errors () =
  let t = Gis_workloads.Minmax.build () in
  (* n = 1: the loop header is never entered twice. *)
  Alcotest.(check bool) "too few entries" true
    (match
       Simulator.cycles_per_iteration machine t.Gis_workloads.Minmax.cfg
         ~header:t.Gis_workloads.Minmax.loop_header
         (Gis_workloads.Minmax.input t [ 7 ])
     with
    | exception Failure _ -> true
    | _ -> false)

let test_observables_stable () =
  let t = Gis_workloads.Minmax.build () in
  let input = Gis_workloads.Minmax.input t [ 4; 9; 2; 7; 5; 1 ] in
  let a = Simulator.run machine t.Gis_workloads.Minmax.cfg input in
  let b = Simulator.run machine t.Gis_workloads.Minmax.cfg input in
  Alcotest.(check string) "deterministic" (Simulator.observables a)
    (Simulator.observables b);
  let min_v, max_v = Gis_workloads.Minmax.reference_min_max [ 4; 9; 2; 7; 5; 1 ] in
  Alcotest.(check (list string)) "min/max"
    [ Fmt.str "print_int(%d)" min_v; Fmt.str "print_int(%d)" max_v ]
    a.Simulator.output

(* A machine with no floating-point unit: [Machine.make] accepts it, and
   a float operation can then never issue. *)
let test_zero_unit_traps () =
  let g = Reg.Gen.create () in
  let a = Reg.Gen.fresh g Reg.Gpr in
  let fa = Reg.Gen.fresh g Reg.Fpr in
  let m =
    Machine.make ~name:"no-float" ~fixed_units:1 ~float_units:0 ~branch_units:1 ()
  in
  let cfg =
    straight_line [ B.li ~dst:a 1; B.fbinop Instr.Fadd ~dst:fa ~lhs:fa ~rhs:fa ]
  in
  let o = Simulator.run m cfg Simulator.no_input in
  Alcotest.(check string) "trap" "trap: no float unit"
    (Fmt.str "%a" Simulator.pp_stop_reason o.Simulator.stop);
  Alcotest.(check int) "only the load-immediate issued" 1 o.Simulator.instructions;
  (* Integer code never asks for the missing unit. *)
  let o = Simulator.run m (straight_line [ B.li ~dst:a 1 ]) Simulator.no_input in
  Alcotest.(check bool) "integer code halts" true
    (o.Simulator.stop = Simulator.Halted)

(* Register files grow with the registers a run names, not with the
   largest register id: an assembly input may name any. A run naming
   [r1000000] allocates exactly the words of the same run naming [r1],
   counted with [Gc.minor_words] and [Gc.counters], which see every
   minor allocation and every block allocated directly on the major
   heap, as a register file sized by the id would be. *)
let test_sparse_register_ids () =
  let words f =
    let total () =
      let _, promoted, major = Gc.counters () in
      Gc.minor_words () +. major -. promoted
    in
    let before = total () in
    let v = f () in
    (total () -. before, v)
  in
  let cost id =
    let g = Reg.Gen.create () in
    let r = Reg.Gen.reserve g Reg.Gpr id in
    let cfg = straight_line [ B.li ~dst:r 7; B.call "print_int" [ r ] ] in
    let allocated, o = words (fun () -> run cfg) in
    Alcotest.(check (list string)) "output" [ "print_int(7)" ] o.Simulator.output;
    Alcotest.(check (option int)) "read back" (Some 7) (o.Simulator.read_int r);
    allocated
  in
  let near = cost 1 in
  Alcotest.(check (float 0.)) "words independent of the id" near (cost 1_000_000)

(* ---- the decoded simulator against the reference ---- *)

let registers cfg =
  List.sort_uniq Reg.compare
    (List.concat_map (fun i -> Instr.defs i @ Instr.uses i) (Cfg.all_instrs cfg))

(* Every field of the two outcomes, with the full event log, and the
   final value of every register the program names. [compare] rather
   than [=], so a NaN in memory equals itself. *)
let same_outcome ?frame ~what m cfg input =
  let a = Simulator.run ~trace:true ?frame m cfg input in
  let b = Simulator_ref.run ~trace:true ?frame m cfg input in
  let same x y = compare x y = 0 in
  let fields =
    [
      ("stop", same a.Simulator.stop b.Simulator.stop);
      ("cycles", a.Simulator.cycles = b.Simulator.cycles);
      ("instructions", a.Simulator.instructions = b.Simulator.instructions);
      ("output", same a.Simulator.output b.Simulator.output);
      ("memory", same a.Simulator.final_memory b.Simulator.final_memory);
      ( "float memory",
        same a.Simulator.final_float_memory b.Simulator.final_float_memory );
      ( "spill memory",
        same a.Simulator.final_spill_memory b.Simulator.final_spill_memory );
      ( "spill float memory",
        same a.Simulator.final_spill_float_memory
          b.Simulator.final_spill_float_memory );
      ("block counts", same a.Simulator.block_counts b.Simulator.block_counts);
      ("telemetry", same a.Simulator.telemetry b.Simulator.telemetry);
      ( "registers",
        List.for_all
          (fun r -> a.Simulator.read_int r = b.Simulator.read_int r)
          (registers cfg) );
    ]
  in
  match List.filter (fun (_, ok) -> not ok) fields with
  | [] -> true
  | bad ->
      QCheck.Test.fail_reportf "%s on %s: %s differ" what (Machine.name m)
        (String.concat ", " (List.map fst bad))

(* The post CFG of every stage of the speculative pipeline, on each of
   the fuzzer's eight machine cells; an allocated cell contributes its
   allocated code, run with the spill frame on the remapped input. *)
let stages_match_reference source input =
  List.for_all
    (fun (cell : Gis_fuzz.Fuzz.cell) ->
      let posts = ref [] in
      let config =
        {
          (Gis_core.Config.of_level cell.Gis_fuzz.Fuzz.level) with
          Gis_core.Config.regalloc = cell.Gis_fuzz.Fuzz.regalloc;
          regs =
            (if cell.Gis_fuzz.Fuzz.regalloc then Some Gis_fuzz.Fuzz.regalloc_regs
             else None);
          check =
            Some (fun ~stage ~pre:_ ~post -> posts := (stage, post) :: !posts);
        }
      in
      let m = cell.Gis_fuzz.Fuzz.machine in
      match Gis_core.Pipeline.run m config (Cfg.deep_copy source) with
      | exception Gis_regalloc.Regalloc.Infeasible _ -> true
      | { Gis_core.Pipeline.regalloc = Some alloc; _ } ->
          same_outcome ?frame:alloc.Gis_regalloc.Regalloc.frame ~what:"regalloc"
            m (List.assoc "regalloc" !posts)
            (Gis_regalloc.Regalloc.remap_input alloc input)
      | { Gis_core.Pipeline.regalloc = None; _ } ->
          List.for_all (fun (what, post) -> same_outcome ~what m post input) !posts)
    (List.filter
       (fun (c : Gis_fuzz.Fuzz.cell) ->
         c.Gis_fuzz.Fuzz.level = Gis_core.Config.Speculative)
       Gis_fuzz.Fuzz.cells)

let matches_reference params seed =
  let compiled = Test_support.pinned_compiled params ~seed in
  let input = Gis_workloads.Random_prog.random_input ~seed compiled in
  let source = compiled.Gis_frontend.Codegen.cfg in
  (* The most entered block, as a loop header. *)
  let per_iteration run =
    match
      List.sort
        (fun (_, a) (_, b) -> compare b a)
        (Simulator.run machine source input).Simulator.block_counts
    with
    | (header, _) :: _ -> (
        match run machine source ~header input with
        | v -> Some v
        | exception Failure _ -> None)
    | [] -> None
  in
  same_outcome ~what:"source" machine source input
  && per_iteration (Simulator.cycles_per_iteration ?fuel:None)
     = per_iteration (Simulator_ref.cycles_per_iteration ?fuel:None)
  && stages_match_reference source input

(* The paper's workloads add what Tiny-C never emits: the update-form
   loads of Figure 2, whose base register is a second definition. *)
let test_workloads_match_reference () =
  List.iter
    (fun (name, (cfg, input)) ->
      Alcotest.(check bool) name true (stages_match_reference cfg input))
    (Test_support.standard_programs ())

(* What a well-formed CFG never holds: a branch to a label naming no
   block raises [Cfg.block_of_label]'s error when it is taken; a
   non-branch terminator traps; a branch in a body is only evaluated. *)
let test_malformed_match_reference () =
  let g = Reg.Gen.create () in
  let x = Reg.Gen.fresh g Reg.Gpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  let outcome run cfg =
    match run cfg with
    | o -> Ok (Fmt.str "%a" Simulator.pp_stop_reason o.Simulator.stop)
    | exception Invalid_argument m -> Error m
  in
  let both cfg =
    Alcotest.(check (result string string))
      "same as the reference"
      (outcome (fun cfg -> Simulator_ref.run machine cfg Simulator.no_input) cfg)
      (outcome (fun cfg -> run cfg) cfg)
  in
  let branch_to taken =
    B.func ~reg_gen:g
      [
        ( "A",
          [ B.li ~dst:x 1; B.cmpi ~dst:c ~lhs:x 0 ],
          B.bt ~cr:c ~cond:Instr.Gt ~taken ~fallthru:"B" );
        ("B", [], Instr.Halt);
      ]
  in
  both (branch_to "Z");
  Alcotest.(check bool) "raises" true
    (Result.is_error (outcome (fun cfg -> run cfg) (branch_to "Z")));
  let cfg = branch_to "B" in
  let a = Cfg.block cfg (Cfg.entry cfg) in
  Gis_util.Vec.push a.Block.body (Cfg.make_instr cfg (B.jmp "Z"));
  both cfg;
  Cfg.set_term cfg a.Block.id (Cfg.make_instr cfg (B.li ~dst:x 2));
  both cfg;
  Alcotest.(check bool) "traps" true
    (match (run cfg).Simulator.stop with
    | Simulator.Trap _ -> true
    | Simulator.Halted | Simulator.Out_of_fuel -> false)

let qtest name count prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count QCheck.(int_range 1 1_000_000) prop)

let () =
  Alcotest.run "gis_sim"
    [
      ( "semantics",
        [
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "div-by-zero" `Quick test_div_by_zero_traps;
          Alcotest.test_case "memory/update" `Quick test_memory_and_update_forms;
          Alcotest.test_case "branches" `Quick test_branches;
          Alcotest.test_case "fuel" `Quick test_fuel;
          Alcotest.test_case "floats" `Quick test_float_path;
          Alcotest.test_case "zero-unit machine traps" `Quick test_zero_unit_traps;
          Alcotest.test_case "sparse register ids" `Quick test_sparse_register_ids;
        ] );
      ( "timing",
        [
          Alcotest.test_case "delayed load" `Quick test_delayed_load_stall;
          Alcotest.test_case "compare-branch delay" `Quick test_compare_branch_delay;
          Alcotest.test_case "parallel units" `Quick test_parallel_units;
          Alcotest.test_case "detailed store->load" `Quick
            test_detailed_store_load_penalty;
          Alcotest.test_case "store-queue across call" `Quick
            test_store_queue_survives_call;
          Alcotest.test_case "call-heavy breakdown" `Quick
            test_call_heavy_breakdown;
          Alcotest.test_case "fcompare-branch delay" `Quick test_fcompare_branch_delay;
          Alcotest.test_case "minmax 20-22" `Quick test_minmax_iteration_bands;
          Alcotest.test_case "determinism" `Quick test_observables_stable;
          Alcotest.test_case "cycles-per-iteration errors" `Quick
            test_cycles_per_iteration_errors;
        ] );
      ( "reference properties",
        Alcotest.test_case "paper workloads" `Quick test_workloads_match_reference
        :: Alcotest.test_case "malformed CFGs" `Quick test_malformed_match_reference
        :: List.map
          (fun (grammar, params) ->
            qtest ("simulator = hash-table reference, " ^ grammar) 25
              (matches_reference params))
          [
            ("default", Gis_workloads.Random_prog.default);
            ("hardened", Gis_workloads.Random_prog.hardened);
          ] );
    ]
