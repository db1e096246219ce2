(* Benchmark harness: regenerates the cycle tables of the paper's
   evaluation (Section 6) plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe
     dune exec bench/main.exe -- --json            # also write BENCH_gis.json
     dune exec bench/main.exe -- --json out.json --baseline BENCH_gis.json --check

   Tables:
     E1-E3  Figures 2/5/6 — minmax cycles per iteration at each level
     E5     Figure 8      — run-time improvement on the SPEC proxies
     E6     Section 5.3   — the blocked speculative motion
     A1     ablation      — issue-width sweep
     A2     ablation      — heuristic rule ordering
     A3     ablation      — renaming / unrolling / rotation / pruning
     A4     extension     — register-web splitting (Section 4.2)
     A5     extension     — n-branch speculation (Definition 7)
     A6     extension     — profile-guided speculation
     A7     extension     — detailed machine model for the local pass
     A8     extension     — restricted scheduling-with-duplication
     M1     extension     — absolute cycles by issue width
     G1     extension     — gap to the dependence/resource lower bound
     A1     extension     — symbolic memory disambiguation
     R1     extension     — register allocation spill cost (on/off/tight)
     P1     driver        — batch results identical at jobs 1/2/4
     P2     self-profile  — allocation per pipeline phase

   Every table except E6, R1 and P1 is a view over one cell store: each
   (program, compile machine, simulation machine, configuration) is
   compiled and simulated once, on first use, and every table that names
   it reads that one cell. E6 reads the global scheduler's reports
   directly; R1 and P1 measure [Driver.run_one] and the batch pool on
   the driver's own inputs, which differ from the tables' (see [store]).

   Every number is a simulator count or an allocation count, so two runs
   write byte-identical reports. The compiler's own wall-clock time
   (Figure 7's compile-time overhead) is measured by gisbench
   (bench/perf). Each table function only computes its rows as JSON;
   [table] prints them, so the text and the --json report cannot
   disagree. *)

open Gis_ir
open Gis_machine
open Gis_core
open Gis_sim
open Gis_frontend
open Gis_workloads
open Gis_obs

let rs6k = Machine.rs6k

(* ------------------------------------------------------------------ *)
(* Table printer                                                       *)
(* ------------------------------------------------------------------ *)

(* A cell's text, and whether it is a number (right-aligned). *)
let cell = function
  | Json.Int i -> (string_of_int i, true)
  | Json.Float f -> (Printf.sprintf "%.1f" f, true)
  | Json.String s -> (s, false)
  | Json.Bool b -> (string_of_bool b, false)
  | (Json.Null | Json.List _ | Json.Obj _) as v ->
      (Json.to_string ~minify:true v, false)

let fields = function Json.Obj kvs -> kvs | v -> [ ("", v) ]

(* Nested objects of scalars become dotted column heads. *)
let rec flatten (k, v) =
  match v with
  | Json.Obj kvs -> List.concat_map (fun (k', v) -> flatten (k ^ "." ^ k', v)) kvs
  | v -> [ (k, cell v) ]

(* An object of objects ([by_width], [by_cell], ...) is a sub-table. *)
let sub_rows = function
  | Json.Obj ((_, Json.Obj _) :: _ as kvs) -> kvs
  | _ -> []

(* The text lines of one row, as (column head, cell) lists. A sub-table
   expands to indented sub-rows keyed by its field names, with the
   parent's cells on the first one only. *)
let lines_of_row row =
  let flat, nested = List.partition (fun (_, v) -> sub_rows v = []) (fields row) in
  let parent = List.concat_map flatten flat in
  let blank = List.map (fun (h, _) -> (h, ("", false))) parent in
  match nested with
  | [] -> [ parent ]
  | (name, sub) :: _ ->
      List.mapi
        (fun i (key, v) ->
          (if i = 0 then parent else blank)
          @ ((name, (key, false)) :: List.concat_map flatten (fields v)))
        (sub_rows sub)

let print_rows indent rows =
  match List.concat_map lines_of_row rows with
  | [] -> ()
  | first :: _ as lines ->
      let widths =
        List.fold_left
          (fun ws line ->
            List.map2 (fun w (_, (s, _)) -> max w (String.length s)) ws line)
          (List.map (fun (h, _) -> String.length h) first)
          lines
      in
      let print cells =
        Fmt.pr "%s%s@." indent
          (String.concat " | "
             (List.map2
                (fun w (s, right) ->
                  if right then Printf.sprintf "%*s" w s
                  else Printf.sprintf "%-*s" w s)
                widths cells))
      in
      print (List.map (fun (h, _) -> (h, false)) first);
      Fmt.pr "%s%s@." indent
        (String.concat "-+-" (List.map (fun w -> String.make w '-') widths));
      List.iter (fun line -> print (List.map snd line)) lines

(* Print a table's title, optional note and rows, and return the rows:
   the stdout tables are rendered from exactly the JSON the report
   carries. An object of lists (E6) prints one table per field. *)
let table title ?note rows =
  Fmt.pr "@.=== %s ===@." title;
  Option.iter (Fmt.pr "  (%s)@.") note;
  (match rows with
  | Json.Obj sections ->
      List.iter
        (fun (k, v) ->
          Fmt.pr "  %s:@." k;
          print_rows "    " (Json.to_list v))
        sections
  | rows -> print_rows "  " (Json.to_list rows));
  rows

(* ------------------------------------------------------------------ *)
(* The programs                                                        *)
(* ------------------------------------------------------------------ *)

(* A program and the input every table simulates it on. Each is built
   once; a cell compiles a deep copy of [cfg0]. *)
type program = { name : string; cfg0 : Cfg.t; input : Simulator.input }

let minmax = Minmax.build ()

let minmax_program =
  let rng = Prng.create ~seed:5 in
  let elements = List.init 64 (fun _ -> Prng.int rng 1000) in
  { name = "minmax"; cfg0 = minmax.Minmax.cfg; input = Minmax.input minmax elements }

let spec_proxies =
  List.map
    (fun (p : Spec_proxy.t) ->
      let c = Spec_proxy.compile p in
      { name = p.Spec_proxy.name; cfg0 = c.Codegen.cfg; input = p.Spec_proxy.setup c })
    Spec_proxy.all

(* The five programs of the paper's evaluation. *)
let proxies = minmax_program :: spec_proxies

(* ------------------------------------------------------------------ *)
(* The cell store                                                      *)
(* ------------------------------------------------------------------ *)

(* One compiled and simulated configuration of one program: the
   pipeline's stats, the scheduled CFG, the simulator's outcome and the
   allocation tree of its compile. *)
type cell = { stats : Pipeline.stats; cfg : Cfg.t; os : Simulator.outcome; prof : Prof.t }

(* Every table reads its cells from here, so each (program, compile
   machine, simulation machine, configuration) is compiled and simulated
   once, on first use. The configuration part of the key is [Config.pp],
   which prints every field that changes a run: rows that different
   tables label differently (A2's "paper", A3's "full pipeline", E5's
   speculative column) land on one cell. Machines are keyed by name, and
   a profile-guided configuration only by the presence of its profile,
   which is always the keyed program's own run.

   The store does not go through [Driver.run_one]: that runs each
   program on [Driver.default_input] (seed 3), while the tables simulate
   minmax on seed 5 and the proxies on [Spec_proxy.setup], so every
   cycle figure would change. R1 and P1 measure the driver itself and
   call it directly. *)
let store : (string, cell) Hashtbl.t = Hashtbl.create 256

let cell ?(machine = rs6k) ?(sim = machine) config p =
  let key =
    Fmt.str "%s %s %s %a" p.name (Machine.name machine) (Machine.name sim)
      Config.pp config
  in
  match Hashtbl.find_opt store key with
  | Some c -> c
  | None ->
      let prof = Prof.create () in
      let cfg = Cfg.deep_copy p.cfg0 in
      let stats = Pipeline.run machine { config with Config.prof = Some prof } cfg in
      let c = { stats; cfg; os = Simulator.run sim cfg p.input; prof } in
      Hashtbl.add store key c;
      c

let cycles_of c = c.os.Simulator.cycles

(* One row per program: its name, then the fields [f] measures on it. *)
let per_program ?(programs = proxies) f =
  Json.List
    (List.map
       (fun p -> Json.Obj (("program", Json.String p.name) :: f p))
       programs)

(* Run-time improvement of [x] cycles over [base], in percent. *)
let rti ~base x = 100.0 *. (1.0 -. (float_of_int x /. float_of_int base))

let count_moves p c = List.length (List.filter p (Pipeline.moves c.stats))

let variant_json c =
  Json.Obj
    [
      ("cycles", Json.Int (cycles_of c));
      ("moves", Json.Int (List.length (Pipeline.moves c.stats)));
      ("renames", Json.Int (count_moves (fun m -> m.Global_sched.renamed <> None) c));
    ]

(* The dependence/resource lower bound of a cell's schedule. *)
let bound ?disambig machine c =
  Gis_bounds.Bounds.compute ?disambig ~machine
    ~halted:(c.os.Simulator.stop = Simulator.Halted)
    c.cfg c.os.Simulator.telemetry

let levels =
  [
    ("local", Config.base);
    ("useful", Config.useful_only);
    ("speculative", Config.speculative);
  ]

(* ------------------------------------------------------------------ *)
(* E1-E3: Figures 2/5/6                                                *)
(* ------------------------------------------------------------------ *)

let fig_config level =
  {
    Config.default with
    Config.level;
    unroll_small_loops = false;
    rotate_small_loops = false;
  }

let bench_figures_256 () =
  let measure level =
    Simulator.cycles_per_iteration rs6k
      (cell (fig_config level) minmax_program).cfg
      ~header:minmax.Minmax.loop_header minmax_program.input
  in
  Json.List
    (List.map
       (fun (name, level, paper, l) ->
         Json.Obj
           [
             ("figure", Json.String name);
             ("level", Json.String level);
             ("paper_cycles", Json.String paper);
             ("cycles_per_iteration", Json.Float (measure l));
           ])
       [
         ("Figure 2 (base, local)", "local", "20-22", Config.Local);
         ("Figure 5 (useful only)", "useful", "12-13", Config.Useful);
         ("Figure 6 (+speculative)", "speculative", "11-12", Config.Speculative);
       ])

(* ------------------------------------------------------------------ *)
(* E5: Figure 8 — run-time improvement                                 *)
(* ------------------------------------------------------------------ *)

let bench_figure8 () =
  let paper = [ ("li", ("2.0%", "6.9%")); ("eqntott", ("7.1%", "7.3%"));
                ("espresso", ("-0.5%", "0%")); ("gcc", ("-1.5%", "0%")) ] in
  per_program ~programs:spec_proxies (fun p ->
      let base = cycles_of (cell Config.base p) in
      let useful = cycles_of (cell Config.useful_only p) in
      let spec = cycles_of (cell Config.speculative p) in
      let pu, ps = List.assoc p.name paper in
      [
        ("base_cycles", Json.Int base);
        ("useful_cycles", Json.Int useful);
        ("speculative_cycles", Json.Int spec);
        ("useful_rti_percent", Json.Float (rti ~base useful));
        ("speculative_rti_percent", Json.Float (rti ~base spec));
        ("paper_useful_rti", Json.String pu);
        ("paper_speculative_rti", Json.String ps);
      ])

(* ------------------------------------------------------------------ *)
(* E6: Section 5.3 — the rejected motion                               *)
(* ------------------------------------------------------------------ *)

let bench_section53 () =
  let s = Section53.build () in
  let reports =
    Global_sched.schedule rs6k (fig_config Config.Speculative) s.Section53.cfg
  in
  let moved (m : Global_sched.move) =
    Json.Obj
      [
        ("uid", Json.Int m.Global_sched.uid);
        ("from", Json.String m.Global_sched.from_label);
        ("to", Json.String m.Global_sched.to_label);
      ]
  in
  let blocked (b : Global_sched.blocked) =
    let reason =
      match b.Global_sched.reason with
      | `Live_on_exit reg -> Fmt.str "%a live on exit" Reg.pp reg
      | `Rename_unsafe reg -> Fmt.str "%a not renameable" Reg.pp reg
    in
    Json.Obj
      [
        ("uid", Json.Int b.Global_sched.blocked_uid);
        ("reason", Json.String reason);
      ]
  in
  let each f g = Json.List (List.concat_map (fun r -> List.map f (g r)) reports) in
  Json.Obj
    [
      ("moved", each moved (fun r -> r.Global_sched.moves));
      ("blocked", each blocked (fun r -> r.Global_sched.blocked));
    ]

(* ------------------------------------------------------------------ *)
(* A1: issue-width sweep                                               *)
(* ------------------------------------------------------------------ *)

(* A1, M1 and G1 read the same level x issue-width cells. *)
let widths = [ 1; 2; 4; 8 ]

let width_cell lname width =
  cell ~machine:(Machine.superscalar ~width) (List.assoc lname levels)

let bench_width_sweep () =
  per_program (fun p ->
      let rti width =
        let cycles lname = cycles_of (width_cell lname width p) in
        ( string_of_int width,
          Json.Float (rti ~base:(cycles "local") (cycles "speculative")) )
      in
      [ ("rti_percent_by_width", Json.Obj (List.map rti widths)) ])

(* ------------------------------------------------------------------ *)
(* A2/A3: heuristic-order and design-choice ablations                  *)
(* ------------------------------------------------------------------ *)

(* One row per labelled configuration: rs6k cycles on every program. *)
let cycles_by_config ~key configs =
  Json.List
    (List.map
       (fun (label, config) ->
         Json.Obj
           [
             (key, Json.String label);
             ( "cycles",
               Json.Obj
                 (List.map
                    (fun p -> (p.name, Json.Int (cycles_of (cell config p))))
                    proxies) );
           ])
       configs)

let bench_heuristics () =
  cycles_by_config ~key:"rules"
    (List.map
       (fun (label, rules) -> (label, { Config.speculative with Config.rules }))
       [
         ("paper (class,D,CP,ord)", Priority_rule.paper_order);
         ("no delay heuristic", Priority_rule.[ Useful_first; Max_critical_path; Program_order ]);
         ("no critical path", Priority_rule.[ Useful_first; Max_delay; Program_order ]);
         ("program order only", Priority_rule.[ Useful_first; Program_order ]);
         ("speculative first", Priority_rule.[ Max_delay; Max_critical_path; Program_order ]);
       ])

let bench_ablation () =
  cycles_by_config ~key:"configuration"
    [
      ("full pipeline", Config.speculative);
      ("useful only", Config.useful_only);
      ("no renaming", { Config.speculative with Config.rename = false });
      ("no unroll/rotate",
       { Config.speculative with Config.unroll_small_loops = false;
         rotate_small_loops = false });
      ("no transitive pruning",
       { Config.speculative with Config.prune_transitive = false });
      ("no local post-pass",
       { Config.speculative with Config.local_post_pass = false });
      ("base (local only)", Config.base);
    ]

(* ------------------------------------------------------------------ *)
(* M1: machine-model sweep                                             *)
(* ------------------------------------------------------------------ *)

(* The paper's closing remark anticipates "even bigger payoffs in
   machines with a larger number of computational units": absolute
   cycles per workload at every level and issue width (the promoted
   examples/machine_sweep table). Unlike A1's relative-improvement
   percentages, these are absolute [_cycles] metrics, so the
   --baseline --check regression gate covers every cell. *)
let bench_machine_sweep () =
  per_program (fun p ->
      let by_width width =
        let cycles lname = Json.Int (cycles_of (width_cell lname width p)) in
        ( string_of_int width,
          Json.Obj
            [
              ("base_cycles", cycles "local");
              ("useful_cycles", cycles "useful");
              ("speculative_cycles", cycles "speculative");
            ] )
      in
      [ ("by_width", Json.Obj (List.map by_width widths)) ])

(* ------------------------------------------------------------------ *)
(* G1: gap to lower bound                                              *)
(* ------------------------------------------------------------------ *)

(* How far each achieved schedule sits above the dependence/resource
   lower bound of [Gis_bounds]: five workloads x three levels x the M1
   issue widths. The accounting identity (achieved = lower bound +
   attributed gap) is enforced on every cell, and the absolute
   [_cycles] fields join the --baseline --check regression gate, so a
   schedule that drifts away from its bound fails CI even when raw
   cycle counts stay within tolerance elsewhere. *)
let bench_gap_bounds () =
  let module Bounds = Gis_bounds.Bounds in
  per_program (fun p ->
      let by_cell lname width =
        let b = bound (Machine.superscalar ~width) (width_cell lname width p) in
        if not (Bounds.identity_holds b) then begin
          Fmt.epr "G1: bound identity violated on %s/%s/w%d@." p.name lname width;
          exit 1
        end;
        ( Fmt.str "%s.w%d" lname width,
          Json.Obj
            [
              ("achieved_cycles", Json.Int b.Bounds.achieved);
              ("lower_bound_cycles", Json.Int b.Bounds.lower_bound);
              ("gap_cycles", Json.Int b.Bounds.gap);
            ] )
      in
      [
        ( "by_cell",
          Json.Obj
            (List.concat_map
               (fun (lname, _) -> List.map (by_cell lname) widths)
               levels) );
      ])

(* ------------------------------------------------------------------ *)
(* A1 (disambiguation): symbolic affine addresses vs same-base rule    *)
(* ------------------------------------------------------------------ *)

(* The symbolic-address refinement's end-to-end effect: five workloads
   x three levels, scheduled with disambiguation off (the syntactic
   same-base rule alone, --no-disambig) and on (the default). Cycles
   and the dependence/resource lower bound enter as absolute [_cycles]
   metrics, so the --baseline --check gate holds the refinement to the
   same 2% tolerance as every other table. The two schedules must
   produce identical observable traces — disambiguation may only
   reorder memory operations it proved independent, never change what
   the program computes — so any divergence aborts the run. Each side
   also reports the Mem edges its own dependence graphs kept and
   pruned. *)
let bench_mem_disambiguation () =
  let module Bounds = Gis_bounds.Bounds in
  per_program (fun p ->
      let by_level (lname, config) =
        let run disambig =
          let c = cell { config with Config.disambiguate = disambig } p in
          (c, bound ~disambig rs6k c, c.stats.Pipeline.alias)
        in
        let off, boff, aoff = run false in
        let on, bon, aon = run true in
        if
          not
            (String.equal (Simulator.observables off.os) (Simulator.observables on.os))
        then begin
          Fmt.epr "A1: disambiguation changed observables on %s/%s@." p.name
            lname;
          exit 1
        end;
        ( lname,
          Json.Obj
            [
              ("off_cycles", Json.Int (cycles_of off));
              ("off_lower_bound_cycles", Json.Int boff.Bounds.lower_bound);
              ("off_gap_cycles", Json.Int boff.Bounds.gap);
              ("off_mem_kept", Json.Int (Gis_ddg.Ddg.tally_kept aoff));
              ("off_mem_pruned", Json.Int (Gis_ddg.Ddg.tally_pruned aoff));
              ("on_cycles", Json.Int (cycles_of on));
              ("on_lower_bound_cycles", Json.Int bon.Bounds.lower_bound);
              ("on_gap_cycles", Json.Int bon.Bounds.gap);
              ("on_mem_kept", Json.Int (Gis_ddg.Ddg.tally_kept aon));
              ("on_mem_pruned", Json.Int (Gis_ddg.Ddg.tally_pruned aon));
            ] )
      in
      [ ("by_level", Json.Obj (List.map by_level levels)) ])

(* ------------------------------------------------------------------ *)
(* A4-A8: extension ablations                                          *)
(* ------------------------------------------------------------------ *)

let bench_webs () =
  per_program (fun p ->
      [
        ("webs_off", variant_json (cell Config.speculative p));
        ( "webs_on",
          variant_json (cell { Config.speculative with Config.split_webs = true } p) );
      ])

let bench_speculation_degree () =
  per_program (fun p ->
      let by_degree d =
        let c = cell { Config.speculative with Config.max_speculation_degree = d } p in
        ( string_of_int d,
          Json.Obj
            [
              ("cycles", Json.Int (cycles_of c));
              ("moves", Json.Int (List.length (Pipeline.moves c.stats)));
            ] )
      in
      [ ("by_degree", Json.Obj (List.map by_degree [ 1; 2; 3 ])) ])

let bench_profile_guided () =
  per_program (fun p ->
      let profiled = Simulator.run rs6k p.cfg0 p.input in
      let profile = Simulator.profile_fn profiled in
      let guided threshold =
        let config =
          if threshold <= 0.0 then Config.speculative
          else
            {
              Config.speculative with
              Config.profile = Some profile;
              min_speculation_probability = threshold;
            }
        in
        let c = cell config p in
        Json.Obj
          [
            ("cycles", Json.Int (cycles_of c));
            ( "spec_moves",
              Json.Int
                (count_moves (fun m -> m.Global_sched.speculative) c) );
          ]
      in
      [
        ("profiled_cycles", Json.Int profiled.Simulator.cycles);
        ("blind", guided 0.0);
        ("guided_0_3", guided 0.3);
        ("guided_0_7", guided 0.7);
      ])

(* A store-then-reload kernel: the detailed model's store->load delay
   gives the local scheduler a reason to pull independent work in
   between. *)
let stencil =
  let compiled =
    Codegen.compile_string
      {|
int a[256];
int b[256];
int n;
int i;
int h;
int u;
int v;
i = 0;
h = 0;
while (i < n) {
  b[i] = a[i] + h;
  u = i * 3;
  v = u + (i >> 1);
  h = b[i] ^ v;
  i = i + 1;
}
print(h);
|}
  in
  {
    name = "stencil";
    cfg0 = compiled.Codegen.cfg;
    input =
      {
        Simulator.no_input with
        Simulator.int_regs = [ (Codegen.var_reg compiled "n", 200) ];
        memory =
          Codegen.array_input compiled
            [ ("a", List.init 200 (fun k -> k * 7 mod 113)) ];
      };
  }

let bench_two_model () =
  let detailed = Machine.rs6k_detailed in
  per_program ~programs:(proxies @ [ stencil ]) (fun p ->
      let run config = Json.Int (cycles_of (cell ~sim:detailed config p)) in
      [
        ("coarse_cycles", run Config.speculative);
        ( "detailed_cycles",
          run { Config.speculative with Config.local_machine = Some detailed } );
      ])

(* A diamond join fed by a slow divide: only duplication can lift the
   join's dependent add into the arms (see test_extensions.ml). *)
let join_div =
  let module B = Gis_ir.Builder in
  let g = Reg.Gen.create () in
  let p = Reg.Gen.reserve g Reg.Gpr 1 in
  let q = Reg.Gen.reserve g Reg.Gpr 2 in
  let m = Reg.Gen.fresh g Reg.Gpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  let a1 = Reg.Gen.fresh g Reg.Gpr in
  let t = Reg.Gen.fresh g Reg.Gpr in
  let u = Reg.Gen.fresh g Reg.Gpr in
  let cfg =
    B.func ~reg_gen:g
      [
        ( "E",
          [ B.binop Instr.Div ~dst:m ~lhs:p ~rhs:(Instr.Imm 3);
            B.cmpi ~dst:c ~lhs:p 0 ],
          B.bt ~cr:c ~cond:Instr.Gt ~taken:"L" ~fallthru:"R" );
        ("L", [ B.addi ~dst:a1 ~lhs:p 1 ], B.jmp "J");
        ("R", [ B.addi ~dst:a1 ~lhs:q 2 ], B.jmp "J");
        ( "J",
          [ B.add ~dst:t ~lhs:m ~rhs:q; B.add ~dst:u ~lhs:t ~rhs:a1;
            B.call "print_int" [ u ] ],
          Instr.Halt );
      ]
  in
  let input = { Simulator.no_input with Simulator.int_regs = [ (p, 41); (q, 7) ] } in
  { name = "join-div"; cfg0 = cfg; input }

let bench_duplication () =
  per_program ~programs:(proxies @ [ stencil; join_div ]) (fun p ->
      let run on = cell { Config.speculative with Config.allow_duplication = on } p in
      let off = run false in
      let on = run true in
      [
        ("off_cycles", Json.Int (cycles_of off));
        ("on_cycles", Json.Int (cycles_of on));
        ( "duplicated_moves",
          Json.Int
            (count_moves (fun m -> m.Global_sched.duplicated_into <> []) on) );
      ])

(* ------------------------------------------------------------------ *)
(* R1: register allocation                                             *)
(* ------------------------------------------------------------------ *)

(* Each configuration is one [Driver.run_one] of the workload on the
   64-element input, so its observables are checked against BASE; the
   allocated ones are also verified against that symbolic baseline. *)
let bench_regalloc () =
  let module D = Gis_driver.Driver in
  let module Regalloc = Gis_regalloc.Regalloc in
  Json.List
    (List.map
       (fun (task : D.task) ->
         let name = task.D.name in
         let run ?regs ~regalloc () =
           let config = { Config.speculative with Config.regalloc; regs } in
           match D.run_one ~elements:64 ~seed:3 rs6k config task with
           | Error e ->
               Fmt.epr "R1: %s: %a@." name D.pp_error e;
               exit 1
           | Ok { D.cfg; stats; sim; _ } -> (
               let s = Option.get sim in
               match stats.Pipeline.regalloc with
               | None -> (s, 0, None)
               | Some alloc ->
                   ( s,
                     List.length alloc.Regalloc.spilled,
                     Some
                       (Regalloc.verify ?gprs:regs ?fprs:regs ~machine:rs6k
                          ~baseline:s.D.baseline ~allocated:cfg alloc
                          s.D.input
                       = Ok ()) ))
         in
         let off, _, _ = run ~regalloc:false () in
         let on, on_spills, on_ok = run ~regalloc:true () in
         let tight, tight_spills, tight_ok = run ~regs:6 ~regalloc:true () in
         let verified = on_ok = Some true && tight_ok = Some true in
         if not verified then begin
           Fmt.epr "R1: allocation verifier failed on %s@." name;
           exit 1
         end;
         let cycles (s : D.simulation) = Json.Int s.D.sched.Simulator.cycles in
         Json.Obj
           [
             ("program", Json.String name);
             (* the symbolic BASE run the verifier compares against *)
             ("base_cycles", Json.Int off.D.base.Simulator.cycles);
             ("off_cycles", cycles off);
             ("on_cycles", cycles on);
             ("on_spilled_regs", Json.Int on_spills);
             ("tight_regs", Json.Int 6);
             ("tight_cycles", cycles tight);
             ("tight_spilled_regs", Json.Int tight_spills);
             ("verified", Json.Bool verified);
           ])
       (D.workload_tasks ()))

(* ------------------------------------------------------------------ *)
(* P1: parallel batch compilation                                      *)
(* ------------------------------------------------------------------ *)

let bench_parallel_batch () =
  let module D = Gis_driver.Driver in
  (* The four proxies + minmax, plus a generated corpus so the pool has
     enough independent units to keep four domains busy. *)
  let tasks = D.workload_tasks () @ D.corpus_tasks ~seeds:(List.init 11 (fun i -> 100 + i)) in
  let runs =
    List.map
      (fun jobs -> (jobs, D.run ~jobs rs6k Config.speculative tasks))
      [ 1; 2; 4 ]
  in
  let seq = List.assoc 1 runs in
  (* The whole point of the pool: worker count must not change results. *)
  let canon r = Json.to_string (D.report_to_json ~deterministic:true r) in
  Json.List
    (List.map
       (fun (jobs, r) ->
         if r.D.pool.D.failed > 0 then begin
           Fmt.epr "P1: batch failed at jobs=%d@." jobs;
           exit 1
         end;
         if not (String.equal (canon seq) (canon r)) then begin
           Fmt.epr "P1: results at jobs=%d differ from sequential@." jobs;
           exit 1
         end;
         let total f =
           List.fold_left
             (fun acc (t : D.task_result) ->
               match t.D.outcome with Ok s -> acc + f s | Error _ -> acc)
             0 r.D.results
         in
         Json.Obj
           [
             ("jobs", Json.Int jobs);
             ("tasks", Json.Int r.D.pool.D.tasks);
             ("identical_to_sequential", Json.Bool true);
             ("base_cycles", Json.Int (total (fun s -> s.D.base_cycles)));
             ("sched_cycles", Json.Int (total (fun s -> s.D.sched_cycles)));
           ])
       runs)

(* ------------------------------------------------------------------ *)
(* P2: compiler self-profile                                           *)
(* ------------------------------------------------------------------ *)

(* The allocation tree each workload's rs6k speculative cell recorded
   while it compiled. The [_bytes] keys join the regression gate (looser
   tolerance + absolute floor, see Regress), so an allocation blow-up in
   one phase fails CI like a cycle regression would; [cycles] holds the
   profiled schedule to the cycle gate. *)
let bench_self_profile () =
  per_program (fun p ->
      let c = cell Config.speculative p in
      let root =
        match Prof.roots c.prof with
        | [ r ] -> r
        | _ ->
            Fmt.epr "P2: expected exactly one profile tree for %s@." p.name;
            exit 1
      in
      if not (Prof.identity_ok root) then begin
        Fmt.epr "P2: profile accounting identity violated on %s@." p.name;
        exit 1
      end;
      let phase_bytes name =
        match
          List.find_opt
            (fun (n : Prof.node) -> String.equal n.Prof.name name)
            root.Prof.children
        with
        | Some n -> n.Prof.alloc_bytes
        | None -> 0
      in
      [
        ("alloc_bytes", Json.Int root.Prof.alloc_bytes);
        ( "phases",
          Json.Obj
            (List.map
               (fun name -> (name ^ "_bytes", Json.Int (phase_bytes name)))
               Pipeline.phase_names) );
        ("cycles", Json.Int (cycles_of c));
      ])

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let usage rest =
  Fmt.epr "usage: %s [--json [FILE]] [--baseline FILE] [--check] (got: %s)@."
    Sys.argv.(0) (String.concat " " rest);
  exit 2

let read_baseline path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m ->
      Fmt.epr "cannot read baseline: %s@." m;
      exit 2
  | text -> (
      match Json.of_string text with
      | Ok j -> (path, j)
      | Error m ->
          Fmt.epr "baseline %s is not valid JSON: %s@." path m;
          exit 2)

(* `--json` writes the report (default BENCH_gis.json); `--baseline
   FILE` diffs this run's cycle and allocation metrics against a
   committed report, and `--check` turns any regression or missing
   metric into exit code 1 (the CI gate). A bad flag, `--check` without
   a baseline, or an unreadable baseline exits 2 before any table
   runs. *)
let parse_args () =
  let rec go ((json, base, chk) as acc) = function
    | [] -> acc
    | "--check" :: rest -> go (json, base, true) rest
    | "--baseline" :: file :: rest when file <> "" && file.[0] <> '-' ->
        go (json, Some file, chk) rest
    | "--json" :: file :: rest when file <> "" && file.[0] <> '-' ->
        go (Some file, base, chk) rest
    | "--json" :: rest -> go (Some "BENCH_gis.json", base, chk) rest
    | rest -> usage rest
  in
  match go (None, None, false) (List.tl (Array.to_list Sys.argv)) with
  | _, None, true ->
      Fmt.epr "--check needs --baseline FILE@.";
      exit 2
  | json, base, chk -> (json, Option.map read_baseline base, chk)

let () =
  let json_file, baseline, check = parse_args () in
  Fmt.pr "Global Instruction Scheduling for Superscalar Machines@.";
  Fmt.pr "Bernstein & Rodeh, PLDI 1991 — benchmark reproduction@.";
  let e1_e3 =
    table "E1-E3: minmax cycles/iteration (Figures 2, 5, 6)"
      (bench_figures_256 ())
  in
  let e5 =
    table "E5: run-time improvement on SPEC proxies (Figure 8)"
      (bench_figure8 ())
  in
  let e6 =
    table "E6: Section 5.3 speculation safety"
      ~note:"the paper requires exactly one of x=5 / x=3 to move"
      (bench_section53 ())
  in
  let a1 =
    table "A1: issue-width sweep (speculative RTI over same-width base)"
      (bench_width_sweep ())
  in
  let a2 =
    table "A2: heuristic ordering ablation (minmax + proxies, rs6k cycles)"
      (bench_heuristics ())
  in
  let a3 =
    table "A3: design-choice ablation (rs6k cycles, lower is better)"
      (bench_ablation ())
  in
  let a4 =
    table "A4: register-web splitting (Section 4.2 renaming pre-pass)"
      (bench_webs ())
  in
  let a5 =
    table "A5: speculation degree (Definition 7; paper prototype = 1)"
      (bench_speculation_degree ())
  in
  let a6 =
    table "A6: profile-guided speculation (threshold on execution probability)"
      (bench_profile_guided ())
  in
  let a7 =
    table "A7: two-model design (Section 5.1's detailed local scheduler)"
      ~note:
        "cycles simulated on rs6k-detailed, whose store->load delay only the \
         local post-pass may know about"
      (bench_two_model ())
  in
  let a8 =
    table "A8: scheduling with duplication (Definition 6 / Section 7 future work)"
      ~note:"off by default: the paper's prototype forbids duplication"
      (bench_duplication ())
  in
  let m1 =
    table "M1: machine sweep (absolute cycles by issue width, all levels)"
      (bench_machine_sweep ())
  in
  let g1 =
    table "G1: gap to lower bound (achieved vs max(chain, resource))"
      ~note:"bound identity exact on every cell" (bench_gap_bounds ())
  in
  let a1d =
    table
      "A1: memory disambiguation (affine symbolic addresses vs same-base rule)"
      ~note:"observable traces identical off/on in every cell"
      (bench_mem_disambiguation ())
  in
  let r1 =
    table "R1: register allocation (linear scan + spill code, rs6k cycles)"
      ~note:
        "RA off runs on virtual registers; RA on maps to the machine's file \
         and prices any spill code in cycles; spill counts are registers sent \
         to stack slots; the verifier diffs observables against the symbolic \
         schedule"
      (bench_regalloc ())
  in
  (* Every cell, and so every allocation tree P2 reads, is computed
     before P1 spawns worker domains: [Gc.allocated_bytes] folds a
     terminated domain's counters into the survivors at an unpredictable
     GC point, which would land ~1MB in whichever phase was open when
     the merge happened and break byte-determinism. *)
  let p2 =
    table "P2: compiler self-profile (allocation per pipeline phase)"
      ~note:
        "bytes allocated compiling each workload at the speculative level; \
         accounting identity checked on every workload"
      (bench_self_profile ())
  in
  let p1 =
    table "P1: parallel batch compilation (driver pool, jobs 1/2/4)"
      ~note:
        "workloads plus a generated corpus; every job count must reproduce \
         the sequential results byte for byte"
      (bench_parallel_batch ())
  in
  let report =
    Json.Obj
      [
        ( "paper",
          Json.String
            "Global Instruction Scheduling for Superscalar Machines \
             (Bernstein & Rodeh, PLDI 1991)" );
        ("E1_E3_figures_2_5_6", e1_e3);
        ("E5_figure8_runtime", e5);
        ("E6_section53_safety", e6);
        ("A1_width_sweep", a1);
        ("A1_mem_disambiguation", a1d);
        ("A2_heuristic_order", a2);
        ("A3_design_ablation", a3);
        ("A4_register_webs", a4);
        ("A5_speculation_degree", a5);
        ("A6_profile_guided", a6);
        ("A7_two_model", a7);
        ("A8_duplication", a8);
        ("M1_cycles_vs_width", m1);
        ("G1_gap_to_lower_bound", g1);
        ("R1_register_allocation", r1);
        ("P1_parallel_batch", p1);
        ("P2_self_profile", p2);
      ]
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Json.to_string report);
          output_char oc '\n');
      Fmt.pr "@.tables written to %s@." path)
    json_file;
  (* Under --check, a cycle regression beyond the 2% tolerance (or a
     metric the baseline had that this run lost) is exit code 1 — the
     CI leg runs exactly this against BENCH_gis.json. *)
  Option.iter
    (fun (path, baseline) ->
      let outcome = Regress.check ~baseline ~current:report () in
      Fmt.pr "@.baseline %s@.%a" path Regress.pp outcome;
      if check then
        if Regress.ok outcome then Fmt.pr "@.regression gate: ok@."
        else begin
          Fmt.pr "@.regression gate: FAIL@.";
          exit 1
        end)
    baseline;
  Fmt.pr "@.done.@."
