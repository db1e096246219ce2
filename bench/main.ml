(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6) plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe
     dune exec bench/main.exe -- --json            # also write BENCH_gis.json
     dune exec bench/main.exe -- --json out.json

   Tables:
     E1-E3  Figures 2/5/6 — minmax cycles per iteration at each level
     E4     Figure 7      — compile-time overhead of global scheduling
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
     R1     extension     — register allocation spill cost (on/off/tight)

   E4 uses Bechamel (one Test.make per program+configuration); the other
   tables are simulator measurements, which are deterministic. Every
   table function returns its data as JSON so --json can dump the whole
   evaluation machine-readably. *)

open Gis_ir
open Gis_machine
open Gis_core
open Gis_sim
open Gis_frontend
open Gis_workloads
open Gis_obs

let rs6k = Machine.rs6k

let hr title = Fmt.pr "@.=== %s ===@." title

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

let minmax_elements =
  let rng = Prng.create ~seed:5 in
  List.init 64 (fun _ -> Prng.int rng 1000)

let bench_figures_256 () =
  hr "E1-E3: minmax cycles/iteration (Figures 2, 5, 6)";
  let t = Minmax.build () in
  let input = Minmax.input t minmax_elements in
  let measure level =
    let cfg = Cfg.deep_copy t.Minmax.cfg in
    ignore (Pipeline.run rs6k (fig_config level) cfg);
    Simulator.cycles_per_iteration rs6k cfg ~header:t.Minmax.loop_header input
  in
  let rows =
    [
      ("Figure 2 (base, local)", "local", "20-22", measure Config.Local);
      ("Figure 5 (useful only)", "useful", "12-13", measure Config.Useful);
      ("Figure 6 (+speculative)", "speculative", "11-12",
       measure Config.Speculative);
    ]
  in
  Fmt.pr "  %-26s | paper      | measured@." "schedule";
  Fmt.pr "  %-26s-+------------+---------@." (String.make 26 '-');
  List.iter
    (fun (name, _, paper, v) -> Fmt.pr "  %-26s | %-10s | %5.1f@." name paper v)
    rows;
  Json.List
    (List.map
       (fun (name, level, paper, v) ->
         Json.Obj
           [
             ("figure", Json.String name);
             ("level", Json.String level);
             ("paper_cycles", Json.String paper);
             ("cycles_per_iteration", Json.Float v);
           ])
       rows)

(* ------------------------------------------------------------------ *)
(* E4: Figure 7 — compile-time overhead, via Bechamel                  *)
(* ------------------------------------------------------------------ *)

let nanoseconds_of_test test =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second 0.4) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] test in
  let results = Analyze.all ols instance raw in
  Hashtbl.fold
    (fun _name ols_result acc ->
      match Analyze.OLS.estimates ols_result with
      | Some (est :: _) -> est
      | Some [] | None -> acc)
    results nan

let bench_figure7 ~deterministic () =
  hr "E4: compile-time overhead (Figure 7)";
  Fmt.pr
    "  (BASE = parse + lower + local scheduling; CTO = extra time for the \
     full global pipeline)@.";
  Fmt.pr "  %-10s | base (us) | full (us) | CTO meas. | CTO paper@." "program";
  let rows =
    List.map
      (fun (p : Spec_proxy.t) ->
        let compile config () =
          let compiled = Codegen.compile_string p.Spec_proxy.source in
          ignore (Pipeline.run rs6k config compiled.Codegen.cfg)
        in
        let t_base =
          nanoseconds_of_test
            (Bechamel.Test.make
               ~name:(p.Spec_proxy.name ^ "-base")
               (Bechamel.Staged.stage (compile Config.base)))
        in
        let t_full =
          nanoseconds_of_test
            (Bechamel.Test.make
               ~name:(p.Spec_proxy.name ^ "-full")
               (Bechamel.Staged.stage (compile Config.speculative)))
        in
        let paper_cto =
          match p.Spec_proxy.name with
          | "li" -> "13%"
          | "eqntott" -> "17%"
          | "espresso" -> "12%"
          | "gcc" -> "13%"
          | _ -> "?"
        in
        let cto = 100.0 *. ((t_full /. t_base) -. 1.0) in
        Fmt.pr "  %-10s | %9.1f | %9.1f | %+8.0f%% | %s@." p.Spec_proxy.name
          (t_base /. 1e3) (t_full /. 1e3) cto paper_cto;
        let zf x = if deterministic then 0.0 else x in
        Json.Obj
          [
            ("program", Json.String p.Spec_proxy.name);
            ("base_us", Json.Float (zf (t_base /. 1e3)));
            ("full_us", Json.Float (zf (t_full /. 1e3)));
            ("cto_percent", Json.Float (zf cto));
            ("paper_cto", Json.String paper_cto);
          ])
      Spec_proxy.all
  in
  Json.List rows

(* ------------------------------------------------------------------ *)
(* E5: Figure 8 — run-time improvement                                 *)
(* ------------------------------------------------------------------ *)

let bench_figure8 () =
  hr "E5: run-time improvement on SPEC proxies (Figure 8)";
  Fmt.pr "  %-10s | base cyc | useful RTI (paper) | spec RTI (paper)@." "program";
  let paper = [ ("li", ("2.0%", "6.9%")); ("eqntott", ("7.1%", "7.3%"));
                ("espresso", ("-0.5%", "0%")); ("gcc", ("-1.5%", "0%")) ] in
  let rows =
    List.map
      (fun (p : Spec_proxy.t) ->
        let compiled = Spec_proxy.compile p in
        let input = p.Spec_proxy.setup compiled in
        let cycles config =
          let cfg = Cfg.deep_copy compiled.Codegen.cfg in
          ignore (Pipeline.run rs6k config cfg);
          (Simulator.run rs6k cfg input).Simulator.cycles
        in
        let base = cycles Config.base in
        let useful = cycles Config.useful_only in
        let spec = cycles Config.speculative in
        let rti x = 100.0 *. (1.0 -. (float_of_int x /. float_of_int base)) in
        let pu, ps = List.assoc p.Spec_proxy.name paper in
        Fmt.pr "  %-10s | %8d | %8.1f%% (%5s) | %8.1f%% (%4s)@."
          p.Spec_proxy.name base (rti useful) pu (rti spec) ps;
        Json.Obj
          [
            ("program", Json.String p.Spec_proxy.name);
            ("base_cycles", Json.Int base);
            ("useful_cycles", Json.Int useful);
            ("speculative_cycles", Json.Int spec);
            ("useful_rti_percent", Json.Float (rti useful));
            ("speculative_rti_percent", Json.Float (rti spec));
            ("paper_useful_rti", Json.String pu);
            ("paper_speculative_rti", Json.String ps);
          ])
      Spec_proxy.all
  in
  Json.List rows

(* ------------------------------------------------------------------ *)
(* E6: Section 5.3 — the rejected motion                               *)
(* ------------------------------------------------------------------ *)

let bench_section53 () =
  hr "E6: Section 5.3 speculation safety";
  let s = Section53.build () in
  let reports =
    Global_sched.schedule rs6k (fig_config Config.Speculative) s.Section53.cfg
  in
  let moved = ref [] and blocked = ref [] in
  List.iter
    (fun (r : Global_sched.region_report) ->
      List.iter
        (fun (m : Global_sched.move) ->
          Fmt.pr "  moved:   uid %d  %a -> %a@." m.Global_sched.uid Label.pp
            m.Global_sched.from_label Label.pp m.Global_sched.to_label;
          moved :=
            Json.Obj
              [
                ("uid", Json.Int m.Global_sched.uid);
                ("from", Json.String m.Global_sched.from_label);
                ("to", Json.String m.Global_sched.to_label);
              ]
            :: !moved)
        r.Global_sched.moves;
      List.iter
        (fun (b : Global_sched.blocked) ->
          let reason =
            match b.Global_sched.reason with
            | `Live_on_exit reg -> Fmt.str "%a live on exit" Reg.pp reg
            | `Rename_unsafe reg -> Fmt.str "%a not renameable" Reg.pp reg
          in
          Fmt.pr "  blocked: uid %d  (%s)@." b.Global_sched.blocked_uid reason;
          blocked :=
            Json.Obj
              [
                ("uid", Json.Int b.Global_sched.blocked_uid);
                ("reason", Json.String reason);
              ]
            :: !blocked)
        r.Global_sched.blocked)
    reports;
  Fmt.pr "  (the paper requires exactly one of x=5 / x=3 to move)@.";
  Json.Obj
    [
      ("moved", Json.List (List.rev !moved));
      ("blocked", Json.List (List.rev !blocked));
    ]

(* ------------------------------------------------------------------ *)
(* A1: issue-width sweep                                               *)
(* ------------------------------------------------------------------ *)

let bench_width_sweep () =
  hr "A1: issue-width sweep (speculative RTI over same-width base)";
  let programs =
    ("minmax",
     (let t = Minmax.build () in
      (t.Minmax.cfg, Minmax.input t minmax_elements)))
    :: List.map
         (fun (p : Spec_proxy.t) ->
           let compiled = Spec_proxy.compile p in
           (p.Spec_proxy.name, (compiled.Codegen.cfg, p.Spec_proxy.setup compiled)))
         Spec_proxy.all
  in
  Fmt.pr "  %-10s |  width 1 |  width 2 |  width 4 |  width 8@." "program";
  let rows =
    List.map
      (fun (name, (cfg0, input)) ->
        let rtis =
          List.map
            (fun width ->
              let machine = Machine.superscalar ~width in
              let cycles config =
                let cfg = Cfg.deep_copy cfg0 in
                ignore (Pipeline.run machine config cfg);
                (Simulator.run machine cfg input).Simulator.cycles
              in
              let base = cycles Config.base in
              let spec = cycles Config.speculative in
              (width, 100.0 *. (1.0 -. (float_of_int spec /. float_of_int base))))
            [ 1; 2; 4; 8 ]
        in
        Fmt.pr "  %-10s |%a@." name
          Fmt.(list ~sep:(any " |") (fun ppf (_, r) -> pf ppf "%8.1f%%" r))
          rtis;
        Json.Obj
          [
            ("program", Json.String name);
            ( "rti_percent_by_width",
              Json.Obj
                (List.map
                   (fun (w, r) -> (string_of_int w, Json.Float r))
                   rtis) );
          ])
      programs
  in
  Json.List rows

(* ------------------------------------------------------------------ *)
(* A2: heuristic-order ablation                                        *)
(* ------------------------------------------------------------------ *)

let bench_heuristics () =
  hr "A2: heuristic ordering ablation (minmax + proxies, rs6k cycles)";
  let orders =
    [
      ("paper (class,D,CP,ord)", Priority_rule.paper_order);
      ("no delay heuristic", Priority_rule.[ Useful_first; Max_critical_path; Program_order ]);
      ("no critical path", Priority_rule.[ Useful_first; Max_delay; Program_order ]);
      ("program order only", Priority_rule.[ Useful_first; Program_order ]);
      ("speculative first", Priority_rule.[ Max_delay; Max_critical_path; Program_order ]);
    ]
  in
  let programs =
    ("minmax",
     (let t = Minmax.build () in
      (t.Minmax.cfg, Minmax.input t minmax_elements)))
    :: List.map
         (fun (p : Spec_proxy.t) ->
           let compiled = Spec_proxy.compile p in
           (p.Spec_proxy.name, (compiled.Codegen.cfg, p.Spec_proxy.setup compiled)))
         Spec_proxy.all
  in
  Fmt.pr "  %-24s" "priority rules";
  List.iter (fun (name, _) -> Fmt.pr " | %8s" name) programs;
  Fmt.pr "@.";
  let rows =
    List.map
      (fun (label, rules) ->
        Fmt.pr "  %-24s" label;
        let cells =
          List.map
            (fun (name, (cfg0, input)) ->
              let cfg = Cfg.deep_copy cfg0 in
              ignore
                (Pipeline.run rs6k { Config.speculative with Config.rules } cfg);
              let c = (Simulator.run rs6k cfg input).Simulator.cycles in
              Fmt.pr " | %8d" c;
              (name, Json.Int c))
            programs
        in
        Fmt.pr "@.";
        Json.Obj
          [ ("rules", Json.String label); ("cycles", Json.Obj cells) ])
      orders
  in
  Json.List rows

(* ------------------------------------------------------------------ *)
(* A3: design-choice ablation                                          *)
(* ------------------------------------------------------------------ *)

let bench_ablation () =
  hr "A3: design-choice ablation (rs6k cycles, lower is better)";
  let variants =
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
  in
  let programs =
    ("minmax",
     (let t = Minmax.build () in
      (t.Minmax.cfg, Minmax.input t minmax_elements)))
    :: List.map
         (fun (p : Spec_proxy.t) ->
           let compiled = Spec_proxy.compile p in
           (p.Spec_proxy.name, (compiled.Codegen.cfg, p.Spec_proxy.setup compiled)))
         Spec_proxy.all
  in
  Fmt.pr "  %-24s" "configuration";
  List.iter (fun (name, _) -> Fmt.pr " | %8s" name) programs;
  Fmt.pr "@.";
  let rows =
    List.map
      (fun (label, config) ->
        Fmt.pr "  %-24s" label;
        let cells =
          List.map
            (fun (name, (cfg0, input)) ->
              let cfg = Cfg.deep_copy cfg0 in
              ignore (Pipeline.run rs6k config cfg);
              let c = (Simulator.run rs6k cfg input).Simulator.cycles in
              Fmt.pr " | %8d" c;
              (name, Json.Int c))
            programs
        in
        Fmt.pr "@.";
        Json.Obj
          [ ("configuration", Json.String label); ("cycles", Json.Obj cells) ])
      variants
  in
  Json.List rows

(* ------------------------------------------------------------------ *)
(* A4-A6: extension ablations                                          *)
(* ------------------------------------------------------------------ *)

let proxy_programs () =
  ("minmax",
   (let t = Minmax.build () in
    (t.Minmax.cfg, Minmax.input t minmax_elements)))
  :: List.map
       (fun (p : Spec_proxy.t) ->
         let compiled = Spec_proxy.compile p in
         (p.Spec_proxy.name, (compiled.Codegen.cfg, p.Spec_proxy.setup compiled)))
       Spec_proxy.all

let run_variant cfg0 input config =
  let cfg = Cfg.deep_copy cfg0 in
  let stats = Pipeline.run rs6k config cfg in
  let moves = Pipeline.moves stats in
  let renames =
    List.length
      (List.filter (fun (m : Global_sched.move) -> m.Global_sched.renamed <> None) moves)
  in
  ((Simulator.run rs6k cfg input).Simulator.cycles, List.length moves, renames)

let variant_json (cycles, moves, renames) =
  Json.Obj
    [
      ("cycles", Json.Int cycles);
      ("moves", Json.Int moves);
      ("renames", Json.Int renames);
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
  hr "M1: machine sweep (absolute cycles by issue width, all levels)";
  let widths = [ 1; 2; 4; 8 ] in
  let rows =
    List.map
      (fun (name, (cfg0, input)) ->
        Fmt.pr "  %s:@." name;
        Fmt.pr "    width |    base |  useful |    spec | spec RTI@.";
        let cells =
          List.map
            (fun width ->
              let machine = Machine.superscalar ~width in
              let cycles config =
                let cfg = Cfg.deep_copy cfg0 in
                ignore (Pipeline.run machine config cfg);
                (Simulator.run machine cfg input).Simulator.cycles
              in
              let base = cycles Config.base in
              let useful = cycles Config.useful_only in
              let spec = cycles Config.speculative in
              Fmt.pr "    %5d | %7d | %7d | %7d | %7.1f%%@." width base
                useful spec
                (100.0 *. (1.0 -. (float_of_int spec /. float_of_int base)));
              ( string_of_int width,
                Json.Obj
                  [
                    ("base_cycles", Json.Int base);
                    ("useful_cycles", Json.Int useful);
                    ("speculative_cycles", Json.Int spec);
                  ] ))
            widths
        in
        Json.Obj
          [ ("program", Json.String name); ("by_width", Json.Obj cells) ])
      (proxy_programs ())
  in
  Json.List rows

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
  hr "G1: gap to lower bound (achieved vs max(chain, resource))";
  let module Bounds = Gis_bounds.Bounds in
  let levels =
    [
      ("local", Config.base);
      ("useful", Config.useful_only);
      ("speculative", Config.speculative);
    ]
  in
  let widths = [ 1; 2; 4; 8 ] in
  let rows =
    List.map
      (fun (name, (cfg0, input)) ->
        Fmt.pr "  %s:@." name;
        Fmt.pr "    %-12s | width | achieved |   bound |    gap@." "level";
        let cells =
          List.concat_map
            (fun (lname, config) ->
              List.map
                (fun width ->
                  let machine = Machine.superscalar ~width in
                  let cfg = Cfg.deep_copy cfg0 in
                  ignore (Pipeline.run machine config cfg);
                  let os = Simulator.run machine cfg input in
                  let b =
                    Bounds.compute ~machine
                      ~halted:(os.Simulator.stop = Simulator.Halted)
                      cfg os.Simulator.telemetry
                  in
                  if not (Bounds.identity_holds b) then begin
                    Fmt.epr "G1: bound identity violated on %s/%s/w%d@." name
                      lname width;
                    exit 1
                  end;
                  Fmt.pr "    %-12s | %5d | %8d | %7d | %6d@." lname width
                    b.Bounds.achieved b.Bounds.lower_bound b.Bounds.gap;
                  ( Fmt.str "%s.w%d" lname width,
                    Json.Obj
                      [
                        ("achieved_cycles", Json.Int b.Bounds.achieved);
                        ("lower_bound_cycles", Json.Int b.Bounds.lower_bound);
                        ("gap_cycles", Json.Int b.Bounds.gap);
                      ] ))
                widths)
            levels
        in
        Json.Obj [ ("program", Json.String name); ("by_cell", Json.Obj cells) ])
      (proxy_programs ())
  in
  Fmt.pr "  (bound identity exact on every cell)@.";
  Json.List rows

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
   the program computes — so any divergence aborts the run. *)
let bench_mem_disambiguation () =
  hr "A1: memory disambiguation (affine symbolic addresses vs same-base rule)";
  let module Bounds = Gis_bounds.Bounds in
  let levels =
    [
      ("local", Config.base);
      ("useful", Config.useful_only);
      ("speculative", Config.speculative);
    ]
  in
  let rows =
    List.map
      (fun (name, (cfg0, input)) ->
        Fmt.pr "  %s:@." name;
        Fmt.pr "    %-12s | off: cyc / bound / gap | on: cyc / bound / gap@."
          "level";
        let cells =
          List.map
            (fun (lname, config) ->
              let run disambig =
                let cfg = Cfg.deep_copy cfg0 in
                ignore
                  (Pipeline.run rs6k
                     { config with Config.disambiguate = disambig }
                     cfg);
                let os = Simulator.run rs6k cfg input in
                let b =
                  Bounds.compute ~disambig ~machine:rs6k
                    ~halted:(os.Simulator.stop = Simulator.Halted)
                    cfg os.Simulator.telemetry
                in
                (os, b)
              in
              let ooff, boff = run false in
              let oon, bon = run true in
              if
                not
                  (String.equal
                     (Simulator.observables ooff)
                     (Simulator.observables oon))
              then begin
                Fmt.epr "A1: disambiguation changed observables on %s/%s@."
                  name lname;
                exit 1
              end;
              Fmt.pr "    %-12s | %8d / %5d / %4d | %8d / %5d / %4d@." lname
                ooff.Simulator.cycles boff.Bounds.lower_bound boff.Bounds.gap
                oon.Simulator.cycles bon.Bounds.lower_bound bon.Bounds.gap;
              ( lname,
                Json.Obj
                  [
                    ("off_cycles", Json.Int ooff.Simulator.cycles);
                    ( "off_lower_bound_cycles",
                      Json.Int boff.Bounds.lower_bound );
                    ("off_gap_cycles", Json.Int boff.Bounds.gap);
                    ("on_cycles", Json.Int oon.Simulator.cycles);
                    ("on_lower_bound_cycles", Json.Int bon.Bounds.lower_bound);
                    ("on_gap_cycles", Json.Int bon.Bounds.gap);
                  ] ))
            levels
        in
        Json.Obj
          [ ("program", Json.String name); ("by_level", Json.Obj cells) ])
      (proxy_programs ())
  in
  Fmt.pr "  (observable traces identical off/on in every cell)@.";
  Json.List rows

let bench_webs () =
  hr "A4: register-web splitting (Section 4.2 renaming pre-pass)";
  Fmt.pr "  %-10s | webs off: cyc/moves/renames | webs on: cyc/moves/renames@."
    "program";
  let rows =
    List.map
      (fun (name, (cfg0, input)) ->
        let ((c0, m0, r0) as off) = run_variant cfg0 input Config.speculative in
        let ((c1, m1, r1) as on) =
          run_variant cfg0 input
            { Config.speculative with Config.split_webs = true }
        in
        Fmt.pr "  %-10s | %9d / %3d / %2d       | %9d / %3d / %2d@." name c0 m0
          r0 c1 m1 r1;
        Json.Obj
          [
            ("program", Json.String name);
            ("webs_off", variant_json off);
            ("webs_on", variant_json on);
          ])
      (proxy_programs ())
  in
  Json.List rows

let bench_speculation_degree () =
  hr "A5: speculation degree (Definition 7; paper prototype = 1)";
  Fmt.pr "  %-10s |  degree 1 (moves) |  degree 2 (moves) |  degree 3 (moves)@."
    "program";
  let rows =
    List.map
      (fun (name, (cfg0, input)) ->
        let cells =
          List.map
            (fun d ->
              let c, m, _ =
                run_variant cfg0 input
                  { Config.speculative with Config.max_speculation_degree = d }
              in
              (d, c, m))
            [ 1; 2; 3 ]
        in
        Fmt.pr "  %-10s |%a@." name
          Fmt.(
            list ~sep:(any " |") (fun ppf (_, c, m) -> pf ppf " %8d (%3d)" c m))
          cells;
        Json.Obj
          [
            ("program", Json.String name);
            ( "by_degree",
              Json.Obj
                (List.map
                   (fun (d, c, m) ->
                     ( string_of_int d,
                       Json.Obj
                         [ ("cycles", Json.Int c); ("moves", Json.Int m) ] ))
                   cells) );
          ])
      (proxy_programs ())
  in
  Json.List rows

let bench_profile_guided () =
  hr "A6: profile-guided speculation (threshold on execution probability)";
  Fmt.pr "  %-10s | blind cyc/spec-moves | guided 0.3 | guided 0.7@." "program";
  let rows =
    List.map
      (fun (name, (cfg0, input)) ->
        let profile = Simulator.profile_fn (Simulator.run rs6k cfg0 input) in
        let cell threshold =
          let config =
            if threshold <= 0.0 then Config.speculative
            else
              {
                Config.speculative with
                Config.profile = Some profile;
                min_speculation_probability = threshold;
              }
          in
          let cfg = Cfg.deep_copy cfg0 in
          let stats = Pipeline.run rs6k config cfg in
          let spec_moves =
            List.length
              (List.filter
                 (fun (m : Global_sched.move) -> m.Global_sched.speculative)
                 (Pipeline.moves stats))
          in
          ((Simulator.run rs6k cfg input).Simulator.cycles, spec_moves)
        in
        let b, bm = cell 0.0 in
        let g3, g3m = cell 0.3 in
        let g7, g7m = cell 0.7 in
        Fmt.pr "  %-10s | %10d / %3d     | %6d/%3d | %6d/%3d@." name b bm g3
          g3m g7 g7m;
        let cell_json (c, m) =
          Json.Obj [ ("cycles", Json.Int c); ("spec_moves", Json.Int m) ]
        in
        Json.Obj
          [
            ("program", Json.String name);
            ("blind", cell_json (b, bm));
            ("guided_0_3", cell_json (g3, g3m));
            ("guided_0_7", cell_json (g7, g7m));
          ])
      (proxy_programs ())
  in
  Json.List rows

let stencil_program () =
  (* A store-then-reload kernel: the detailed model's store->load delay
     gives the local scheduler a reason to pull independent work in
     between. *)
  let source =
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
  let compiled = Codegen.compile_string source in
  let input =
    {
      Simulator.no_input with
      Simulator.int_regs = [ (Codegen.var_reg compiled "n", 200) ];
      memory =
        Codegen.array_input compiled
          [ ("a", List.init 200 (fun k -> k * 7 mod 113)) ];
    }
  in
  ("stencil", (compiled.Codegen.cfg, input))

let bench_two_model () =
  hr "A7: two-model design (Section 5.1's detailed local scheduler)";
  Fmt.pr
    "  (cycles simulated on rs6k-detailed, whose store->load delay only \
     the local post-pass may know about)@.";
  Fmt.pr "  %-10s | coarse post-pass | detailed post-pass@." "program";
  let detailed = Machine.rs6k_detailed in
  let rows =
    List.map
      (fun (name, (cfg0, input)) ->
        let run config =
          let cfg = Cfg.deep_copy cfg0 in
          ignore (Pipeline.run rs6k config cfg);
          (Simulator.run detailed cfg input).Simulator.cycles
        in
        let coarse = run Config.speculative in
        let refined =
          run { Config.speculative with Config.local_machine = Some detailed }
        in
        Fmt.pr "  %-10s | %16d | %16d@." name coarse refined;
        Json.Obj
          [
            ("program", Json.String name);
            ("coarse_cycles", Json.Int coarse);
            ("detailed_cycles", Json.Int refined);
          ])
      (proxy_programs () @ [ stencil_program () ])
  in
  Json.List rows

(* A diamond join fed by a slow divide: only duplication can lift the
   join's dependent add into the arms (see test_extensions.ml). *)
let join_div_program () =
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
  let input =
    { Simulator.no_input with Simulator.int_regs = [ (p, 41); (q, 7) ] }
  in
  ("join-div", (cfg, input))

let bench_duplication () =
  hr "A8: scheduling with duplication (Definition 6 / Section 7 future work)";
  Fmt.pr "  %-10s | off: cyc | on: cyc | duplicated motions@." "program";
  let rows =
    List.map
      (fun (name, (cfg0, input)) ->
        let run on =
          let cfg = Cfg.deep_copy cfg0 in
          let stats =
            Pipeline.run rs6k
              { Config.speculative with Config.allow_duplication = on }
              cfg
          in
          let dups =
            List.length
              (List.filter
                 (fun (m : Global_sched.move) ->
                   m.Global_sched.duplicated_into <> [])
                 (Pipeline.moves stats))
          in
          ((Simulator.run rs6k cfg input).Simulator.cycles, dups)
        in
        let off, _ = run false in
        let on, dups = run true in
        Fmt.pr "  %-10s | %8d | %7d | %d@." name off on dups;
        Json.Obj
          [
            ("program", Json.String name);
            ("off_cycles", Json.Int off);
            ("on_cycles", Json.Int on);
            ("duplicated_moves", Json.Int dups);
          ])
      (proxy_programs () @ [ stencil_program (); join_div_program () ])
  in
  Fmt.pr "  (off by default: the paper's prototype forbids duplication)@.";
  Json.List rows

(* ------------------------------------------------------------------ *)
(* R1: register allocation                                             *)
(* ------------------------------------------------------------------ *)

let regalloc_input compiled ~elements ~seed =
  (* Same default input rule as gisc and the batch driver. *)
  let rng = Prng.create ~seed in
  let arrays =
    List.map
      (fun (name, _, len) ->
        (name, List.init (min len elements) (fun _ -> Prng.int rng 1000)))
      compiled.Codegen.arrays
  in
  let n_binding =
    match List.assoc_opt "n" compiled.Codegen.vars with
    | Some reg -> [ (reg, elements) ]
    | None -> []
  in
  {
    Simulator.no_input with
    Simulator.int_regs = n_binding;
    memory = Codegen.array_input compiled arrays;
  }

let bench_regalloc () =
  let module Regalloc = Gis_regalloc.Regalloc in
  hr "R1: register allocation (linear scan + spill code, rs6k cycles)";
  Fmt.pr
    "  (RA off runs on virtual registers; RA on maps to the machine's \
     file and prices any spill code in cycles)@.";
  Fmt.pr "  %-10s | %8s | %14s | %14s | %s@." "program" "RA off"
    "RA on (spills)" "6 regs (spills)" "verified";
  let sources =
    ("minmax", Minmax.source)
    :: List.map
         (fun (p : Spec_proxy.t) -> (p.Spec_proxy.name, p.Spec_proxy.source))
         Spec_proxy.all
  in
  let rows =
    List.map
      (fun (name, src) ->
        Label.reset_fresh_counter ();
        let compiled = Codegen.compile_string src in
        let input = regalloc_input compiled ~elements:64 ~seed:3 in
        let baseline = Cfg.deep_copy compiled.Codegen.cfg in
        ignore (Pipeline.run rs6k Config.base baseline);
        let run ?regs ~regalloc () =
          let cfg = Cfg.deep_copy compiled.Codegen.cfg in
          let config = { Config.speculative with Config.regalloc; regs } in
          let stats = Pipeline.run rs6k config cfg in
          match stats.Pipeline.regalloc with
          | None ->
              ((Simulator.run rs6k cfg input).Simulator.cycles, 0, None)
          | Some alloc ->
              let cycles =
                (Simulator.run ?frame:alloc.Regalloc.frame rs6k cfg
                   (Regalloc.remap_input alloc input))
                  .Simulator.cycles
              in
              let ok =
                match
                  Regalloc.verify ?gprs:regs ?fprs:regs ~machine:rs6k
                    ~baseline ~allocated:cfg alloc input
                with
                | Ok () -> true
                | Error _ -> false
              in
              (cycles, List.length alloc.Regalloc.spilled, Some ok)
        in
        let off, _, _ = run ~regalloc:false () in
        let on, on_spills, on_ok = run ~regalloc:true () in
        let tight, tight_spills, tight_ok = run ~regs:6 ~regalloc:true () in
        let verified =
          on_ok = Some true && tight_ok = Some true
        in
        Fmt.pr "  %-10s | %8d | %8d (%3d) | %8d (%3d) | %s@." name off on
          on_spills tight tight_spills
          (if verified then "yes" else "NO");
        if not verified then begin
          Fmt.epr "R1: allocation verifier failed on %s@." name;
          exit 1
        end;
        Json.Obj
          [
            ("program", Json.String name);
            ("off_cycles", Json.Int off);
            ("on_cycles", Json.Int on);
            ("on_spilled_regs", Json.Int on_spills);
            ("tight_regs", Json.Int 6);
            ("tight_cycles", Json.Int tight);
            ("tight_spilled_regs", Json.Int tight_spills);
            ("verified", Json.Bool verified);
          ])
      sources
  in
  Fmt.pr
    "  (spill counts are registers sent to stack slots; the verifier \
     diffs observables against the symbolic schedule)@.";
  Json.List rows

(* ------------------------------------------------------------------ *)
(* P1: parallel batch compilation                                      *)
(* ------------------------------------------------------------------ *)

let bench_parallel_batch ~deterministic () =
  hr "P1: parallel batch compilation (driver pool, wall-clock)";
  let module D = Gis_driver.Driver in
  (* The four proxies + minmax, plus a generated corpus so the pool has
     enough independent units to keep four domains busy. *)
  let tasks = D.workload_tasks () @ D.corpus_tasks ~seeds:(List.init 11 (fun i -> 100 + i)) in
  let cores = Domain.recommended_domain_count () in
  Fmt.pr "  batch: %d compilation units (workloads + generated corpus)@."
    (List.length tasks);
  Fmt.pr "  host parallelism: %d core%s%s@." cores
    (if cores = 1 then "" else "s")
    (if cores = 1 then
       " — expect no wall-clock speedup (extra domains only add GC \
        rendezvous overhead); determinism is still checked"
     else "");
  let runs =
    List.map
      (fun jobs -> (jobs, D.run ~jobs rs6k Config.speculative tasks))
      [ 1; 2; 4 ]
  in
  let seq = List.assoc 1 runs in
  (* The whole point of the pool: worker count must not change results. *)
  let canon r = Json.to_string (D.report_to_json ~deterministic:true r) in
  List.iter
    (fun (jobs, r) ->
      if r.D.pool.D.failed > 0 then begin
        Fmt.epr "P1: batch failed at jobs=%d@." jobs;
        exit 1
      end;
      if not (String.equal (canon seq) (canon r)) then begin
        Fmt.epr "P1: results at jobs=%d differ from sequential@." jobs;
        exit 1
      end)
    runs;
  Fmt.pr "  results byte-identical across job counts: yes@.";
  Fmt.pr "  %4s | %8s | %7s | %11s@." "jobs" "wall (s)" "speedup" "utilization";
  let rows =
    List.map
      (fun (jobs, r) ->
        let s = D.speedup seq r in
        let u = D.utilization r.D.pool in
        Fmt.pr "  %4d | %8.3f | %6.2fx | %10.0f%%@." jobs
          r.D.pool.D.wall_seconds s (100.0 *. u);
        let zf x = if deterministic then 0.0 else x in
        Json.Obj
          [
            ("jobs", Json.Int jobs);
            ("tasks", Json.Int r.D.pool.D.tasks);
            ("cores", Json.Int (if deterministic then 0 else cores));
            ("wall_seconds", Json.Float (zf r.D.pool.D.wall_seconds));
            ("speedup", Json.Float (zf s));
            ("utilization", Json.Float (zf u));
            ("identical_to_sequential", Json.Bool true);
          ])
      runs
  in
  Json.List rows

(* ------------------------------------------------------------------ *)
(* P2: compiler self-profile                                           *)
(* ------------------------------------------------------------------ *)

(* One profiled pipeline run per workload. The [_bytes] keys join the
   regression gate (looser tolerance + absolute floor, see Regress), so
   an allocation blow-up in one phase fails CI like a cycle regression
   would. Also the source of the [--history] trajectory record. *)
let bench_self_profile ~deterministic () =
  hr "P2: compiler self-profile (allocation per pipeline phase)";
  Fmt.pr
    "  (bytes allocated compiling each workload at the speculative level; \
     identity-checked; seconds scrubbed under --deterministic)@.";
  Fmt.pr "  %-10s | %11s |" "program" "total bytes";
  List.iter (fun p -> Fmt.pr " %8s |" p) Pipeline.phase_names;
  Fmt.pr " cycles@.";
  let t0 = Prof.now_ns () in
  let measured =
    List.map
      (fun (name, (cfg0, input)) ->
        let prof = Prof.create () in
        let config = { Config.speculative with Config.prof = Some prof } in
        let cfg = Cfg.deep_copy cfg0 in
        ignore (Pipeline.run rs6k config cfg);
        let root =
          match Prof.roots prof with
          | [ r ] -> r
          | _ ->
              Fmt.epr "P2: expected exactly one profile tree for %s@." name;
              exit 1
        in
        if not (Prof.identity_ok root) then begin
          Fmt.epr "P2: profile accounting identity violated on %s@." name;
          exit 1
        end;
        let cycles = (Simulator.run rs6k cfg input).Simulator.cycles in
        (name, root, cycles))
      (proxy_programs ())
  in
  let wall_seconds = Prof.seconds_of_ns (Prof.now_ns () - t0) in
  let zf x = if deterministic then 0.0 else x in
  let rows =
    List.map
      (fun (name, (root : Prof.node), cycles) ->
        let phase_bytes p =
          match
            List.find_opt
              (fun (c : Prof.node) -> String.equal c.Prof.name p)
              root.Prof.children
          with
          | Some c -> c.Prof.alloc_bytes
          | None -> 0
        in
        Fmt.pr "  %-10s | %11d |" name root.Prof.alloc_bytes;
        List.iter (fun p -> Fmt.pr " %8d |" (phase_bytes p)) Pipeline.phase_names;
        Fmt.pr " %d@." cycles;
        Json.Obj
          [
            ("program", Json.String name);
            ("alloc_bytes", Json.Int root.Prof.alloc_bytes);
            ("wall_seconds", Json.Float (zf (Prof.seconds_of_ns root.Prof.wall_ns)));
            ( "phases",
              Json.Obj
                (List.map
                   (fun p -> (p ^ "_bytes", Json.Int (phase_bytes p)))
                   Pipeline.phase_names) );
          ])
      measured
  in
  let total_alloc =
    List.fold_left
      (fun acc (_, (r : Prof.node), _) -> acc + r.Prof.alloc_bytes)
      0 measured
  in
  let per_program_cycles = List.map (fun (n, _, c) -> (n, c)) measured in
  let total_cycles = List.fold_left (fun acc (_, c) -> acc + c) 0 per_program_cycles in
  Fmt.pr "  (accounting identity holds on every workload)@.";
  let history =
    {
      History.time = (if deterministic then 0.0 else Unix.gettimeofday ());
      label = "bench";
      total_cycles;
      wall_seconds;
      total_alloc_bytes = total_alloc;
      per_program_cycles;
    }
  in
  (Json.List rows, history)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let parse_args () =
  (* Manual flag parsing: `--json` (default BENCH_gis.json) or
     `--json FILE`, `--deterministic` to zero every wall-clock
     measurement in the JSON so CI artifacts diff stably, and
     `--baseline FILE` to diff the cycle metrics of this run against a
     committed report (`--check` turns any >2% regression or missing
     metric into exit code 1 — the CI gate). Anything else is rejected
     loudly. *)
  let usage rest =
    Fmt.epr
      "usage: %s [--json [FILE]] [--deterministic] [--baseline FILE] \
       [--check] [--history FILE] [--trend] [--trend-cycles-pct P] \
       [--trend-alloc-pct P] [--trend-wall-pct P] (got: %s)@."
      Sys.argv.(0) (String.concat " " rest);
    exit 2
  in
  (* The --trend-*-pct flags override the drift-warning thresholds of
     --trend (cycles 2%, allocation 10%, wall clock 50% by default —
     pinned by test_prof). *)
  let rec go (json, det, base, chk, hist, trend, tols) = function
    | [] -> (json, det, base, chk, hist, trend, tols)
    | "--deterministic" :: rest ->
        go (json, true, base, chk, hist, trend, tols) rest
    | "--check" :: rest -> go (json, det, base, true, hist, trend, tols) rest
    | "--trend" :: rest -> go (json, det, base, chk, hist, true, tols) rest
    | ("--trend-cycles-pct" | "--trend-alloc-pct" | "--trend-wall-pct") as flag
      :: v :: rest -> (
        match float_of_string_opt v with
        | Some p when p >= 0.0 ->
            let cy, al, wa = tols in
            let tols =
              match flag with
              | "--trend-cycles-pct" -> (p /. 100.0, al, wa)
              | "--trend-alloc-pct" -> (cy, p /. 100.0, wa)
              | _ -> (cy, al, p /. 100.0)
            in
            go (json, det, base, chk, hist, trend, tols) rest
        | _ -> usage (flag :: v :: rest))
    | "--baseline" :: file :: rest when String.length file > 0 && file.[0] <> '-'
      ->
        go (json, det, Some file, chk, hist, trend, tols) rest
    | "--history" :: file :: rest when String.length file > 0 && file.[0] <> '-'
      ->
        go (json, det, base, chk, Some file, trend, tols) rest
    | "--json" :: file :: rest when String.length file > 2 && file.[0] <> '-' ->
        go (Some file, det, base, chk, hist, trend, tols) rest
    | "--json" :: rest ->
        go (Some "BENCH_gis.json", det, base, chk, hist, trend, tols) rest
    | rest -> usage rest
  in
  go
    (None, false, None, false, None, false, (0.02, 0.1, 0.5))
    (List.tl (Array.to_list Sys.argv))

let () =
  let ( json_file,
        deterministic,
        baseline_file,
        check,
        history_file,
        trend,
        (cycle_tolerance, alloc_tolerance, wall_tolerance) ) =
    parse_args ()
  in
  Metrics.enable ();
  Fmt.pr "Global Instruction Scheduling for Superscalar Machines@.";
  Fmt.pr "Bernstein & Rodeh, PLDI 1991 — benchmark reproduction@.";
  let e1_e3 = bench_figures_256 () in
  let e5 = bench_figure8 () in
  let e6 = bench_section53 () in
  let a1 = bench_width_sweep () in
  let a2 = bench_heuristics () in
  let a3 = bench_ablation () in
  let a4 = bench_webs () in
  let a5 = bench_speculation_degree () in
  let a6 = bench_profile_guided () in
  let a7 = bench_two_model () in
  let a8 = bench_duplication () in
  let m1 = bench_machine_sweep () in
  let g1 = bench_gap_bounds () in
  let a1d = bench_mem_disambiguation () in
  let r1 = bench_regalloc () in
  (* P2 must run before P1 spawns worker domains: [Gc.allocated_bytes]
     folds a terminated domain's counters into the survivors at an
     unpredictable GC point, which would land ~1MB in whichever phase
     was open when the merge happened and break byte-determinism. *)
  let p2, history_entry = bench_self_profile ~deterministic () in
  let p1 = bench_parallel_batch ~deterministic () in
  let e4 = bench_figure7 ~deterministic () in
  let report =
    Json.Obj
      [
        ( "paper",
          Json.String
            "Global Instruction Scheduling for Superscalar Machines \
             (Bernstein & Rodeh, PLDI 1991)" );
        ("E1_E3_figures_2_5_6", e1_e3);
        ("E4_figure7_compile_time", e4);
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
        ("metrics", Metrics.to_json ~deterministic ());
      ]
  in
  (match json_file with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Json.to_string report);
      output_char oc '\n';
      close_out oc;
      Fmt.pr "@.tables written to %s@." path);
  (* --history: append one trajectory record per run; --trend compares
     the newest record against the mean of the prior window and warns.
     Warnings never gate — the hard gate is --baseline --check below;
     the trajectory catches drift that creeps in under its tolerance. *)
  (match history_file with
  | None ->
      if trend then begin
        Fmt.epr "--trend needs --history FILE@.";
        exit 2
      end
  | Some path ->
      History.append ~path history_entry;
      let entries, skipped = History.load ~path in
      List.iter (fun m -> Fmt.epr "history: skipped %s@." m) skipped;
      Fmt.pr "@.history: appended run %d to %s (total cycles %d, %s \
              allocated)@."
        (List.length entries) path
        history_entry.History.total_cycles
        (Fmt.str "%a" Fmt.byte_size history_entry.History.total_alloc_bytes);
      if trend then begin
        match
          History.trend ~cycle_tolerance ~alloc_tolerance ~wall_tolerance
            entries
        with
        | [] -> Fmt.pr "trend: no upward drift over the trailing window@."
        | drifts ->
            List.iter
              (fun d -> Fmt.pr "trend WARNING: %a@." History.pp_drift d)
              drifts
      end);
  (* --baseline: diff this run's cycle metrics against a committed
     report. Under --check, a regression beyond the 2% tolerance (or a
     metric the baseline had that this run lost) is exit code 1 — the
     CI leg runs exactly this against BENCH_gis.json. *)
  (match baseline_file with
  | None ->
      if check then begin
        Fmt.epr "--check needs --baseline FILE@.";
        exit 2
      end
  | Some path ->
      let text =
        match open_in_bin path with
        | exception Sys_error m ->
            Fmt.epr "cannot read baseline: %s@." m;
            exit 2
        | ic ->
            let n = in_channel_length ic in
            let s = really_input_string ic n in
            close_in ic;
            s
      in
      let baseline =
        match Json.of_string text with
        | Ok j -> j
        | Error m ->
            Fmt.epr "baseline %s is not valid JSON: %s@." path m;
            exit 2
      in
      let outcome = Regress.check ~baseline ~current:report () in
      Fmt.pr "@.baseline %s@.%a" path Regress.pp outcome;
      if check && not (Regress.ok outcome) then begin
        Fmt.pr "@.regression gate: FAIL@.";
        exit 1
      end;
      if check then Fmt.pr "@.regression gate: ok@.");
  Fmt.pr "@.done.@."
