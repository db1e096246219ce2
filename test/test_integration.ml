(* End-to-end reproduction checks: the paper's figures as assertions.
   Bands are deliberately generous — the goal is the *shape* of each
   result (who wins, roughly by how much), not bit-exact cycle counts. *)

open Gis_ir
open Gis_machine
open Gis_core
open Gis_sim
open Gis_frontend
open Gis_workloads

let machine = Machine.rs6k

let fig_config level =
  {
    Config.default with
    Config.level;
    unroll_small_loops = false;
    rotate_small_loops = false;
  }

let elements =
  let rng = Prng.create ~seed:5 in
  List.init 64 (fun _ -> Prng.int rng 1000)

let minmax_cycles level =
  let t = Minmax.build () in
  let cfg = Cfg.deep_copy t.Minmax.cfg in
  ignore (Pipeline.run machine (fig_config level) cfg);
  Validate.check_exn cfg;
  ( Simulator.cycles_per_iteration machine cfg ~header:t.Minmax.loop_header
      (Minmax.input t elements),
    cfg )

(* Figures 2/5/6: per-iteration cycles 20-22 / 12-13 / 11-12. *)
let test_figure_2_5_6_bands () =
  let base, _ = minmax_cycles Config.Local in
  let useful, _ = minmax_cycles Config.Useful in
  let spec, _ = minmax_cycles Config.Speculative in
  Alcotest.(check bool) (Fmt.str "figure 2 band: %.1f" base) true
    (base >= 19.0 && base <= 23.0);
  Alcotest.(check bool) (Fmt.str "figure 5 band: %.1f" useful) true
    (useful >= 11.5 && useful <= 14.5);
  Alcotest.(check bool) (Fmt.str "figure 6 band: %.1f" spec) true
    (spec >= 10.5 && spec <= 13.5);
  Alcotest.(check bool) "speculation saves about one cycle" true
    (useful -. spec >= 0.5 && useful -. spec <= 2.5)

(* Figure 5's published schedule for BL1: L, LU, AI, C(u,v), C(i,n), BF. *)
let test_figure5_bl1_contents () =
  let _, cfg = minmax_cycles Config.Useful in
  let bl1 = Cfg.block_of_label cfg "CL.0" in
  let mnemonics =
    Gis_util.Vec.to_list bl1.Block.body
    |> List.map (fun i ->
           match Instr.kind i with
           | Instr.Load { update = false; _ } -> "L"
           | Instr.Load { update = true; _ } -> "LU"
           | Instr.Binop { op = Instr.Add; _ } -> "AI"
           | Instr.Compare _ -> "C"
           | _ -> "?")
  in
  Alcotest.(check (list string)) "BL1 after useful scheduling"
    [ "L"; "LU"; "AI"; "C"; "C" ] mnemonics

(* Figure 6: BL1 additionally holds both speculative compares, the
   second with a renamed condition register. *)
let test_figure6_bl1_contents () =
  let _, cfg = minmax_cycles Config.Speculative in
  let bl1 = Cfg.block_of_label cfg "CL.0" in
  let compares =
    Gis_util.Vec.to_list bl1.Block.body
    |> List.filter_map (fun i ->
           match Instr.kind i with
           | Instr.Compare { dst; _ } -> Some dst
           | _ -> None)
  in
  (* Four compares: cr7 (u,v), cr4 (i,n), cr6 (u,max), fresh (v,max). *)
  Alcotest.(check int) "four compares in BL1" 4 (List.length compares);
  let ids = List.map (fun (r : Reg.t) -> r.Reg.id) compares in
  Alcotest.(check bool) "one renamed register beyond the paper's set" true
    (List.exists (fun id -> id > 31) ids);
  (* The branch of BL2 now reads cr6 moved into BL1; the branch of CL.4
     reads the renamed register. *)
  let cl4 = Cfg.block_of_label cfg "CL.4" in
  (match Instr.kind cl4.Block.term with
  | Instr.Branch_cond { cr; _ } ->
      Alcotest.(check bool) "CL.4 branch reads the renamed cr" true
        (cr.Reg.id > 31)
  | _ -> Alcotest.fail "CL.4 must end in a conditional branch")

(* Figure 8's shape on the SPEC proxies. *)
let proxy_rti (p : Spec_proxy.t) =
  let compiled = Spec_proxy.compile p in
  let input = p.Spec_proxy.setup compiled in
  let cycles config =
    let cfg = Cfg.deep_copy compiled.Codegen.cfg in
    ignore (Pipeline.run machine config cfg);
    Validate.check_exn cfg;
    let o = Simulator.run machine cfg input in
    (float_of_int o.Simulator.cycles, Simulator.observables o)
  in
  let base, ob = cycles Config.base in
  let useful, ou = cycles Config.useful_only in
  let spec, os = cycles Config.speculative in
  Alcotest.(check string) (p.Spec_proxy.name ^ " useful observables") ob ou;
  Alcotest.(check string) (p.Spec_proxy.name ^ " spec observables") ob os;
  let rti x = 100.0 *. (1.0 -. (x /. base)) in
  (rti useful, rti spec)

let test_figure8_li () =
  (* Paper: useful 2.0%, speculative 6.9% — speculation dominates. *)
  let useful, spec = proxy_rti Spec_proxy.li in
  Alcotest.(check bool) (Fmt.str "li useful %.1f%% > 0" useful) true (useful > 0.5);
  Alcotest.(check bool)
    (Fmt.str "li speculative (%.1f%%) well above useful (%.1f%%)" spec useful)
    true
    (spec -. useful >= 2.0)

let test_figure8_eqntott () =
  (* Paper: useful 7.1%, speculative 7.3% — almost all from useful. *)
  let useful, spec = proxy_rti Spec_proxy.eqntott in
  Alcotest.(check bool) (Fmt.str "eqntott useful %.1f%% sizeable" useful) true
    (useful >= 3.0);
  Alcotest.(check bool)
    (Fmt.str "eqntott speculation adds little (%.1f%% vs %.1f%%)" spec useful)
    true
    (spec -. useful <= 1.5)

let test_figure8_espresso () =
  (* Paper: -0.5% / 0% — no improvement. *)
  let useful, spec = proxy_rti Spec_proxy.espresso in
  Alcotest.(check bool) (Fmt.str "espresso useful flat (%.1f%%)" useful) true
    (Float.abs useful <= 1.5);
  Alcotest.(check bool) (Fmt.str "espresso spec flat (%.1f%%)" spec) true
    (Float.abs spec <= 1.5)

let test_figure8_gcc () =
  (* Paper: -1.5% / 0% — no improvement. *)
  let useful, spec = proxy_rti Spec_proxy.gcc in
  Alcotest.(check bool) (Fmt.str "gcc useful flat (%.1f%%)" useful) true
    (Float.abs useful <= 2.0);
  Alcotest.(check bool) (Fmt.str "gcc spec nearly flat (%.1f%%)" spec) true
    (spec <= 6.0)

(* Cross-validation: the Tiny-C compiled minmax behaves like the
   hand-built Figure 2 program at every scheduling level. *)
let test_tinyc_minmax_pipeline () =
  let compiled = Codegen.compile_string Minmax.source in
  let input =
    {
      Simulator.no_input with
      Simulator.int_regs = [ (Codegen.var_reg compiled "n", List.length elements) ];
      memory = Codegen.array_input compiled [ ("a", elements) ];
    }
  in
  let min_v, max_v = Minmax.reference_min_max elements in
  let expected = [ Fmt.str "print_int(%d)" min_v; Fmt.str "print_int(%d)" max_v ] in
  List.iter
    (fun level ->
      let cfg = Cfg.deep_copy compiled.Codegen.cfg in
      ignore (Pipeline.run machine { Config.default with Config.level } cfg);
      Validate.check_exn cfg;
      let o = Simulator.run machine cfg input in
      Alcotest.(check (list string))
        (Fmt.str "level %a" Config.pp_level level)
        expected o.Simulator.output)
    [ Config.Local; Config.Useful; Config.Speculative ]

(* Compile-time overhead (Figure 7 shape): global scheduling costs more
   than base compilation but stays within a small multiple. *)
let test_figure7_overhead_sane () =
  List.iter
    (fun (p : Spec_proxy.t) ->
      let compiled = Spec_proxy.compile p in
      let time config =
        let prof = Gis_obs.Prof.create () in
        let cfg = Cfg.deep_copy compiled.Codegen.cfg in
        ignore
          (Pipeline.run machine { config with Config.prof = Some prof } cfg);
        match Gis_obs.Prof.roots prof with
        | [ root ] -> Gis_obs.Prof.seconds_of_ns root.Gis_obs.Prof.wall_ns
        | _ -> Alcotest.fail "expected one profile tree per run"
      in
      let base = time Config.base in
      let full = time Config.speculative in
      Alcotest.(check bool)
        (Fmt.str "%s: scheduling time (%.4fs) bounded" p.Spec_proxy.name full)
        true
        (full < Float.max 0.05 (base *. 500.0)))
    Spec_proxy.all

(* Wider machines benefit more (paper Section 6's expectation). *)
let test_wider_machine_payoff () =
  let t = Minmax.build () in
  let per_iter machine level =
    let cfg = Cfg.deep_copy t.Minmax.cfg in
    ignore (Pipeline.run machine (fig_config level) cfg);
    Simulator.cycles_per_iteration machine cfg ~header:t.Minmax.loop_header
      (Minmax.input t elements)
  in
  let wide = Machine.superscalar ~width:2 in
  let narrow_gain = per_iter machine Config.Local -. per_iter machine Config.Speculative in
  let wide_gain = per_iter wide Config.Local -. per_iter wide Config.Speculative in
  Alcotest.(check bool)
    (Fmt.str "2-issue gains (%.1f) at least as much as 1-issue (%.1f)"
       wide_gain narrow_gain)
    true
    (wide_gain >= narrow_gain -. 0.6)

let () =
  Alcotest.run "gis_integration"
    [
      ( "figures 2/5/6",
        [
          Alcotest.test_case "cycle bands" `Quick test_figure_2_5_6_bands;
          Alcotest.test_case "figure 5 BL1" `Quick test_figure5_bl1_contents;
          Alcotest.test_case "figure 6 BL1" `Quick test_figure6_bl1_contents;
        ] );
      ( "figure 8",
        [
          Alcotest.test_case "li" `Quick test_figure8_li;
          Alcotest.test_case "eqntott" `Quick test_figure8_eqntott;
          Alcotest.test_case "espresso" `Quick test_figure8_espresso;
          Alcotest.test_case "gcc" `Quick test_figure8_gcc;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "tiny-c minmax" `Quick test_tinyc_minmax_pipeline;
          Alcotest.test_case "figure 7 overhead" `Quick test_figure7_overhead_sane;
          Alcotest.test_case "wider machines" `Quick test_wider_machine_payoff;
        ] );
    ]
