(* Helpers shared across the differential test suites (props, driver,
   asm, fuzz). One definition of the reference machine, the observable
   projection, the random-program baselines and the standard workload
   corpus — previously duplicated per file. *)

open Gis_machine
open Gis_sim
open Gis_frontend
open Gis_workloads

let machine = Machine.rs6k

let observe cfg input = Simulator.observables (Simulator.run machine cfg input)

(* Random-program baseline: the compiled program plus its standard
   input, both functions of the seed alone. *)
let baseline_compiled seed =
  let compiled = Random_prog.generate_compiled ~seed in
  let input = Random_prog.random_input ~seed compiled in
  (compiled, input)

let baseline_and_input seed =
  let compiled, input = baseline_compiled seed in
  (compiled.Codegen.cfg, input)

let minmax_elements =
  let rng = Prng.create ~seed:5 in
  List.init 64 (fun _ -> Prng.int rng 1000)

(* The paper's workloads, each with its standard simulator input. *)
let standard_programs () =
  ("minmax",
   (let t = Minmax.build () in
    (t.Minmax.cfg, Minmax.input t minmax_elements)))
  :: List.map
       (fun (p : Spec_proxy.t) ->
         let compiled = Spec_proxy.compile p in
         (p.Spec_proxy.name, (compiled.Codegen.cfg, p.Spec_proxy.setup compiled)))
       Spec_proxy.all

(* A random program of the given grammar, compiled with the label
   counter reset so a seed denotes one exact CFG. *)
let pinned_compiled params ~seed =
  Random_prog.generate_compiled_via
    ~compile:(fun prog ->
      Gis_ir.Label.reset_fresh_counter ();
      match Codegen.compile prog with
      | c -> Ok c
      | exception Codegen.Error m -> Error m)
    params ~seed

let pinned_cfg params ~seed = (pinned_compiled params ~seed).Codegen.cfg

(* Thirty seed-pinned hardened random programs. *)
let pinned_programs =
  lazy (List.init 30 (fun k -> pinned_cfg Random_prog.hardened ~seed:(500 + k)))

(* A liveness row as a register set: [live_set Liveness.iter_live_in l id]. *)
let live_set iter live id =
  let s = ref Gis_ir.Reg.Set.empty in
  iter live id (fun r -> s := Gis_ir.Reg.Set.add r !s);
  !s

(* The references' own edge decoder: each terminator's labels resolved
   by name, never the CFG's edge cache, so a reference does not share
   the edges of the code it checks. [succs] lists fallthrough first;
   [preds] lists each block's predecessors by ascending id, once per
   edge. *)
let succs cfg id =
  List.map
    (fun l -> (Gis_ir.Cfg.block_of_label cfg l).Gis_ir.Block.id)
    (Gis_ir.Block.successor_labels (Gis_ir.Cfg.block cfg id))

let preds cfg =
  let n = Gis_ir.Cfg.num_blocks cfg in
  let preds = Array.make n [] in
  for id = n - 1 downto 0 do
    List.iter (fun s -> preds.(s) <- id :: preds.(s)) (succs cfg id)
  done;
  preds

(* The layout block holding the instruction with this uid, by a linear
   scan. *)
let owner_of_uid cfg uid =
  Gis_ir.Cfg.fold_blocks
    (fun found b ->
      if found = None && Gis_ir.Block.mem_uid b uid then Some b.Gis_ir.Block.id
      else found)
    None cfg
