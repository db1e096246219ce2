open Gis_ir
open Gis_core
open Gis_sim
open Gis_obs

(* `gisc explain`: one [Driver.run_one] of the program with a
   provenance table attached — base and scheduled versions simulated
   and their observables compared — and the cycle difference
   attributed to the motion kinds.

   The accounting identity behind the attribution: the simulator's
   per-block stall gaps telescope to the program's last issue cycle, so
   summing (base gap - scheduled gap) over the union of block labels
   yields exactly base.last_issue - sched.last_issue — the E-A delta of
   the paper's tables. Each block's share is then apportioned across
   the motion kinds statically present in it (largest remainders, so
   integer credits still sum exactly). *)

type t = {
  task : string;
  prov : Provenance.t;
  cfg : Cfg.t;  (** the final scheduled (and possibly allocated) CFG *)
  attribution : Provenance.attribution list;
  base_last_issue : int;
  sched_last_issue : int;
  base_cycles : int;
  sched_cycles : int;
  sched_telemetry : Trace.summary;
  bounds : Gis_bounds.Bounds.t;
      (** lower bounds and gap attribution for the scheduled run *)
  mem_edges_kept : int;
      (** Mem dependence edges the scheduled pipeline's DDGs kept *)
  mem_edges_pruned : int;
      (** Mem edges pruned by memory disambiguation (families plus the
          symbolic address analysis when [config.disambiguate]) *)
}

let delta_total e = e.base_last_issue - e.sched_last_issue

let identity_holds e =
  Provenance.attribution_total e.attribution = delta_total e

let explain ?elements ?seed ?trace machine (config : Config.t)
    (task : Driver.task) =
  let prov = Provenance.create () in
  let config = { config with Config.prov = Some prov } in
  Result.bind
    (Driver.run_one ~simulate:true ?trace ?elements ?seed machine config task)
    (fun { Driver.cfg; stats; sim; _ } ->
      let { Driver.base = ob; sched = os; _ } = Option.get sim in
      match
        let attribution =
          Provenance.attribute prov ~base:ob.Simulator.telemetry
            ~sched:os.Simulator.telemetry
        in
        let bounds =
          Gis_bounds.Bounds.compute ~machine
            ~disambig:config.Config.disambiguate
            ~halted:(os.Simulator.stop = Simulator.Halted)
            cfg os.Simulator.telemetry
        in
        {
          task = task.Driver.name;
          prov;
          cfg;
          attribution;
          base_last_issue = ob.Simulator.telemetry.Trace.last_issue;
          sched_last_issue = os.Simulator.telemetry.Trace.last_issue;
          base_cycles = ob.Simulator.cycles;
          sched_cycles = os.Simulator.cycles;
          sched_telemetry = os.Simulator.telemetry;
          bounds;
          mem_edges_kept = Gis_ddg.Ddg.tally_kept stats.Pipeline.alias;
          mem_edges_pruned = Gis_ddg.Ddg.tally_pruned stats.Pipeline.alias;
        }
      with
      | e -> Ok e
      | exception exn -> Error (Driver.Crashed (Printexc.to_string exn)))

(* ---- rendering ---- *)

let pp_record ppf (r : Provenance.record) =
  Fmt.pf ppf "%a" Provenance.pp_kind r.Provenance.kind;
  (match r.Provenance.moved_from with
  | Some l when not (Label.equal l r.Provenance.origin) ->
      Fmt.pf ppf " from %a (origin %a)" Label.pp l Label.pp r.Provenance.origin
  | Some l -> Fmt.pf ppf " from %a" Label.pp l
  | None ->
      if r.Provenance.kind <> Provenance.Unmoved then
        Fmt.pf ppf " (origin %a)" Label.pp r.Provenance.origin);
  if r.Provenance.copy_index > 0 then
    Fmt.pf ppf ", copy %d" r.Provenance.copy_index;
  if r.Provenance.renamed then Fmt.pf ppf ", renamed";
  match r.Provenance.scores with
  | Some s ->
      Fmt.pf ppf ", scores d=%d cp=%d ord=%d" s.Provenance.d s.Provenance.cp
        s.Provenance.order;
      if s.Provenance.pressure <> 0 then Fmt.pf ppf " press=%d" s.Provenance.pressure
  | None -> ()

let pp ppf e =
  Fmt.pf ppf "== %s: provenance ==@." e.task;
  let reach = Cfg.reachable e.cfg in
  List.iter
    (fun id ->
      if Gis_util.Ints.Int_set.mem id reach then begin
        let b = Cfg.block e.cfg id in
        Fmt.pf ppf "%a:@." Label.pp b.Block.label;
        let line i =
          Fmt.pf ppf "  %4d  %-36s " (Instr.uid i) (Fmt.str "%a" Instr.pp i);
          (match Provenance.find e.prov (Instr.uid i) with
          | Some r -> Fmt.pf ppf "[%a]" pp_record r
          | None -> Fmt.pf ppf "[no provenance]");
          Fmt.pf ppf "@."
        in
        Gis_util.Vec.iter line b.Block.body;
        line b.Block.term
      end)
    (Cfg.layout e.cfg);
  Fmt.pf ppf "@.== %s: motion kinds ==@." e.task;
  List.iter
    (fun (k, c) ->
      if c > 0 then Fmt.pf ppf "  %-14s %5d@." (Provenance.kind_name k) c)
    (Provenance.counts e.prov);
  Fmt.pf ppf "@.== %s: cycle attribution ==@." e.task;
  Fmt.pf ppf
    "  issue span: base %d, scheduled %d, saved %d cycle(s)@."
    e.base_last_issue e.sched_last_issue (delta_total e);
  List.iter
    (fun (a : Provenance.attribution) ->
      if a.Provenance.delta <> 0 then begin
        Fmt.pf ppf "  %-10s %+5d  <-" a.Provenance.ablock a.Provenance.delta;
        List.iter
          (fun (k, c) -> Fmt.pf ppf " %s %+d" (Provenance.kind_name k) c)
          a.Provenance.credits;
        Fmt.pf ppf "@."
      end)
    e.attribution;
  Fmt.pf ppf "  total %+d (identity %s)@."
    (Provenance.attribution_total e.attribution)
    (if identity_holds e then "exact" else "VIOLATED");
  let b = e.bounds in
  Fmt.pf ppf "@.== %s: schedule bounds ==@." e.task;
  Fmt.pf ppf
    "  achieved %d, lower bound %d (critical path %d, resources %d), gap %d@."
    b.Gis_bounds.Bounds.achieved b.Gis_bounds.Bounds.lower_bound
    b.Gis_bounds.Bounds.cp_lb b.Gis_bounds.Bounds.res_lb
    b.Gis_bounds.Bounds.gap;
  List.iter
    (fun (c : Gis_bounds.Bounds.credit) ->
      if c.Gis_bounds.Bounds.cycles > 0 then
        Fmt.pf ppf "  gap from %-14s %5d@." c.Gis_bounds.Bounds.category
          c.Gis_bounds.Bounds.cycles)
    b.Gis_bounds.Bounds.credits;
  Fmt.pf ppf "  bound identity %s@."
    (if Gis_bounds.Bounds.identity_holds b then "exact" else "VIOLATED");
  Fmt.pf ppf "@.== %s: memory disambiguation ==@." e.task;
  Fmt.pf ppf "  Mem edges kept %d, pruned %d@." e.mem_edges_kept
    e.mem_edges_pruned

let to_json e =
  Json.Obj
    [
      ("task", Json.String e.task);
      ("base_last_issue", Json.Int e.base_last_issue);
      ("sched_last_issue", Json.Int e.sched_last_issue);
      ("base_cycles", Json.Int e.base_cycles);
      ("sched_cycles", Json.Int e.sched_cycles);
      ("delta_cycles", Json.Int (delta_total e));
      ("identity_exact", Json.Bool (identity_holds e));
      ("provenance", Provenance.to_json e.prov);
      ("attribution", Provenance.attribution_to_json e.attribution);
      ("bound", Gis_bounds.Bounds.to_json e.bounds);
      ("mem_edges_kept", Json.Int e.mem_edges_kept);
      ("mem_edges_pruned", Json.Int e.mem_edges_pruned);
    ]
