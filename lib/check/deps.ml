open Gis_util
open Gis_ir
open Gis_analysis
open Gis_ddg

type kind = Flow | Anti | Output | Mem

let pp_kind ppf k =
  Fmt.string ppf
    (match k with
    | Flow -> "flow"
    | Anti -> "anti"
    | Output -> "output"
    | Mem -> "mem")

type dep = { d_src : int; d_dst : int; d_kind : kind; d_reg : Reg.t option }

(* A program numbers the instructions of its layout blocks densely, in
   layout order, so a block's instructions are one run of numbers and
   nothing is indexed by uid; [p_dense] is the one lookup from a uid. *)
type program = {
  p_cfg : Cfg.t;
  p_node : int array;  (* block id -> forward-view node, or -1 *)
  p_reach : Bitset.t array;  (* forward-view node -> the nodes it reaches *)
  p_dense : Ints.Int_table.t;  (* uid -> instruction number *)
  p_instr : Instr.t array;  (* instruction number -> instruction *)
  p_block : int array;  (* instruction number -> block id *)
  p_pos : int array;  (* instruction number -> position in its block *)
  p_first : int array;  (* block id -> its first instruction number *)
  p_uids : int array;  (* ascending *)
  p_reaching : Reaching.t Lazy.t;
  p_addr : Addrcheck.t Lazy.t;
  p_disambig : bool;
}

let reaching p = Lazy.force p.p_reaching
let uids p = p.p_uids
let mem p uid = Ints.Int_table.mem p.p_dense uid

(* DFS back edges from the entry; masking them makes the whole-CFG view
   acyclic on the reachable portion (the forward program of Section 4.1,
   applied to the full procedure rather than one region). *)
let back_edges cfg =
  let n = Cfg.num_blocks cfg in
  if n = 0 then []
  else begin
    let color = Array.make n 0 in
    let acc = ref [] in
    let rec go u =
      color.(u) <- 1;
      List.iter
        (fun v ->
          if color.(v) = 1 then acc := (u, v) :: !acc
          else if color.(v) = 0 then go v)
        (Edges.succs cfg u);
      color.(u) <- 2
    in
    go (Cfg.entry cfg);
    !acc
  end

let of_cfg ?(disambig = true) cfg =
  let flow =
    Gis_analysis.Flow.of_cfg ~masked_edges:(back_edges cfg)
      ~entry:(Cfg.entry cfg) cfg
  in
  let nb = Cfg.num_blocks cfg in
  let node = Array.make nb (-1) in
  Ints.Int_map.iter
    (fun b n -> node.(b) <- n)
    (Gis_analysis.Flow.local_of_block flow);
  let instr = Array.of_list (Cfg.all_instrs cfg) in
  let n = Array.length instr in
  let dense = Ints.Int_table.create n in
  let blocks = Array.make n 0 and pos = Array.make n 0 in
  let first = Array.make nb 0 in
  let k = ref 0 in
  Cfg.iter_blocks
    (fun b ->
      first.(b.Block.id) <- !k;
      Block.iter
        (fun i ->
          Ints.Int_table.replace dense (Instr.uid i) !k;
          blocks.(!k) <- b.Block.id;
          pos.(!k) <- !k - first.(b.Block.id);
          incr k)
        b)
    cfg;
  let uids = Array.map Instr.uid instr in
  Array.stable_sort Int.compare uids;
  {
    p_cfg = cfg;
    p_node = node;
    p_reach = Gis_analysis.Flow.reachable_rows flow;
    p_dense = dense;
    p_instr = instr;
    p_block = blocks;
    p_pos = pos;
    p_first = first;
    p_uids = uids;
    p_reaching = lazy (Reaching.compute cfg);
    p_addr = lazy (Addrcheck.compute cfg);
    p_disambig = disambig;
  }

let number p uid = Ints.Int_table.find p.p_dense uid

let instr p uid =
  let k = number p uid in
  if k < 0 then None else Some p.p_instr.(k)

let block_label_of_uid p uid =
  let k = number p uid in
  if k < 0 then None else Some (Cfg.block p.p_cfg p.p_block.(k)).Block.label

let block_reaches p a b =
  a = b
  ||
  let na = p.p_node.(a) and nb = p.p_node.(b) in
  na >= 0 && nb >= 0 && Bitset.mem p.p_reach.(na) nb

(* Do instructions [ks] and [kd] execute in that order on every forward
   path where both execute? *)
let ordered p ks kd =
  let bs = p.p_block.(ks) and bd = p.p_block.(kd) in
  if bs = bd then p.p_pos.(ks) < p.p_pos.(kd)
  else block_reaches p bs bd && not (block_reaches p bd bs)

let inter_regs a b = List.exists (fun r -> List.exists (Reg.equal r) b) a

(* Does a dependence of this kind still connect the two instructions as
   they now read? Renaming during speculative motion may dissolve an
   anti/output/flow dependence; memory dependences always survive. *)
let still_conflicts kind iu iv =
  match kind with
  | Mem -> true
  | Flow -> inter_regs (Instr.defs iu) (Instr.uses iv)
  | Anti -> inter_regs (Instr.uses iu) (Instr.defs iv)
  | Output -> inter_regs (Instr.defs iu) (Instr.defs iv)

type verdict = Held | Violated | Gone

(* The verdict on instructions [ks] and [kd] of [p], either [-1] when
   gone. *)
let verdict_at p ~dissolve ks kd kind =
  if ks < 0 || kd < 0 then Gone
  else if
    ordered p ks kd
    || (dissolve && not (still_conflicts kind p.p_instr.(ks) p.p_instr.(kd)))
  then Held
  else Violated

let verdict p ~dissolve d =
  verdict_at p ~dissolve (number p d.d_src) (number p d.d_dst) d.d_kind

(* Inter-block memory disambiguation, mirroring
   [Ddg.interblock_mem_conflict]: scan-local versions mean nothing
   across blocks, so base values are proved equal through a shared
   single reaching definition. *)
let interblock_mem_conflict ~base_sites ka a kb b =
  match a, b with
  | Alias.Load_ref _, Alias.Load_ref _ -> false
  | Alias.Call_ref, _ | _, Alias.Call_ref -> true
  | ( (Alias.Load_ref x | Alias.Store_ref x),
      (Alias.Load_ref y | Alias.Store_ref y) ) -> (
      if not (Reg.equal x.Alias.base y.Alias.base) then true
      else
        match base_sites ka x, base_sites kb y with
        | [ a ], [ b ] when Reaching.equal_site a b ->
            not (Alias.ranges_disjoint x y)
        | _, _ -> true)

(* Every dependence, in no particular order, each passed to [emit] as
   its source and destination instruction numbers, kind and register,
   with its place in the pairwise scan: [a] and [b] are the view
   positions of the source and destination blocks; between blocks
   ([a <> b]) [pa], [pb] and [rule] are the source position,
   destination position and rule index (a source's defined registers in
   order, flow then output, then its used registers, then memory);
   within a block ([a = b]) [pa] is the scan's sequence number and
   [pb = rule = 0].

   The scan numbers the registers densely, lays every instruction's
   operands out as slots of flat arrays, and indexes each register's
   def and use occurrences as one run of instruction numbers, so it
   allocates per instruction and register, never per dependence. *)
let scan p emit =
  (* The symbolic-address refinement: a conflicting-looking pair stays
     a Mem dependence unless the two accesses live in different memory
     families, or the checker's own address analysis ([Addrcheck],
     deliberately not the scheduler's [Symaddr]) proves a base delta
     that puts their ranges apart. Matches [Ddg.decide_mem] in
     precision — a weaker rule here would demand edges the scheduler
     legitimately pruned and reject legal schedules. *)
  let addr = if p.p_disambig then Some (Lazy.force p.p_addr) else None in
  let refine ua a ub b conservative =
    conservative
    &&
    match a, b with
    | Alias.Call_ref, _ | _, Alias.Call_ref -> true
    | ( (Alias.Load_ref x | Alias.Store_ref x),
        (Alias.Load_ref y | Alias.Store_ref y) ) -> (
        x.Alias.family = y.Alias.family
        &&
        match addr with
        | None -> true
        | Some t -> (
            match Addrcheck.delta t ~a:ua ~b:ub with
            | Some d ->
                not
                  (Alias.ranges_disjoint x
                     { y with Alias.offset = y.Alias.offset + d })
            | None -> true))
  in
  (* Entry-reachable blocks only: unreachable code has no forward order
     (its back edges were never masked, so it may be cyclic) and is the
     linter's business, not the order oracle's. *)
  let cfg = p.p_cfg in
  let entry_node =
    if Cfg.num_blocks cfg = 0 then -1 else p.p_node.(Cfg.entry cfg)
  in
  let view =
    Array.of_list
      (List.filter
         (fun id ->
           let n = p.p_node.(id) in
           entry_node >= 0 && n >= 0 && Bitset.mem p.p_reach.(entry_node) n)
         (Cfg.layout cfg))
  in
  let last b = p.p_first.(b) + Block.instr_count (Cfg.block cfg b) - 1 in
  (* Operand slots: instruction [k]'s defined registers are
     [def_reg.(def_off.(k))] to [def_reg.(def_off.(k + 1) - 1)], in
     [Instr.defs] order, and likewise its uses. *)
  let n = Array.length p.p_instr in
  let nuses = ref 0 and ndefs = ref 0 in
  Array.iter
    (fun b ->
      for k = p.p_first.(b) to last b do
        let i = p.p_instr.(k) in
        nuses := !nuses + List.length (Instr.uses i);
        ndefs := !ndefs + List.length (Instr.defs i)
      done)
    view;
  let reg_num = Ints.Int_table.create n in
  let regs = Vec.create () in
  let number r =
    let h = Reg.hash r in
    let x = Ints.Int_table.find reg_num h in
    if x >= 0 then x
    else begin
      let x = Vec.length regs in
      Ints.Int_table.replace reg_num h x;
      Vec.push regs r;
      x
    end
  in
  let def_off = Array.make (n + 1) 0 and use_off = Array.make (n + 1) 0 in
  let def_reg = Array.make !ndefs 0 and use_reg = Array.make !nuses 0 in
  let nd = ref 0 and nu = ref 0 in
  let view_of = Array.make n (-1) in
  let mem = Array.make n None in
  Array.iteri
    (fun v b ->
      for k = p.p_first.(b) to last b do
        let i = p.p_instr.(k) in
        view_of.(k) <- v;
        def_off.(k) <- !nd;
        List.iter
          (fun r ->
            def_reg.(!nd) <- number r;
            incr nd)
          (Instr.defs i);
        use_off.(k) <- !nu;
        List.iter
          (fun r ->
            use_reg.(!nu) <- number r;
            incr nu)
          (Instr.uses i);
        def_off.(k + 1) <- !nd;
        use_off.(k + 1) <- !nu
      done)
    view;
  let nregs = Vec.length regs in
  let reg_opt = Array.init nregs (fun x -> Some (Vec.get regs x)) in
  (* Memory accesses carry the scan-local base version, exactly as in
     [Ddg.build]'s node table: the uid of the block's last definition of
     the base so far, [-1] before any. [stamp] marks the registers
     defined in the current block. *)
  let stamp = Array.make nregs (-1) and version = Array.make nregs (-1) in
  Array.iteri
    (fun v b ->
      let version_of r =
        let x = number r in
        if stamp.(x) = v then version.(x) else -1
      in
      for k = p.p_first.(b) to last b do
        mem.(k) <- Alias.access_of_instr ~version_of p.p_instr.(k);
        for j = def_off.(k) to def_off.(k + 1) - 1 do
          stamp.(def_reg.(j)) <- v;
          version.(def_reg.(j)) <- Instr.uid p.p_instr.(k)
        done
      done)
    view;
  let uid k = Instr.uid p.p_instr.(k) in
  (* Definitions reaching a load's or store's base register, asked for
     on first need. *)
  let base_memo = Array.make n None in
  let base_sites k (x : Alias.ref_info) =
    match base_memo.(k) with
    | Some sites -> sites
    | None ->
        let sites =
          Reaching.defs_of_use (Lazy.force p.p_reaching) ~uid:(uid k)
            ~reg:x.Alias.base
        in
        base_memo.(k) <- Some sites;
        sites
  in
  (* The inter-block index: each register's def and use occurrences
     (one per instruction and register), each a run of [defs_at] /
     [uses_at] from [defs_from.(x)] to [defs_from.(x + 1) - 1]; and the
     memory accesses, all of them and the non-loads. *)
  let occurrences off regs_of =
    let from = Array.make (nregs + 1) 0 in
    let distinct k j =
      let rec go j' = j' >= j || (regs_of.(j') <> regs_of.(j) && go (j' + 1)) in
      go off.(k)
    in
    let each f =
      Array.iter
        (fun b ->
          for k = p.p_first.(b) to last b do
            for j = off.(k) to off.(k + 1) - 1 do
              if distinct k j then f k regs_of.(j)
            done
          done)
        view
    in
    each (fun _ x -> from.(x + 1) <- from.(x + 1) + 1);
    for x = 1 to nregs do
      from.(x) <- from.(x) + from.(x - 1)
    done;
    let at = Array.make from.(nregs) 0 and fill = Array.sub from 0 nregs in
    each (fun k x ->
        at.(fill.(x)) <- k;
        fill.(x) <- fill.(x) + 1);
    (from, at)
  in
  let defs_from, defs_at = occurrences def_off def_reg in
  let uses_from, uses_at = occurrences use_off use_reg in
  let mem_all = Vec.create () and mem_nonload = Vec.create () in
  Array.iter
    (fun b ->
      for k = p.p_first.(b) to last b do
        match mem.(k) with
        | Some (Alias.Load_ref _) -> Vec.push mem_all k
        | Some (Alias.Store_ref _ | Alias.Call_ref) ->
            Vec.push mem_all k;
            Vec.push mem_nonload k
        | None -> ()
      done)
    view;
  (* Inter-block edges: each source instruction is joined with the
     index entries of its registers and memory family, keeping those
     whose block its own block strictly reaches. *)
  Array.iteri
    (fun a b ->
      let reach = p.p_reach.(p.p_node.(b)) in
      let joins kb = view_of.(kb) <> a && Bitset.mem reach p.p_node.(p.p_block.(kb)) in
      for ka = p.p_first.(b) to last b do
        let pa = p.p_pos.(ka) in
        let join from at x rule kind =
          for o = from.(x) to from.(x + 1) - 1 do
            let kb = at.(o) in
            if joins kb then
              emit a view_of.(kb) pa p.p_pos.(kb) rule ka kb kind reg_opt.(x)
          done
        in
        let nd = def_off.(ka + 1) - def_off.(ka) in
        for k = 0 to nd - 1 do
          let x = def_reg.(def_off.(ka) + k) in
          join uses_from uses_at x (2 * k) Flow;
          join defs_from defs_at x ((2 * k) + 1) Output
        done;
        for j = 0 to use_off.(ka + 1) - use_off.(ka) - 1 do
          join defs_from defs_at use_reg.(use_off.(ka) + j) ((2 * nd) + j) Anti
        done;
        match mem.(ka) with
        | None -> ()
        | Some x ->
            let rule = (2 * nd) + use_off.(ka + 1) - use_off.(ka) in
            Vec.iter
              (fun kb ->
                match mem.(kb) with
                | Some y
                  when joins kb
                       && refine (uid ka) x (uid kb) y
                            (interblock_mem_conflict ~base_sites ka x kb y) ->
                    emit a view_of.(kb) pa p.p_pos.(kb) rule ka kb Mem None
                | Some _ | None -> ())
              (match x with
              | Alias.Load_ref _ -> mem_nonload
              | Alias.Store_ref _ | Alias.Call_ref -> mem_all)
      done)
    view;
  (* Intra-block edges: a kill-sensitive scan of each block, mirroring
     [Ddg.intra_block_scan]: flow from the last definition, output over
     the last definition, anti from uses since the last definition,
     memory pairwise with scan-local base versions. [stamp] now marks
     the registers the current block has defined or used. *)
  Array.fill stamp 0 nregs (-1);
  let last_def = Array.make nregs (-1) and uses_since = Array.make nregs [] in
  Array.iteri
    (fun a b ->
      let seq = ref 0 and mem_before = ref [] in
      let add src dst kind reg =
        if src <> dst then begin
          emit a a !seq 0 0 src dst kind reg;
          incr seq
        end
      in
      let touch x =
        if stamp.(x) <> a then begin
          stamp.(x) <- a;
          last_def.(x) <- -1;
          uses_since.(x) <- []
        end
      in
      for u = p.p_first.(b) to last b do
        for j = use_off.(u) to use_off.(u + 1) - 1 do
          let x = use_reg.(j) in
          touch x;
          if last_def.(x) >= 0 then add last_def.(x) u Flow reg_opt.(x)
        done;
        for j = def_off.(u) to def_off.(u + 1) - 1 do
          let x = def_reg.(j) in
          touch x;
          if last_def.(x) >= 0 then add last_def.(x) u Output reg_opt.(x);
          List.iter (fun y -> add y u Anti reg_opt.(x)) uses_since.(x)
        done;
        (match mem.(u) with
        | Some am ->
            List.iter
              (fun m ->
                match mem.(m) with
                | Some pm when refine (uid m) pm (uid u) am (Alias.conflict pm am)
                  ->
                    add m u Mem None
                | Some _ | None -> ())
              !mem_before;
            mem_before := u :: !mem_before
        | None -> ());
        for j = def_off.(u) to def_off.(u + 1) - 1 do
          let x = def_reg.(j) in
          last_def.(x) <- u;
          uses_since.(x) <- []
        done;
        for j = use_off.(u) to use_off.(u + 1) - 1 do
          let x = use_reg.(j) in
          uses_since.(x) <- u :: uses_since.(x)
        done
      done)
    view

let dep p src dst kind reg =
  { d_src = Instr.uid p.p_instr.(src); d_dst = Instr.uid p.p_instr.(dst);
    d_kind = kind; d_reg = reg }

let check p ~post ~dissolve =
  let to_post = Array.map (fun i -> number post (Instr.uid i)) p.p_instr in
  let checked = ref 0 and violated = ref false in
  scan p (fun _ _ _ _ _ src dst kind _ ->
      match verdict_at post ~dissolve to_post.(src) to_post.(dst) kind with
      | Held -> incr checked
      | Violated ->
          incr checked;
          violated := true
      | Gone -> ());
  (!checked, !violated)

(* The reverse of the pairwise scan: inter-block edges by descending
   (source block, destination block, source position, destination
   position, rule), then intra-block edges by descending (block,
   sequence number). *)
let reconstruct p =
  let acc = ref [] in
  scan p (fun a b pa pb rule src dst kind reg ->
      acc := ((a <> b, a, b, pa, pb, rule), dep p src dst kind reg) :: !acc);
  List.map snd (List.sort (fun (k1, _) (k2, _) -> compare k2 k1) !acc)
