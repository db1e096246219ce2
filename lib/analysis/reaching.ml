open Gis_util
open Gis_ir

type site = Def of int | External

let pp_site ppf = function
  | Def uid -> Fmt.pf ppf "def#%d" uid
  | External -> Fmt.string ppf "external"

let equal_site a b =
  match a, b with
  | Def x, Def y -> x = y
  | External, External -> true
  | Def _, External | External, Def _ -> false

(* Everything is numbered densely per call, so no array is sized by a
   uid or a [Reg.hash]. Instructions are numbered in layout order.
   Registers are numbered by first mention. Each instruction's use and
   def operands are slots in flat arrays: instruction [k]'s uses are
   slots [use_off.(k)] to [use_off.(k + 1) - 1], in [Instr.uses] order,
   and likewise its defs.

   Definition sites, one bit each in the dataflow's bitsets, are
   grouped by register: each register's sites take one contiguous
   range, so a definition's kill is a range and a use's chain is a scan
   of its register's range. Within a range the sites run newest first
   in interning order, where a register's definitions come first, then
   its [External] site. Chains read off a range in order, so they list
   sites in that order. *)
type t = {
  dense : Ints.Int_table.t;  (* uid -> instruction number *)
  reg_num : Ints.Int_table.t;  (* [Reg.hash] -> register number *)
  use_off : int array;
  use_reg : int array;  (* use slot -> register number *)
  use_chain : site list array;  (* use slot -> reaching sites *)
  def_off : int array;
  def_reg : int array;
  def_site : int array;  (* def slot -> site *)
  def_chain : int list array;  (* site -> uids of the uses it reaches *)
}

let compute cfg =
  let nb = Cfg.num_blocks cfg in
  let layout = Cfg.layout cfg in
  (* 1. Count, then number, the instructions, their operand slots and
     the registers; [lo.(id)] and [hi.(id)] bound block [id]'s
     instruction numbers. *)
  let n = ref 0 and nuses = ref 0 and ndefs = ref 0 in
  List.iter (fun id ->
      Block.iter
        (fun i ->
          incr n;
          nuses := !nuses + List.length (Instr.uses i);
          ndefs := !ndefs + List.length (Instr.defs i))
        (Cfg.block cfg id))
    layout;
  let n = !n in
  let dense = Ints.Int_table.create n in
  let reg_num = Ints.Int_table.create n in
  let nregs = ref 0 in
  let number r =
    let h = Reg.hash r in
    let x = Ints.Int_table.find reg_num h in
    if x >= 0 then x
    else begin
      Ints.Int_table.replace reg_num h !nregs;
      incr nregs;
      !nregs - 1
    end
  in
  let uid_of = Array.make n 0 in
  let use_off = Array.make (n + 1) 0 and use_reg = Array.make !nuses 0 in
  let def_off = Array.make (n + 1) 0 and def_reg = Array.make !ndefs 0 in
  let lo = Array.make nb 0 and hi = Array.make nb 0 in
  let k = ref 0 and nu = ref 0 and nd = ref 0 in
  List.iter (fun id ->
      lo.(id) <- !k;
      Block.iter
        (fun i ->
          Ints.Int_table.replace dense (Instr.uid i) !k;
          uid_of.(!k) <- Instr.uid i;
          use_off.(!k) <- !nu;
          def_off.(!k) <- !nd;
          List.iter
            (fun r ->
              use_reg.(!nu) <- number r;
              incr nu)
            (Instr.uses i);
          List.iter
            (fun r ->
              def_reg.(!nd) <- number r;
              incr nd)
            (Instr.defs i);
          incr k)
        (Cfg.block cfg id);
      hi.(id) <- !k)
    layout;
  use_off.(n) <- !nu;
  def_off.(n) <- !nd;
  let nregs = !nregs and ndefs = !ndefs in
  (* 2. Lay out the site ranges: register [r]'s range starts at
     [start.(r)] with its [External] site, then a site per definition. *)
  let start = Array.make (nregs + 1) 0 in
  for j = 0 to ndefs - 1 do
    start.(def_reg.(j) + 1) <- start.(def_reg.(j) + 1) + 1
  done;
  for r = 0 to nregs - 1 do
    start.(r + 1) <- start.(r) + start.(r + 1) + 1
  done;
  let nsites = start.(nregs) in
  (* The site of interning rank [rank] among register [r]'s. *)
  let site_at r rank = start.(r + 1) - 1 - rank in
  let site_val = Array.make nsites External in
  let def_site = Array.make ndefs 0 in
  let rank = Array.make nregs 0 in
  for k = 0 to n - 1 do
    for j = def_off.(k) to def_off.(k + 1) - 1 do
      let r = def_reg.(j) in
      let s = site_at r rank.(r) in
      rank.(r) <- rank.(r) + 1;
      def_site.(j) <- s;
      site_val.(s) <- Def uid_of.(k)
    done
  done;
  (* [define running j]: def slot [j]'s site replaces every other site
     of its register in [running]. *)
  let define running j =
    let r = def_reg.(j) in
    Bitset.remove_range running start.(r) start.(r + 1);
    Bitset.add running def_site.(j)
  in
  (* 3. gen/kill per block. *)
  let fresh _ = Bitset.create nsites in
  let gen = Array.init nb fresh and kill = Array.init nb fresh in
  let in_ = Array.init nb fresh and out = Array.init nb fresh in
  for id = 0 to nb - 1 do
    for j = def_off.(lo.(id)) to def_off.(hi.(id)) - 1 do
      let r = def_reg.(j) in
      define gen.(id) j;
      Bitset.add_range kill.(id) start.(r) start.(r + 1)
    done
  done;
  (* 4. Forward dataflow. *)
  let external_sites = Bitset.create nsites in
  for r = 0 to nregs - 1 do
    Bitset.add external_sites start.(r)
  done;
  let entry = Cfg.entry cfg in
  let inn = Bitset.create nsites in
  let step () =
    let changed = ref false in
    List.iter
      (fun id ->
        Bitset.clear inn;
        if id = entry then Bitset.union_into ~dst:inn external_sites;
        List.iter
          (fun p -> Bitset.union_into ~dst:inn out.(p))
          (Cfg.predecessors cfg id);
        let in_changed = Bitset.assign ~dst:in_.(id) inn in
        let out_changed =
          Bitset.transfer ~dst:out.(id) ~gen:gen.(id) ~kill:kill.(id) inn
        in
        if in_changed || out_changed then changed := true)
      layout;
    !changed
  in
  ignore (Fix.iterate step);
  (* 5. Walk each block once more, by id, to record the chains. A use's
     chain reads its register's range in order; each definition in it
     gets the use prepended, once even when the instruction reads the
     register twice. *)
  let use_chain = Array.make (Array.length use_reg) [] in
  let def_chain = Array.make nsites [] in
  let running = inn in
  for id = 0 to nb - 1 do
    ignore (Bitset.assign ~dst:running in_.(id));
    for k = lo.(id) to hi.(id) - 1 do
      let uid = uid_of.(k) in
      for j = use_off.(k) to use_off.(k + 1) - 1 do
        let r = use_reg.(j) in
        let chain = ref [] in
        for s = start.(r + 1) - 1 downto start.(r) do
          if Bitset.mem running s then begin
            chain := site_val.(s) :: !chain;
            match site_val.(s), def_chain.(s) with
            | External, _ -> ()
            | Def _, u :: _ when u = uid -> ()
            | Def _, uses -> def_chain.(s) <- uid :: uses
          end
        done;
        use_chain.(j) <- !chain
      done;
      for j = def_off.(k) to def_off.(k + 1) - 1 do
        define running j
      done
    done
  done;
  {
    dense;
    reg_num;
    use_off;
    use_reg;
    use_chain;
    def_off;
    def_reg;
    def_site;
    def_chain;
  }

(* The first of instruction [uid]'s operand slots in [off]/[regs] that
   names [reg], or [-1]. *)
let slot t off regs ~uid ~reg =
  let k = Ints.Int_table.find t.dense uid in
  let x = Ints.Int_table.find t.reg_num (Reg.hash reg) in
  if k < 0 || x < 0 then -1
  else
    let rec go j =
      if j >= off.(k + 1) then -1 else if regs.(j) = x then j else go (j + 1)
    in
    go off.(k)

let defs_of_use t ~uid ~reg =
  let j = slot t t.use_off t.use_reg ~uid ~reg in
  if j < 0 then
    invalid_arg
      (Fmt.str "Reaching.defs_of_use: instruction %d has no use of %a" uid
         Reg.pp reg)
  else t.use_chain.(j)

let uses_of_def t ~uid ~reg =
  let j = slot t t.def_off t.def_reg ~uid ~reg in
  if j < 0 then [] else t.def_chain.(t.def_site.(j))

let sole_def_of_all_uses t ~uid ~reg =
  let uses = uses_of_def t ~uid ~reg in
  let sole u =
    match defs_of_use t ~uid:u ~reg with
    | [ Def d ] -> d = uid
    | [] | [ External ] | _ :: _ -> false
  in
  if List.for_all sole uses then Some uses else None

(* ---- demand-driven queries ---- *)

module Query = struct
  (* [stamp] marks the blocks one walk has visited: those holding the
     walk's [epoch]. *)
  type nonrec t = { cfg : Cfg.t; stamp : int array; mutable epoch : int }

  let create cfg = { cfg; stamp = Array.make (Cfg.num_blocks cfg) 0; epoch = 0 }

  (* Starts a walk: the returned [first id] is true only the first time
     the walk asks about [id]. *)
  let new_walk q =
    q.epoch <- q.epoch + 1;
    fun id ->
      q.stamp.(id) <> q.epoch
      &&
      (q.stamp.(id) <- q.epoch;
       true)

  let length b = Vec.length b.Block.body + 1

  let instr_at b k =
    if k < Vec.length b.Block.body then Vec.get b.Block.body k else b.Block.term

  let mentions r regs = List.exists (Reg.equal r) regs

  let position q ~block ~uid =
    let b = Cfg.block q.cfg block in
    if Instr.uid b.Block.term = uid then (b, Vec.length b.Block.body)
    else
      match Block.find_body_index b ~uid with
      | Some k -> (b, k)
      | None ->
          invalid_arg
            (Fmt.str "Reaching.Query: no instruction %d in block %d" uid block)

  (* The last definition of [r] among the first [k] instructions of [b]. *)
  let rec last_def b r k =
    if k <= 0 then None
    else
      let i = instr_at b (k - 1) in
      if mentions r (Instr.defs i) then Some (Instr.uid i)
      else last_def b r (k - 1)

  let defs_of_use q ~block ~uid ~reg =
    let b, k = position q ~block ~uid in
    if not (mentions reg (Instr.uses (instr_at b k))) then
      invalid_arg
        (Fmt.str "Reaching.Query.defs_of_use: instruction %d has no use of %a"
           uid Reg.pp reg);
    match last_def b reg k with
    | Some d -> [ Def d ]
    | None ->
        (* Walk back through the blocks whose entry the use's value
           flows through, to the last definition on each path; the
           entry's top contributes [External]. *)
        let first = new_walk q in
        let sites = ref [] in
        let add s =
          if not (List.exists (equal_site s) !sites) then sites := s :: !sites
        in
        let rec enter x =
          if x = Cfg.entry q.cfg then add External;
          List.iter
            (fun p ->
              let pb = Cfg.block q.cfg p in
              match last_def pb reg (length pb) with
              | Some d -> add (Def d)
              | None -> if first p then enter p)
            (Cfg.predecessors q.cfg x)
        in
        ignore (first block);
        enter block;
        List.rev !sites

  (* The uses a definition reaches, each with its block. *)
  let located_uses q ~block ~uid ~reg =
    let b, k = position q ~block ~uid in
    if not (mentions reg (Instr.defs (instr_at b k))) then
      invalid_arg
        (Fmt.str "Reaching.Query.uses_of_def: instruction %d has no def of %a"
           uid Reg.pp reg);
    let uses = ref [] in
    (* Scan [id] from position [j]; true when the value survives the
       block. *)
    let rec scan id blk j =
      j >= length blk
      ||
      let i = instr_at blk j in
      if mentions reg (Instr.uses i)
         && not (List.exists (fun (u, _) -> u = Instr.uid i) !uses)
      then uses := (Instr.uid i, id) :: !uses;
      (not (mentions reg (Instr.defs i))) && scan id blk (j + 1)
    in
    let first = new_walk q in
    let rec leave x =
      List.iter
        (fun (s, _) -> if first s && scan s (Cfg.block q.cfg s) 0 then leave s)
        (Cfg.successors q.cfg x)
    in
    if scan block b (k + 1) then leave block;
    List.rev !uses

  let uses_of_def q ~block ~uid ~reg =
    List.map fst (located_uses q ~block ~uid ~reg)

  let sole_def_of_all_uses q ~block ~uid ~reg =
    let uses = located_uses q ~block ~uid ~reg in
    let sole (u, ub) =
      match defs_of_use q ~block:ub ~uid:u ~reg with
      | [ Def d ] -> d = uid
      | [] | [ External ] | _ :: _ -> false
    in
    if List.for_all sole uses then Some uses else None
end
