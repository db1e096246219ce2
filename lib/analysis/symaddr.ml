open Gis_util
open Gis_ir

(* An origin is one definition instance: instruction [o_uid] defining
   register [o_reg] ([Reg.hash] is injective, so the hash is the
   register), or the register's value at procedure entry ([o_uid] =
   -1). A call that defines several registers yields one origin per
   register — collapsing them would claim two distinct results equal. *)
type origin = { o_uid : int; o_reg : int }

let equal_origin a b = a.o_uid = b.o_uid && a.o_reg = b.o_reg

let pp_origin ppf o =
  if o.o_uid < 0 then Fmt.pf ppf "entry(r%d)" o.o_reg
  else Fmt.pf ppf "def#%d(r%d)" o.o_uid o.o_reg

type value =
  | Const of int
  | Sym of { origin : origin; offset : int }
  | Top

let pp_value ppf = function
  | Const k -> Fmt.pf ppf "const %d" k
  | Sym { origin; offset } -> Fmt.pf ppf "%a%+d" pp_origin origin offset
  | Top -> Fmt.string ppf "top"

let equal_value a b =
  a == b
  ||
  match a, b with
  | Const x, Const y -> x = y
  | Sym x, Sym y -> equal_origin x.origin y.origin && x.offset = y.offset
  | Top, Top -> true
  | (Const _ | Sym _ | Top), _ -> false

(* Affine shift; [None] when the input is [Top] (the caller then starts
   a fresh origin, which is always a sound description of a def). *)
let shift v k =
  match v with
  | Const c -> Some (Const (c + k))
  | Sym { origin; offset } -> Some (Sym { origin; offset = offset + k })
  | Top -> None

(* One instruction as the sweep runs it, its registers looked up once:
   each is its slice position, or [-1] outside the slice. Instructions
   that define no slice register and access no memory are left out, as
   are reads that feed only such definitions. *)
type op =
  | Set_const of { dst : int; value : int }  (** [Load_imm] *)
  | Copy of { uid : int; dst : int; src : int }  (** [Move] *)
  | Shift of { uid : int; dst : int; src : int; k : int }
      (** add or subtract an immediate *)
  | Add of { uid : int; dst : int; lhs : int; rhs : int }
  | Sub of { uid : int; dst : int; lhs : int; rhs : int }
  | Access of {
      uid : int;
      access : int;
      base : int;
      offset : int;
      update : bool;
      dst : int;
    }
      (** a load defining [dst] ([-1] for a store or a register
          outside the slice), or a store; [access] numbers it among
          the graph's accesses *)
  | Opaque of { uid : int; dsts : int list }
      (** every other definition of slice registers *)

(* The op of [i], or [None] when it has no effect on the slice;
   [position] maps a register to its slice position or [-1], and
   [access uid] numbers a load or store. *)
let decode ~position ~access i =
  let uid = Instr.uid i in
  let opaque dsts =
    match List.filter (fun p -> p >= 0) (List.map position dsts) with
    | [] -> None
    | dsts -> Some (Opaque { uid; dsts })
  in
  let defining dst f =
    let d = position dst in
    if d < 0 then None else Some (f d)
  in
  match Instr.kind i with
  | Instr.Load_imm { dst; value } -> defining dst (fun dst -> Set_const { dst; value })
  | Instr.Move { dst; src } ->
      defining dst (fun dst -> Copy { uid; dst; src = position src })
  | Instr.Binop { op = (Instr.Add | Instr.Sub) as op; dst; lhs; rhs } ->
      defining dst (fun dst ->
          let lhs = position lhs in
          match op, rhs with
          | Instr.Add, Instr.Imm k -> Shift { uid; dst; src = lhs; k }
          | _, Instr.Imm k -> Shift { uid; dst; src = lhs; k = -k }
          | Instr.Add, Instr.Reg r -> Add { uid; dst; lhs; rhs = position r }
          | _, Instr.Reg r -> Sub { uid; dst; lhs; rhs = position r })
  | Instr.Load { dst; base; offset; update } ->
      Some
        (Access
           { uid; access = access uid; base = position base; offset; update;
             dst = position dst })
  | Instr.Store { base; offset; update; _ } ->
      Some
        (Access
           { uid; access = access uid; base = position base; offset; update;
             dst = -1 })
  | Instr.Binop _ | Instr.Compare _ | Instr.Fcompare _ | Instr.Fbinop _
  | Instr.Call _ ->
      opaque (Instr.defs i)
  | Instr.Branch_cond _ | Instr.Jump _ | Instr.Halt -> None

(* Transfer of one op over an environment read through [lookup] and
   written through [set], both by slice position; [lookup] reads [-1]
   as [Top] and [set] drops it. [fresh uid p] opens the origin of
   [uid]'s definition of position [p]'s register. [record] is called
   with a load/store's access number and its base value before the [update]
   post-increment — the simulator computes the effective address from
   the old base, then writes the destination, then updates the base (so
   on [LU rT,rT] the update wins, mirrored by the [set] order below). *)
let transfer ~lookup ~set ~fresh ~record op =
  let result uid dst = function
    | Some v -> set dst v
    | None -> set dst (fresh uid dst)
  in
  match op with
  | Set_const { dst; value } -> set dst (Const value)
  | Copy { uid; dst; src } -> (
      match lookup src with Top -> set dst (fresh uid dst) | v -> set dst v)
  | Shift { uid; dst; src; k } -> result uid dst (shift (lookup src) k)
  | Add { uid; dst; lhs; rhs } ->
      result uid dst
        (match lookup lhs, lookup rhs with
        | Const a, Const b -> Some (Const (a + b))
        | vl, Const k -> shift vl k
        | Const k, vr -> shift vr k
        | (Sym _ | Top), (Sym _ | Top) -> None)
  | Sub { uid; dst; lhs; rhs } ->
      result uid dst
        (match lookup lhs, lookup rhs with
        | Const a, Const b -> Some (Const (a - b))
        | vl, Const k -> shift vl (-k)
        | (Const _ | Sym _ | Top), (Sym _ | Top) -> None)
  | Access { uid; access; base; offset; update; dst } ->
      let bv = lookup base in
      record access bv;
      if dst >= 0 then set dst (fresh uid dst);
      if update then result uid base (shift bv offset)
  | Opaque { uid; dsts } -> List.iter (fun p -> set p (fresh uid p)) dsts

(* [footprint ~read ~def op] calls [read p] for each position the
   transfer of [op] looks up and [def p] for each it sets, in the
   transfer's order, [-1] included. Neither depends on the values. *)
let footprint ~read ~def = function
  | Set_const { dst; _ } -> def dst
  | Copy { dst; src; _ } | Shift { dst; src; _ } ->
      read src;
      def dst
  | Add { dst; lhs; rhs; _ } | Sub { dst; lhs; rhs; _ } ->
      read lhs;
      read rhs;
      def dst
  | Access { base; update; dst; _ } ->
      read base;
      def dst;
      if update then def base
  | Opaque { dsts; _ } -> List.iter def dsts

(* Each access's base value: [values.(Int_table.find index uid)]. *)
type t = { index : Ints.Int_table.t; values : value array }

(* The backward affine slice: the registers whose values can reach a
   load or store base. It starts from every base register and closes
   over the operands the affine transfer reads when it defines a slice
   register — a [Move]'s source and an [Add]/[Sub]'s operands. Every
   other definition is opaque, so no other register can influence a
   base value, and tracking the slice alone reproduces every base value
   the whole-register analysis computes.

   Registers are numbered densely by first mention through an
   [Int_table] keyed by [Reg.hash], so no array is sized by a register
   id. A first pass numbers them and sizes the arrays, a second lists
   each defined register's sources as a chain through [head]/[next]/[src]
   (indexed by number and by edge) and pushes every base on a work
   stack, and the closure pops numbers off that stack. A register's
   sources are pushed only when it is first marked, so the stack never
   holds more than the bases and the edges. The result maps each slice
   register's [Reg.hash] to its position, positions in increasing
   [Reg.hash] order, lists the keys by position, and counts the loads
   and stores. *)
let slice cfg =
  (* [scan ~edge ~base] calls [edge dst src] for every affine source and
     [base r] for every load or store base. *)
  let scan ~edge ~base =
    let visit i =
      match Instr.kind i with
      | Instr.Move { dst; src } -> edge dst src
      | Instr.Binop { op = Instr.Add | Instr.Sub; dst; lhs; rhs } -> (
          edge dst lhs;
          match rhs with Instr.Reg r -> edge dst r | Instr.Imm _ -> ())
      | Instr.Load { base = b; _ } | Instr.Store { base = b; _ } -> base b
      | Instr.Load_imm _ | Instr.Binop _ | Instr.Compare _ | Instr.Fcompare _
      | Instr.Fbinop _ | Instr.Call _ | Instr.Branch_cond _ | Instr.Jump _
      | Instr.Halt ->
          ()
    in
    Cfg.iter_blocks (Block.iter visit) cfg
  in
  let num = Ints.Int_table.create (Cfg.instr_count cfg) and hashes = Vec.create () in
  let edges = ref 0 and bases = ref 0 in
  let see r =
    let h = Reg.hash r in
    if not (Ints.Int_table.mem num h) then begin
      Ints.Int_table.replace num h (Vec.length hashes);
      Vec.push hashes h
    end
  in
  scan
    ~edge:(fun dst s ->
      see dst;
      see s;
      incr edges)
    ~base:(fun b ->
      see b;
      incr bases);
  let number r = Ints.Int_table.find num (Reg.hash r) in
  let nregs = Vec.length hashes in
  let head = Array.make nregs (-1) in
  let next = Array.make !edges 0 and src = Array.make !edges 0 in
  let stack = Array.make (!edges + !bases) 0 in
  let e = ref 0 and sp = ref 0 in
  let push x =
    stack.(!sp) <- x;
    incr sp
  in
  scan
    ~edge:(fun dst s ->
      let d = number dst in
      src.(!e) <- number s;
      next.(!e) <- head.(d);
      head.(d) <- !e;
      incr e)
    ~base:(fun b -> push (number b));
  let marked = Bytes.make nregs '\000' and size = ref 0 in
  while !sp > 0 do
    decr sp;
    let x = stack.(!sp) in
    if Bytes.get marked x = '\000' then begin
      Bytes.set marked x '\001';
      incr size;
      let e = ref head.(x) in
      while !e >= 0 do
        push src.(!e);
        e := next.(!e)
      done
    end
  done;
  let keys = Array.make !size 0 and j = ref 0 in
  Bytes.iteri
    (fun x m ->
      if m <> '\000' then begin
        keys.(!j) <- Vec.get hashes x;
        incr j
      end)
    marked;
  Array.sort Int.compare keys;
  let pos = Ints.Int_table.create !size in
  Array.iteri (fun p k -> Ints.Int_table.replace pos k p) keys;
  (pos, keys, !bases)

let no_record _ _ = ()

(* Liveness of slice positions in compressed rows: block [b]'s live
   positions are [pos.(start.(b)) .. pos.(start.(b + 1) - 1)], in
   ascending order, so no array is sized blocks × slice.

   A block's exposed reads (the positions it reads before defining
   them) and its definitions come from {!footprint}, exactly as the
   transfer reads and writes. Each position is then searched backwards
   from the blocks that read it exposed, through predecessors, stopping
   at blocks that define it: the blocks reached are where it is live
   in, their predecessors where it is live out. Positions are searched
   in ascending order, so rows come out sorted; each search costs the
   position's live range, and the whole pass the live cells plus the
   ops. *)
type rows = { start : int array; pos : int array }

(* Rows by block of the packed entries [v], each [b * m + p] and pushed
   by ascending [p]: a stable counting sort by [b]. *)
let rows ~n ~m v =
  let start = Array.make (n + 1) 0 in
  Vec.iter (fun x -> start.((x / m) + 1) <- start.((x / m) + 1) + 1) v;
  for b = 1 to n do
    start.(b) <- start.(b) + start.(b - 1)
  done;
  let next = Array.sub start 0 n and pos = Array.make (Vec.length v) 0 in
  Vec.iter
    (fun x ->
      let b = x / m in
      pos.(next.(b)) <- x mod m;
      next.(b) <- next.(b) + 1)
    v;
  { start; pos }

(* The live-in and live-out rows of blocks with ops [ops] over [m]
   positions. *)
let liveness cfg ops m =
  let n = Array.length ops in
  let reads_at = Array.make m [] and defs_at = Array.make m [] in
  let read_in = Array.make m (-1) and def_in = Array.make m (-1) in
  let b = ref 0 in
  let read p =
    if p >= 0 && def_in.(p) <> !b && read_in.(p) <> !b then begin
      read_in.(p) <- !b;
      reads_at.(p) <- !b :: reads_at.(p)
    end
  and def p =
    if p >= 0 && def_in.(p) <> !b then begin
      def_in.(p) <- !b;
      defs_at.(p) <- !b :: defs_at.(p)
    end
  in
  let visit = footprint ~read ~def in
  for id = 0 to n - 1 do
    b := id;
    Array.iter visit ops.(id)
  done;
  let ins = Vec.create () and outs = Vec.create () in
  let in_mark = Array.make n (-1) and out_mark = Array.make n (-1) in
  let kill = Array.make n (-1) and stack = Array.make n 0 and sp = ref 0 in
  let live_in p b =
    in_mark.(b) <- p;
    Vec.push ins ((b * m) + p);
    stack.(!sp) <- b;
    incr sp
  in
  for p = 0 to m - 1 do
    List.iter (fun b -> kill.(b) <- p) defs_at.(p);
    List.iter (live_in p) reads_at.(p);
    while !sp > 0 do
      decr sp;
      List.iter
        (fun q ->
          if out_mark.(q) <> p then begin
            out_mark.(q) <- p;
            Vec.push outs ((q * m) + p)
          end;
          if in_mark.(q) <> p && kill.(q) <> p then live_in p q)
        (Cfg.predecessors cfg stack.(!sp))
    done
  done;
  (rows ~n ~m ins, rows ~n ~m outs)

(* The slot of position [p] in block [b]'s row, or [-1]: rows are
   short and sorted, so a binary search. *)
let slot r b p =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let x = r.pos.(mid) in
      if x = p then mid else if x < p then go (mid + 1) hi else go lo mid
  in
  go r.start.(b) r.start.(b + 1)

let compute cfg =
  let n = Cfg.num_blocks cfg in
  (* Dense positions: slice register key [keys.(p)] is position [p]. *)
  let pos, keys, accesses = slice cfg in
  let m = Array.length keys in
  let position r = Ints.Int_table.find pos (Reg.hash r) in
  let index = Ints.Int_table.create accesses and naccess = ref 0 in
  let access uid =
    let a = !naccess in
    Ints.Int_table.replace index uid a;
    naccess := a + 1;
    a
  in
  let ops = Array.make n [||] in
  List.iter
    (fun id ->
      ops.(id) <-
        Array.of_list
          (List.filter_map (decode ~position ~access)
             (Block.instrs (Cfg.block cfg id))))
    (Cfg.layout cfg);
  let values = Array.make !naccess Top in
  let fresh uid p = Sym { origin = { o_uid = uid; o_reg = keys.(p) }; offset = 0 } in
  (* Environments hold only live positions. Block [b]'s entry is
     [in_val] over its live-in row and its exit [out_val] over its
     live-out row, which covers every position live into a successor.
     A dead position is overwritten before any read on every path, so
     no live value, no recorded base value and no change that matters
     can depend on it: the live positions take, sweep by sweep, the
     values the sweeps over every position give them, and stop changing
     when those do. *)
  let live_in, live_out = liveness cfg ops m in
  let in_val = Array.make (Array.length live_in.pos) Top in
  let out_val = Array.make (Array.length live_out.pos) Top in
  (* [run ~record b] transfers block [b]'s ops from its entry, scattered
     into the scratch [cur] by position: every position the block reads
     before defining it is live in, so every lookup sees either the
     entry or the block's own definition, and afterwards [cur] holds
     the exit at every live-out position. *)
  let cur = Array.make m Top in
  let lookup p = if p < 0 then Top else cur.(p) in
  let set p v = if p >= 0 then cur.(p) <- v in
  let run ~record b =
    for i = live_in.start.(b) to live_in.start.(b + 1) - 1 do
      cur.(live_in.pos.(i)) <- in_val.(i)
    done;
    Array.iter (transfer ~lookup ~set ~fresh ~record) ops.(b)
  in
  let entry = Cfg.entry cfg in
  (* Entry environment: every slice register starts at its own entry
     origin, so a merge of "defined in the loop" with "still the entry
     value" joins two different origins to [Top] instead of spuriously
     claiming them equal. Only the entry's live-in slots are needed. *)
  let entry_env =
    Array.init
      (live_in.start.(entry + 1) - live_in.start.(entry))
      (fun j ->
        let k = keys.(live_in.pos.(live_in.start.(entry) + j)) in
        Sym { origin = { o_uid = -1; o_reg = k }; offset = 0 })
  in
  (* Block-entry and block-exit environments, swept in layout order
     until a sweep changes nothing; a block not yet [reached] is bottom,
     the neutral element of the join. The transfer is not monotone — a
     [Top] operand opens a fresh origin — so an entry can change from
     one value to a different one without passing through [Top]. So the
     sweeps stay in layout order: a worklist in another order is not
     obviously the same fixpoint.

     Each sweep skips only evaluations that cannot change anything. A
     predecessor's exit change at a position is marked dirty in each
     reached successor where the position is live in, and a
     predecessor's first reach sets the successor's [full] flag. A
     visit re-joins only the dirty slots (all of them when [full]): at
     any other slot every reached predecessor's exit is what the last
     visit joined, so the join would return the entry value already
     there. When the entry changes, the body is re-transferred, and
     only the exit slots that changed are marked on; an entry that did
     not change gives the exit already stored, as the exit is a
     function of the entry alone. Every live value computed is the one
     the full re-join and re-transfer of every block at every sweep
     computes at the same step, so the sweeps, and the fixpoint, are
     the same. *)
  let reached = Array.make n false and full = Array.make n false in
  (* Dirty slots, an intrusive list per block: [dirty_head.(b)] is the
     first slot or [-1], [dirty_next.(i)] the next or [-1], and [-2]
     while slot [i] is not listed. *)
  let dirty_head = Array.make n (-1) in
  let dirty_next = Array.make (Array.length in_val) (-2) in
  let mark_dirty b i =
    if dirty_next.(i) = -2 then begin
      dirty_next.(i) <- dirty_head.(b);
      dirty_head.(b) <- i
    end
  in
  (* Each block's successors, from the predecessor lists: a block once
     per edge. *)
  let succs = Array.make n [] and max_preds = ref 0 in
  for b = 0 to n - 1 do
    let ps = Cfg.predecessors cfg b in
    max_preds := max !max_preds (List.length ps);
    List.iter (fun p -> succs.(p) <- b :: succs.(p)) ps
  done;
  let succs = Array.map Array.of_list succs in
  full.(entry) <- true;
  (* [srcs.(0 .. !nsrc - 1)] are the reached predecessors of the
     visited block, whose exits its join reads, with the entry
     environment at the entry. *)
  let srcs = Array.make !max_preds 0 and nsrc = ref 0 in
  let gather b =
    nsrc := 0;
    List.iter
      (fun q ->
        if reached.(q) then begin
          srcs.(!nsrc) <- q;
          incr nsrc
        end)
      (Cfg.predecessors cfg b)
  in
  (* The join at entry slot [i] of block [b]: the common value when
     every source agrees, [Top] otherwise. *)
  let exit_at q p = out_val.(slot live_out q p) in
  let join b i =
    let p = live_in.pos.(i) in
    let from_entry = b = entry in
    let v =
      if from_entry then entry_env.(i - live_in.start.(entry))
      else exit_at srcs.(0) p
    in
    let j = ref (if from_entry then 0 else 1) in
    while !j < !nsrc && equal_value (exit_at srcs.(!j) p) v do incr j done;
    if !j < !nsrc then Top else v
  in
  (* Store [x] at block [b]'s exit slot [k], marking it on when it
     changes. A successor not yet reached needs no mark: [b]'s first
     reach set its [full] flag, so its own first reach joins every
     slot. *)
  let update b k x =
    if not (equal_value x out_val.(k)) then begin
      out_val.(k) <- x;
      let p = live_out.pos.(k) and ss = succs.(b) in
      for j = 0 to Array.length ss - 1 do
        let s = ss.(j) in
        if reached.(s) then begin
          let i = slot live_in s p in
          if i >= 0 then mark_dirty s i
        end
      done
    end
  in
  let first_reach b =
    for i = live_in.start.(b) to live_in.start.(b + 1) - 1 do
      in_val.(i) <- join b i
    done;
    run ~record:no_record b;
    for k = live_out.start.(b) to live_out.start.(b + 1) - 1 do
      out_val.(k) <- cur.(live_out.pos.(k))
    done;
    reached.(b) <- true;
    Array.iter (fun s -> full.(s) <- true) succs.(b)
  in
  (* Re-join the dirty slots of reached block [b] (every slot when
     [was_full]); when its entry changed, re-transfer it and store its
     exit, and return [true]. Every slot is re-joined before any exit is
     stored, as a block may be its own predecessor. *)
  let revisit b ~was_full =
    let changed = ref false in
    let rejoin i =
      let x = join b i in
      if not (equal_value x in_val.(i)) then begin
        in_val.(i) <- x;
        changed := true
      end
    in
    let i = ref dirty_head.(b) in
    dirty_head.(b) <- -1;
    while !i >= 0 do
      let next = dirty_next.(!i) in
      dirty_next.(!i) <- -2;
      if not was_full then rejoin !i;
      i := next
    done;
    if was_full then
      for i = live_in.start.(b) to live_in.start.(b + 1) - 1 do rejoin i done;
    if !changed then begin
      run ~record:no_record b;
      for k = live_out.start.(b) to live_out.start.(b + 1) - 1 do
        update b k cur.(live_out.pos.(k))
      done
    end;
    !changed
  in
  let layout = Cfg.layout cfg in
  let step () =
    let changed = ref false in
    List.iter
      (fun b ->
        let was_full = full.(b) in
        if was_full || dirty_head.(b) >= 0 then begin
          full.(b) <- false;
          gather b;
          if not reached.(b) then begin
            first_reach b;
            changed := true
          end
          else if revisit b ~was_full then changed := true
        end)
      layout;
    !changed
  in
  ignore (Fix.iterate step);
  (* One more pass over each reached block records the base value at
     every access's own program point. *)
  let record a v = values.(a) <- v in
  Array.iteri (fun b r -> if r then run ~record b) reached;
  { index; values }

let base_value t uid =
  let a = Ints.Int_table.find t.index uid in
  if a < 0 then Top else t.values.(a)

let overclaim_for_testing = ref false

let numeric = function Const k -> k | Sym { offset; _ } -> offset | Top -> 0

let delta t ~a ~b =
  let va = base_value t a and vb = base_value t b in
  match va, vb with
  | Const x, Const y -> Some (y - x)
  | Sym x, Sym y when equal_origin x.origin y.origin ->
      Some (y.offset - x.offset)
  | (Const _ | Sym _ | Top), (Const _ | Sym _ | Top) ->
      (* The injected over-claim: pretend unprovable base pairs are
         equal modulo their tracked offsets — exactly the bug class the
         checker-side re-proof and the fuzz oracle must catch. *)
      if !overclaim_for_testing then Some (numeric vb - numeric va) else None
