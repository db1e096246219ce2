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
  | Access of { uid : int; base : int; offset : int; update : bool; dst : int }
      (** a load defining [dst] ([-1] for a store or a register
          outside the slice), or a store *)
  | Opaque of { uid : int; dsts : int list }
      (** every other definition of slice registers *)

(* The op of [i], or [None] when it has no effect on the slice;
   [position] maps a register to its slice position or [-1]. *)
let decode ~position i =
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
      Some (Access { uid; base = position base; offset; update; dst = position dst })
  | Instr.Store { base; offset; update; _ } ->
      Some (Access { uid; base = position base; offset; update; dst = -1 })
  | Instr.Binop _ | Instr.Compare _ | Instr.Fcompare _ | Instr.Fbinop _
  | Instr.Call _ ->
      opaque (Instr.defs i)
  | Instr.Branch_cond _ | Instr.Jump _ | Instr.Halt -> None

(* Transfer of one op over an environment read through [lookup] and
   written through [set], both by slice position; [lookup] reads [-1]
   as [Top] and [set] drops it. [fresh uid p] opens the origin of
   [uid]'s definition of position [p]'s register. [record] is called
   with the base value of a load/store before the [update]
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
  | Access { uid; base; offset; update; dst } ->
      let bv = lookup base in
      record uid bv;
      if dst >= 0 then set dst (fresh uid dst);
      if update then result uid base (shift bv offset)
  | Opaque { uid; dsts } -> List.iter (fun p -> set p (fresh uid p)) dsts

type t = { base_values : (int, value) Hashtbl.t }

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
   [Reg.hash] order, and lists the keys by position. *)
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
  (pos, keys)

let no_record _ _ = ()

let compute cfg =
  let n = Cfg.num_blocks cfg in
  (* Dense positions: slice register key [keys.(p)] lives at position
     [p] of every environment array. *)
  let pos, keys = slice cfg in
  let m = Array.length keys in
  let position r = Ints.Int_table.find pos (Reg.hash r) in
  let ops = Array.make n [||] in
  List.iter
    (fun id ->
      ops.(id) <-
        Array.of_list
          (List.filter_map (decode ~position) (Block.instrs (Cfg.block cfg id))))
    (Cfg.layout cfg);
  let fresh uid p = Sym { origin = { o_uid = uid; o_reg = keys.(p) }; offset = 0 } in
  (* [run ~record inn id] transfers block [id]'s ops from the entry
     environment [inn] without copying it: the registers the block
     defines are written to the scratch [cur], stamped with this run's
     [epoch], and listed in [touched]; the entry positions it reads
     before defining them are listed in [exposed]. Neither list depends
     on the values, only on the instructions. *)
  let cur = Array.make m Top and stamp = Array.make m 0 in
  let epoch = ref 0 and touched = ref [] and exposed = ref [] in
  let run ~record inn id =
    incr epoch;
    touched := [];
    exposed := [];
    let e = !epoch in
    let lookup p =
      if p < 0 then Top
      else if stamp.(p) = e then cur.(p)
      else begin
        exposed := p :: !exposed;
        inn.(p)
      end
    in
    let set p v =
      if p >= 0 then begin
        if stamp.(p) <> e then begin
          stamp.(p) <- e;
          touched := p :: !touched
        end;
        cur.(p) <- v
      end
    in
    Array.iter (transfer ~lookup ~set ~fresh ~record) ops.(id)
  in
  (* Entry environment: every slice register starts at its own entry
     origin, so a merge of "defined in the loop" with "still the entry
     value" joins two different origins to [Top] instead of spuriously
     claiming them equal. *)
  let entry_env =
    Array.map (fun k -> Sym { origin = { o_uid = -1; o_reg = k }; offset = 0 }) keys
  in
  (* Block-entry and block-exit environments, swept in layout order
     until a sweep changes nothing; a block not yet [reached] is bottom,
     the neutral element of the join. The transfer is not monotone — a
     [Top] operand opens a fresh origin — so an entry can change from
     one value to a different one without passing through [Top]. So the
     sweeps stay in layout order: a worklist in another order is not
     obviously the same fixpoint.

     Each sweep skips only evaluations that cannot change anything. A
     predecessor's exit change at position [p] is pushed onto the
     successor's [dirty] list, and a predecessor's first reach sets the
     successor's [full] flag. A visit re-joins only the dirty positions
     (all of them when [full]): at any other position every reached
     predecessor's exit is what the last visit joined, so the join
     would return the entry value already there. When the entry
     changes, the body is re-transferred only if it reads a changed
     position before defining it (the values it defines are a function
     of those reads alone), a changed position it does not define
     passes to the exit as is, and only the positions whose exit
     changed are pushed on. Every value computed is the one the full
     re-join and re-transfer of every block at every sweep computes at
     the same step, so the sweeps, and the fixpoint, are the same. *)
  let reached = Array.make n false in
  let in_ = Array.make n [||] and out = Array.make n [||] in
  let full = Array.make n false in
  let dirty = Array.init n (fun _ -> Vec.create ()) in
  (* Per reached block: the positions it defines and its exposed reads. *)
  let defs = Array.make n [] and reads = Array.make n [] in
  (* Each block's successors, from the predecessor lists: by
     descending id, a block once per edge. *)
  let succs = Array.make n [] and max_preds = ref 0 in
  for b = 0 to n - 1 do
    let ps = Cfg.predecessors cfg b in
    max_preds := max !max_preds (List.length ps);
    List.iter (fun p -> succs.(p) <- b :: succs.(p)) ps
  done;
  let succs = Array.map Array.of_list succs in
  let entry = Cfg.entry cfg in
  full.(entry) <- true;
  (* [srcs.(0 .. !nsrc - 1)] are the environments the join at the
     visited block reads: each reached predecessor's exit, and the entry
     environment at the entry. *)
  let srcs = Array.make (!max_preds + 1) [||] in
  let nsrc = ref 0 in
  let gather id =
    nsrc := 0;
    let add env =
      srcs.(!nsrc) <- env;
      incr nsrc
    in
    if id = entry then add entry_env;
    List.iter (fun p -> if reached.(p) then add out.(p)) (Cfg.predecessors cfg id)
  in
  (* The pointwise join at [p]: the common value when every source
     agrees, [Top] otherwise. *)
  let join p =
    let v = srcs.(0).(p) and i = ref 1 in
    while !i < !nsrc && equal_value srcs.(!i).(p) v do incr i done;
    if !i < !nsrc then Top else v
  in
  (* Stamps of the current visit: positions re-joined, changed, and
     defined by the visited block. *)
  let seen = Array.make m 0 and changed_at = Array.make m 0 in
  let defined_at = Array.make m 0 and visit = ref 0 in
  let layout = Cfg.layout cfg in
  let first_reach id =
    let inn =
      if !nsrc = 1 then Array.copy srcs.(0)
      else begin
        let a = Array.make m Top in
        for p = 0 to m - 1 do a.(p) <- join p done;
        a
      end
    in
    run ~record:no_record inn id;
    let o = Array.copy inn in
    List.iter (fun p -> o.(p) <- cur.(p)) !touched;
    in_.(id) <- inn;
    out.(id) <- o;
    defs.(id) <- !touched;
    reads.(id) <- !exposed;
    reached.(id) <- true;
    Array.iter (fun s -> full.(s) <- true) succs.(id)
  in
  (* Re-join the dirty positions of reached block [id] (every position
     when [was_full]); [true] when its entry changed. *)
  let revisit id ~was_full =
    let inn = in_.(id) and d = dirty.(id) in
    incr visit;
    let v = !visit in
    let changed_in = ref [] in
    let rejoin p =
      if seen.(p) <> v then begin
        seen.(p) <- v;
        let x = join p in
        if not (equal_value x inn.(p)) then begin
          inn.(p) <- x;
          changed_at.(p) <- v;
          changed_in := p :: !changed_in
        end
      end
    in
    if was_full then for p = 0 to m - 1 do rejoin p done
    else for j = 0 to Vec.length d - 1 do rejoin (Vec.get d j) done;
    Vec.clear d;
    if !changed_in = [] then false
    else begin
      let o = out.(id) and ss = succs.(id) in
      let update p x =
        if not (equal_value x o.(p)) then begin
          o.(p) <- x;
          for j = 0 to Array.length ss - 1 do Vec.push dirty.(ss.(j)) p done
        end
      in
      if List.exists (fun p -> changed_at.(p) = v) reads.(id) then begin
        run ~record:no_record inn id;
        List.iter (fun p -> update p cur.(p)) !touched
      end;
      List.iter (fun p -> defined_at.(p) <- v) defs.(id);
      List.iter (fun p -> if defined_at.(p) <> v then update p inn.(p)) !changed_in;
      true
    end
  in
  let step () =
    let changed = ref false in
    List.iter
      (fun id ->
        let was_full = full.(id) in
        if was_full || not (Vec.is_empty dirty.(id)) then begin
          full.(id) <- false;
          gather id;
          if not reached.(id) then begin
            Vec.clear dirty.(id);
            first_reach id;
            changed := true
          end
          else if revisit id ~was_full then changed := true
        end)
      layout;
    !changed
  in
  ignore (Fix.iterate step);
  (* One more pass over each reached block records the base value at
     every access's own program point. *)
  let base_values = Hashtbl.create 64 in
  let record uid v = Hashtbl.replace base_values uid v in
  Array.iteri (fun id r -> if r then run ~record in_.(id) id) reached;
  { base_values }

let base_value t uid = Option.value ~default:Top (Hashtbl.find_opt t.base_values uid)

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
