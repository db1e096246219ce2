open Gis_util
open Gis_ir

(* Registers are numbered densely, by first mention in layout order,
   through [num] (keyed by [Reg.hash]), so no array is sized by a
   register's id; [regs] maps a number back. A fresh register that an
   edit introduces gets the next number. [use_seen] and [def_seen] are
   per-number stamps for one block scan, which [epoch] tells apart; they
   grow, doubling, with the numbers. *)
type names = {
  num : Ints.Int_table.t;
  regs : Reg.t Vec.t;
  mutable use_seen : int array;
  mutable def_seen : int array;
  mutable epoch : int;
}

let number nm r =
  let h = Reg.hash r in
  let x = Ints.Int_table.find nm.num h in
  if x >= 0 then x
  else begin
    let x = Vec.length nm.regs in
    Ints.Int_table.replace nm.num h x;
    Vec.push nm.regs r;
    if x = Array.length nm.use_seen then begin
      let grown a =
        let g = Array.make (2 * x) 0 in
        Array.blit a 0 g 0 x;
        g
      in
      nm.use_seen <- grown nm.use_seen;
      nm.def_seen <- grown nm.def_seen
    end;
    x
  end

(* A block's upward-exposed uses and its definitions, as lists of
   numbers without repeats; the block is stamped [nm.epoch] in
   [use_seen] and [def_seen]. The register walks close over nothing, so
   a scan allocates only the lists it returns. *)
let rec scan_uses nm e acc = function
  | [] -> acc
  | r :: rest ->
      let x = number nm r in
      if nm.def_seen.(x) <> e && nm.use_seen.(x) <> e then begin
        nm.use_seen.(x) <- e;
        scan_uses nm e (x :: acc) rest
      end
      else scan_uses nm e acc rest

let rec scan_defs nm e acc = function
  | [] -> acc
  | r :: rest ->
      let x = number nm r in
      if nm.def_seen.(x) <> e then begin
        nm.def_seen.(x) <- e;
        scan_defs nm e (x :: acc) rest
      end
      else scan_defs nm e acc rest

let scan nm b =
  nm.epoch <- nm.epoch + 1;
  let e = nm.epoch in
  let uses = ref [] and defs = ref [] in
  Block.iter
    (fun i ->
      uses := scan_uses nm e !uses (Instr.uses i);
      defs := scan_defs nm e !defs (Instr.defs i))
    b;
  (!uses, !defs)

(* Each block has four bitset rows over register numbers, of capacity
   [cap]: [use] and [def], its upward-exposed uses and its definitions,
   and [live_in] and [live_out], the fixpoint over them. [uses] and
   [defs] list the elements of each block's [use] and [def] rows, so a
   re-scan finds what left a row without reading the row. The rows are
   regrown, doubling, when the numbers outrun [cap]. The fixpoint
   propagates along the CFG's own edges. *)
type t = {
  names : names;
  mutable cap : int;
  use : Bitset.t array;
  def : Bitset.t array;
  live_in : Bitset.t array;
  live_out : Bitset.t array;
  uses : int list array;
  defs : int list array;
}

(* Regrow the rows when the numbers have outrun them. *)
let sync t =
  let n = Vec.length t.names.regs in
  if n > t.cap then begin
    let cap = max n (2 * t.cap) in
    let regrow rows = Array.iteri (fun i row -> rows.(i) <- Bitset.grow row cap) rows in
    List.iter regrow [ t.use; t.def; t.live_in; t.live_out ];
    t.cap <- cap
  end

let set_rows t id (uses, defs) =
  t.uses.(id) <- uses;
  t.defs.(id) <- defs;
  List.iter (Bitset.add t.use.(id)) uses;
  List.iter (Bitset.add t.def.(id)) defs

let compute cfg =
  let n = Cfg.num_blocks cfg in
  let layout = Cfg.layout cfg in
  let names =
    {
      num = Ints.Int_table.create (Cfg.instr_count cfg);
      regs = Vec.create ();
      use_seen = Array.make 64 0;
      def_seen = Array.make 64 0;
      epoch = 0;
    }
  in
  (* Scan first, so that the rows are sized once. *)
  let scanned = List.map (fun id -> (id, scan names (Cfg.block cfg id))) layout in
  let cap = Vec.length names.regs + Sys.int_size in
  let rows () = Array.init n (fun _ -> Bitset.create cap) in
  let t =
    {
      names;
      cap;
      use = rows ();
      def = rows ();
      live_in = rows ();
      live_out = rows ();
      uses = Array.make n [];
      defs = Array.make n [];
    }
  in
  List.iter (fun (id, scan) -> set_rows t id scan) scanned;
  (* Passes in reverse layout order, which converge quickly on
     mostly-forward graphs; a block is re-evaluated only when a
     successor's [live_in] changed since its last evaluation. *)
  let rev_layout = List.rev layout in
  let dirty = Array.make n true in
  let step () =
    let changed = ref false in
    List.iter
      (fun id ->
        if dirty.(id) then begin
          dirty.(id) <- false;
          let out = t.live_out.(id) in
          List.iter
            (fun (s, _) -> Bitset.union_into ~dst:out t.live_in.(s))
            (Cfg.successors cfg id);
          if
            Bitset.transfer ~dst:t.live_in.(id) ~gen:t.use.(id) ~kill:t.def.(id)
              out
          then begin
            changed := true;
            List.iter (fun p -> dirty.(p) <- true) (Cfg.predecessors cfg id)
          end
        end)
      rev_layout;
    !changed
  in
  ignore (Fix.iterate step);
  t

(* Re-solve register [x] after the [use] or [def] rows of the layout
   blocks [changed] changed in [x], by deletion and re-derivation:

   1. Clear [x] from every [live_in] that the changed blocks' facts
      might have supported: each changed block's own (unless it still
      uses [x]), then backward along set bits, clearing a predecessor's
      [live_out] and, unless the predecessor uses [x], its [live_in].
      This walks only blocks where [x] was live. A fact left standing
      has a path of standing facts to an unchanged use, so it still
      holds.
   2. Re-derive each cleared block and each changed block from its
      neighbours in one step, and push every block whose [live_in]
      gains [x].
   3. Propagate backward from the pushed blocks, stopping at
      definitions, as a fresh compute would.

   The result is the least fixpoint, exactly what a fresh {!compute}
   gives [x]. *)
let resolve t cfg x changed =
  let stack = ref [] and cleared = ref [] in
  let clear_in b =
    if Bitset.mem t.live_in.(b) x && not (Bitset.mem t.use.(b) x) then begin
      Bitset.remove t.live_in.(b) x;
      stack := b :: !stack
    end
  in
  List.iter clear_in changed;
  let rec unpropagate () =
    match !stack with
    | [] -> ()
    | b :: rest ->
        stack := rest;
        List.iter
          (fun p ->
            if Bitset.mem t.live_out.(p) x then begin
              Bitset.remove t.live_out.(p) x;
              cleared := p :: !cleared;
              clear_in p
            end)
          (Cfg.predecessors cfg b);
        unpropagate ()
  in
  unpropagate ();
  let gain_in b =
    if not (Bitset.mem t.live_in.(b) x) then begin
      Bitset.add t.live_in.(b) x;
      stack := b :: !stack
    end
  in
  let rederive b =
    if
      (not (Bitset.mem t.live_out.(b) x))
      && List.exists
           (fun (s, _) -> Bitset.mem t.live_in.(s) x)
           (Cfg.successors cfg b)
    then Bitset.add t.live_out.(b) x;
    if
      Bitset.mem t.use.(b) x
      || (Bitset.mem t.live_out.(b) x && not (Bitset.mem t.def.(b) x))
    then gain_in b
  in
  List.iter rederive changed;
  List.iter rederive !cleared;
  let rec propagate () =
    match !stack with
    | [] -> ()
    | b :: rest ->
        stack := rest;
        List.iter
          (fun p ->
            if not (Bitset.mem t.live_out.(p) x) then begin
              Bitset.add t.live_out.(p) x;
              if not (Bitset.mem t.def.(p) x) then gain_in p
            end)
          (Cfg.predecessors cfg b);
        propagate ()
  in
  propagate ()

let update t cfg ~blocks =
  if Cfg.num_blocks cfg <> Array.length t.live_in then
    invalid_arg "Liveness.update: the CFG's block count changed";
  (* Re-scan each block; every register that entered or left its [use]
     or [def] row is paired with the block. *)
  let changes = ref [] in
  let rescan id =
    let ((uses, defs) as scan) = scan t.names (Cfg.block cfg id) in
    sync t;
    let e = t.names.epoch in
    let diff row seen old_list new_list =
      List.iter
        (fun x -> if not (Bitset.mem row x) then changes := (x, id) :: !changes)
        new_list;
      List.iter
        (fun x ->
          if seen.(x) <> e then changes := (x, id) :: !changes;
          Bitset.remove row x)
        old_list
    in
    diff t.use.(id) t.names.use_seen t.uses.(id) uses;
    diff t.def.(id) t.names.def_seen t.defs.(id) defs;
    set_rows t id scan
  in
  List.iter rescan blocks;
  let rec by_register = function
    | [] -> ()
    | (x, b) :: rest ->
        let rec blocks_of acc = function
          | (y, c) :: rest when y = x -> blocks_of (c :: acc) rest
          | rest -> (acc, rest)
        in
        let changed, rest = blocks_of [ b ] rest in
        resolve t cfg x changed;
        by_register rest
  in
  by_register (List.sort_uniq compare !changes)

let iter_row t row f = Bitset.iter (fun x -> f (Vec.get t.names.regs x)) row
let iter_live_in t id = iter_row t t.live_in.(id)
let iter_live_out t id = iter_row t t.live_out.(id)

let term_uses cfg id = Instr.uses (Cfg.block cfg id).Block.term

let live_out_mem t id r =
  let x = Ints.Int_table.find t.names.num (Reg.hash r) in
  x >= 0 && Bitset.mem t.live_out.(id) x

let mem_before_terminator t cfg id r =
  live_out_mem t id r || List.exists (Reg.equal r) (term_uses cfg id)

let count_before_terminator t cfg id cls =
  let n = ref 0 in
  iter_live_out t id (fun r -> if r.Reg.cls = cls then incr n);
  List.iter
    (fun r -> if r.Reg.cls = cls && not (live_out_mem t id r) then incr n)
    (List.sort_uniq Reg.compare (term_uses cfg id));
  !n
