(** Integer sets and maps, shared across the code base so that analysis
    results can be passed between libraries without conversion. *)

module Int_set = Set.Make (Int)
module Int_map = Map.Make (Int)

(* An int-to-int hash table for non-negative keys (instruction uids,
   register hashes) and values, in two flat int arrays with linear
   probing: a binding costs no allocation and no pointer store, where a
   [Hashtbl] allocates a cell for each. *)
module Int_table = struct
  type t = {
    mutable keys : int array;  (* [-1] marks an empty slot *)
    mutable vals : int array;
    mutable count : int;
  }

  let create n =
    let rec cap c = if c >= 2 * n then c else cap (2 * c) in
    let c = cap 16 in
    { keys = Array.make c (-1); vals = Array.make c 0; count = 0 }

  (* The slot holding [key], or the empty slot ending its probe run.
     Fibonacci hashing spreads keys that share their low bits, as
     register hashes do. The probe loop is closed over nothing, so a
     lookup allocates nothing. *)
  let rec probe keys key mask i =
    let k = keys.(i) in
    if k = key || k < 0 then i else probe keys key mask ((i + 1) land mask)

  let slot keys key =
    let mask = Array.length keys - 1 in
    probe keys key mask (((key * 0x9E3779B97F4A7C1) lsr 20) land mask)

  (* [-1] for an absent key. *)
  let find t key =
    if key < 0 then -1
    else
      let i = slot t.keys key in
      if t.keys.(i) = key then t.vals.(i) else -1

  let mem t key = find t key >= 0

  let rec replace t key v =
    if key < 0 || v < 0 then invalid_arg "Int_table.replace: negative";
    let i = slot t.keys key in
    if t.keys.(i) = key then t.vals.(i) <- v
    else if 2 * (t.count + 1) > Array.length t.keys then begin
      let keys = t.keys and vals = t.vals in
      t.keys <- Array.make (2 * Array.length keys) (-1);
      t.vals <- Array.make (2 * Array.length keys) 0;
      t.count <- 0;
      Array.iteri (fun j k -> if k >= 0 then replace t k vals.(j)) keys;
      replace t key v
    end
    else begin
      t.keys.(i) <- key;
      t.vals.(i) <- v;
      t.count <- t.count + 1
    end
end

let pp_int_set ppf s =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") int) (Int_set.elements s)
