type t = { cap : int; words : int array }

let bits = Sys.int_size

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { cap = n; words = Array.make ((n + bits - 1) / bits) 0 }


let check s i =
  if i < 0 || i >= s.cap then
    invalid_arg (Printf.sprintf "Bitset: %d out of bounds [0,%d)" i s.cap)

let mem s i =
  check s i;
  s.words.(i / bits) land (1 lsl (i mod bits)) <> 0

let add s i =
  check s i;
  let w = i / bits in
  s.words.(w) <- s.words.(w) lor (1 lsl (i mod bits))

let remove s i =
  check s i;
  let w = i / bits in
  s.words.(w) <- s.words.(w) land lnot (1 lsl (i mod bits))

let clear s = Array.fill s.words 0 (Array.length s.words) 0

(* The bits of word [w] that fall in [lo, hi), a non-empty range. *)
let range_mask w lo hi =
  let first = if w = lo / bits then lo mod bits else 0 in
  let last = if w = (hi - 1) / bits then (hi - 1) mod bits else bits - 1 in
  (-1 lsl first) land (-1 lsr (bits - 1 - last))

let check_range s lo hi =
  if lo < 0 || hi > s.cap || lo > hi then
    invalid_arg
      (Printf.sprintf "Bitset: range [%d,%d) out of bounds [0,%d)" lo hi s.cap)

let add_range s lo hi =
  check_range s lo hi;
  if lo < hi then
    for w = lo / bits to (hi - 1) / bits do
      s.words.(w) <- s.words.(w) lor range_mask w lo hi
    done

let remove_range s lo hi =
  check_range s lo hi;
  if lo < hi then
    for w = lo / bits to (hi - 1) / bits do
      s.words.(w) <- s.words.(w) land lnot (range_mask w lo hi)
    done

let same_capacity a b =
  if a.cap <> b.cap then invalid_arg "Bitset: capacity mismatch"

let equal a b =
  same_capacity a b;
  let rec go w = w < 0 || (a.words.(w) = b.words.(w) && go (w - 1)) in
  go (Array.length a.words - 1)

let union_into ~dst s =
  same_capacity dst s;
  for w = 0 to Array.length dst.words - 1 do
    dst.words.(w) <- dst.words.(w) lor s.words.(w)
  done

let assign ~dst s =
  same_capacity dst s;
  let changed = not (equal dst s) in
  if changed then Array.blit s.words 0 dst.words 0 (Array.length s.words);
  changed

let transfer ~dst ~gen ~kill s =
  same_capacity dst s;
  same_capacity gen s;
  same_capacity kill s;
  let changed = ref false in
  for w = 0 to Array.length dst.words - 1 do
    let v = gen.words.(w) lor (s.words.(w) land lnot kill.words.(w)) in
    if v <> dst.words.(w) then begin
      dst.words.(w) <- v;
      changed := true
    end
  done;
  !changed

let grow s n =
  if n < s.cap then invalid_arg "Bitset.grow";
  let g = create n in
  Array.blit s.words 0 g.words 0 (Array.length s.words);
  g

let iter f s =
  for w = 0 to Array.length s.words - 1 do
    let word = ref s.words.(w) and i = ref (w * bits) in
    while !word <> 0 do
      if !word land 1 <> 0 then f !i;
      word := !word lsr 1;
      incr i
    done
  done
