(* Order statistics and the growth-exponent fit. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks; [q] in [0, 1]. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile (sorted xs) 0.5

(* The highest percentile that still has [beyond] samples above it, as
   (value, percentile). With [beyond] or fewer samples no such
   percentile exists and the maximum (p100) stands in. *)
let tail ?(beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else
    let k = if n > beyond then n - 1 - beyond else n - 1 in
    (a.(k), 100.0 *. float_of_int (k + 1) /. float_of_int n)

(* Least-squares slope of log y against log x: how a cost grows with
   program size. Points with a non-positive coordinate are ignored;
   fewer than two distinct sizes give 0 (no growth measurable). *)
let growth_exponent points =
  let pts =
    List.filter_map
      (fun (x, y) -> if x > 0.0 && y > 0.0 then Some (log x, log y) else None)
      points
  in
  let n = float_of_int (List.length pts) in
  let mean f = List.fold_left (fun acc p -> acc +. f p) 0.0 pts /. n in
  let mx = mean fst and my = mean snd in
  let sxx = List.fold_left (fun acc (x, _) -> acc +. ((x -. mx) ** 2.0)) 0.0 pts in
  let sxy =
    List.fold_left (fun acc (x, y) -> acc +. ((x -. mx) *. (y -. my))) 0.0 pts
  in
  if n < 2.0 || sxx = 0.0 then 0.0 else sxy /. sxx
