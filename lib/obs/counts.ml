type value =
  | Counter of int
  | Gauge of float
  | Histogram of float list

type t = (string * value) list

let counters l = List.map (fun (k, n) -> (k, Counter n)) l

let add_value a b =
  match a, b with
  | Counter x, Counter y -> Counter (x + y)
  | Histogram x, Histogram y -> Histogram (x @ y)
  | _, b -> b

let add a b =
  List.map
    (fun (k, v) ->
      match List.assoc_opt k b with
      | Some w -> (k, add_value v w)
      | None -> (k, v))
    a
  @ List.filter (fun (k, _) -> not (List.mem_assoc k a)) b

let num_buckets = 32

let bucket_of v =
  if not (v >= 1.0) then 0
  else min (num_buckets - 1) (1 + int_of_float (Float.log2 v))

(* Non-empty log2 buckets as (index, count), ascending. *)
let buckets obs =
  let b = Array.make num_buckets 0 in
  List.iter (fun v -> b.(bucket_of v) <- b.(bucket_of v) + 1) obs;
  Array.to_list b
  |> List.mapi (fun i c -> (i, c))
  |> List.filter (fun (_, c) -> c > 0)

let sum = List.fold_left ( +. ) 0.0

let pp_histogram ppf obs =
  match List.length obs with
  | 0 -> Fmt.string ppf "empty"
  | n ->
      Fmt.pf ppf "count %d, mean %.1f, log2 buckets [%a]" n
        (sum obs /. float_of_int n)
        Fmt.(list ~sep:(any " ") (fun ppf (i, c) -> pf ppf "%d:%d" i c))
        (buckets obs)

(* A count named for wall clock ("_seconds", "_ns", "_us") or
   allocation ("_bytes") is not reproducible across runs or compiler
   versions, so a deterministic report zeroes it. *)
let scrubbed name =
  List.exists (Filename.check_suffix name)
    [ "_seconds"; "_ns"; "_us"; "_bytes" ]

let value_to_json ~deterministic name v =
  let scrub = deterministic && scrubbed name in
  match v with
  | Counter n ->
      Json.Obj
        [
          ("type", Json.String "counter");
          ("value", Json.Int (if scrub then 0 else n));
        ]
  | Gauge x ->
      Json.Obj
        [
          ("type", Json.String "gauge");
          ("value", Json.Float (if scrub then 0.0 else x));
        ]
  | Histogram obs ->
      let obs = if scrub then [] else obs in
      Json.Obj
        [
          ("type", Json.String "histogram");
          ("count", Json.Int (List.length obs));
          ("sum", Json.Float (sum obs));
          ( "buckets",
            Json.Obj
              (List.map
                 (fun (i, c) -> (string_of_int i, Json.Int c))
                 (buckets obs)) );
        ]

let to_json ?(deterministic = false) t =
  Json.Obj
    (List.map
       (fun (name, v) -> (name, value_to_json ~deterministic name v))
       (List.sort (fun (a, _) (b, _) -> String.compare a b) t))
