(* Process-wide metrics registry.

   One flat namespace of named counters, gauges and histograms that
   every subsystem (scheduler, driver pool, register allocator,
   simulator) registers into, dumped verbatim into every JSON report.
   Counters and gauges are atomics and the registry itself is guarded
   by a mutex, so the batch driver's worker domains can bump the same
   metric concurrently.

   Collection is off until [enable] is called (the CLI entry points and
   the bench harness turn it on); with the registry disabled every
   recording operation is a single atomic load and branch, so library
   code can instrument unconditionally. *)

type counter = { c_name : string; count : int Atomic.t }
type gauge = { g_name : string; cell : float Atomic.t }

type histogram = {
  h_name : string;
  (* log2 buckets: bucket i counts observations in [2^(i-1), 2^i), with
     bucket 0 holding everything below 1.0. Coarse, fixed and
     allocation-free — enough to tell microseconds from seconds. *)
  buckets : int Atomic.t array;
  h_count : int Atomic.t;
  sum : float Atomic.t;
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

let num_buckets = 32
let enabled = Atomic.make false
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let lock = Mutex.create ()

let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

let register name make =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> m
      | None ->
          let m = make () in
          Hashtbl.replace registry name m;
          m)

let counter name =
  match
    register name (fun () ->
        Counter { c_name = name; count = Atomic.make 0 })
  with
  | Counter c -> c
  | Gauge _ | Histogram _ ->
      invalid_arg (name ^ " is already registered with another type")

let gauge name =
  match
    register name (fun () -> Gauge { g_name = name; cell = Atomic.make 0.0 })
  with
  | Gauge g -> g
  | Counter _ | Histogram _ ->
      invalid_arg (name ^ " is already registered with another type")

let histogram name =
  match
    register name (fun () ->
        Histogram
          {
            h_name = name;
            buckets = Array.init num_buckets (fun _ -> Atomic.make 0);
            h_count = Atomic.make 0;
            sum = Atomic.make 0.0;
          })
  with
  | Histogram h -> h
  | Counter _ | Gauge _ ->
      invalid_arg (name ^ " is already registered with another type")

let incr ?(by = 1) c =
  if Atomic.get enabled then ignore (Atomic.fetch_and_add c.count by)

let set g v = if Atomic.get enabled then Atomic.set g.cell v

let rec add_float cell by =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (old +. by)) then add_float cell by

let bucket_of v =
  if not (v >= 1.0) then 0
  else min (num_buckets - 1) (1 + int_of_float (Float.log2 v))

let observe h v =
  if Atomic.get enabled then begin
    ignore (Atomic.fetch_and_add h.buckets.(bucket_of v) 1);
    ignore (Atomic.fetch_and_add h.h_count 1);
    add_float h.sum v
  end

(* A metric whose name ends in "_seconds", "_ns" or "_us" measures wall
   clock, and one ending in "_bytes" measures allocation (which varies
   with compiler version even when the program is deterministic);
   deterministic dumps zero both the same way [Prof.scrub] zeroes the
   profile tree, so reports stay byte-stable across runs and toolchains. *)
let scrubbed_name name =
  let suffix s = Filename.check_suffix name s in
  suffix "_seconds" || suffix "_ns" || suffix "_us" || suffix "_bytes"

(* Snapshot: every metric read in one pass under the registry lock, so
   a report never shows counter A after an increment that counter B's
   reading missed. The per-histogram fields are still read one atomic
   at a time, but no registration or reset can interleave. *)
type histogram_view = { count : int; sum : float; buckets : (int * int) list }

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of histogram_view

let read_metric = function
  | Counter c -> (c.c_name, Counter_v (Atomic.get c.count))
  | Gauge g -> (g.g_name, Gauge_v (Atomic.get g.cell))
  | Histogram h ->
      let buckets =
        Array.to_list h.buckets
        |> List.mapi (fun i c -> (i, Atomic.get c))
        |> List.filter (fun (_, c) -> c > 0)
      in
      ( h.h_name,
        Histogram_v
          { count = Atomic.get h.h_count; sum = Atomic.get h.sum; buckets } )

let snapshot () =
  let all =
    Mutex.protect lock (fun () ->
        Hashtbl.fold (fun _ m acc -> read_metric m :: acc) registry [])
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) all

let histogram_stats h =
  match read_metric (Histogram h) with
  | _, Histogram_v v -> v
  | _ -> assert false

let pp_histogram_view ppf v =
  if v.count = 0 then Fmt.string ppf "empty"
  else begin
    Fmt.pf ppf "count %d, mean %.1f" v.count (v.sum /. float_of_int v.count);
    Fmt.pf ppf ", log2 buckets [%a]"
      Fmt.(list ~sep:sp (fun ppf (i, c) -> pf ppf "%d:%d" i c))
      v.buckets
  end

let value_to_json ~deterministic name v =
  let scrub = deterministic && scrubbed_name name in
  match v with
  | Counter_v n ->
      Json.Obj
        [
          ("type", Json.String "counter");
          ("value", Json.Int (if scrub then 0 else n));
        ]
  | Gauge_v x ->
      Json.Obj
        [
          ("type", Json.String "gauge");
          ("value", Json.Float (if scrub then 0.0 else x));
        ]
  | Histogram_v h ->
      let count = if scrub then 0 else h.count in
      let sum = if scrub then 0.0 else h.sum in
      let buckets = if scrub then [] else h.buckets in
      Json.Obj
        [
          ("type", Json.String "histogram");
          ("count", Json.Int count);
          ("sum", Json.Float sum);
          ( "buckets",
            Json.Obj
              (List.map (fun (i, c) -> (string_of_int i, Json.Int c)) buckets)
          );
        ]

let to_json ?(deterministic = false) () =
  Json.Obj
    (List.map
       (fun (name, v) -> (name, value_to_json ~deterministic name v))
       (snapshot ()))

let reset () =
  Mutex.protect lock (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | Counter c -> Atomic.set c.count 0
          | Gauge g -> Atomic.set g.cell 0.0
          | Histogram h ->
              Array.iter (fun b -> Atomic.set b 0) h.buckets;
              Atomic.set h.h_count 0;
              Atomic.set h.sum 0.0)
        registry)

let find_counter name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some (Counter c) -> Some (Atomic.get c.count)
      | Some (Gauge _ | Histogram _) | None -> None)
