(* Hierarchical self-profiler: wall-clock and GC attribution per
   pipeline phase and per compiled region.

   Every sample is an integer — wall clock in nanoseconds, allocation
   in bytes, GC runs in collections — so the accounting identity is
   exact, not approximate: a node's [self] value is its total minus the
   sum of its children's totals, and summing [self] over a subtree
   telescopes back to the subtree's total with no floating-point
   slack. [identity_ok] re-derives that sum independently; `gisc
   profile` runs it on every invocation and exits 3 when it fails.

   Recording keeps a per-domain stack of open frames, so the batch
   driver's worker domains never interleave each other's trees.
   With no profiler attached ([record None]) the cost is one pattern
   match — the pinned test asserts schedules are byte-identical. *)

type node = {
  name : string;
  wall_ns : int;  (** total wall clock, children included *)
  alloc_bytes : int;  (** total bytes allocated, children included *)
  minor : int;  (** minor collections finished inside the node *)
  major : int;  (** major collection cycles finished inside the node *)
  children : node list;
}

type t = { mutable roots : node list (* reverse completion order *); lock : Mutex.t }

let create () = { roots = []; lock = Mutex.create () }

let roots t = Mutex.protect t.lock (fun () -> List.rev t.roots)

(* Integer samples. Wall clock comes from the monotonic clock in
   nanoseconds, so a step of the system clock mid-phase cannot make a
   self time negative and fail the identity.

   Allocation is sampled from [Gc.minor_words], not
   [Gc.allocated_bytes]: the latter is [minor + major - promoted],
   whose major/promoted components only update at GC slice boundaries,
   so phase attribution would shift by megabytes depending on where
   collections happen to fall. [minor_words] is precise and monotonic
   per domain — deterministic attribution at the cost of not counting
   blocks allocated directly on the major heap (> 128 words). *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let allocated () = int_of_float (Gc.minor_words ()) * (Sys.word_size / 8)

type frame = {
  owner : t;
  frame_name : string;
  t0 : int;
  a0 : int;
  minor0 : int;
  major0 : int;
  mutable kids : node list; (* reverse order *)
}

let frames : frame list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let record prof name f =
  match prof with
  | None -> f ()
  | Some t ->
      let stack = Domain.DLS.get frames in
      let st = Gc.quick_stat () in
      let fr =
        {
          owner = t;
          frame_name = name;
          t0 = now_ns ();
          a0 = allocated ();
          minor0 = st.Gc.minor_collections;
          major0 = st.Gc.major_collections;
          kids = [];
        }
      in
      stack := fr :: !stack;
      let finish () =
        let wall_ns = now_ns () - fr.t0 in
        let alloc_bytes = allocated () - fr.a0 in
        let st1 = Gc.quick_stat () in
        (match !stack with
        | top :: rest when top == fr -> stack := rest
        | _ -> () (* an escaped effect unbalanced the stack; keep it sane *));
        let node =
          {
            name;
            wall_ns;
            alloc_bytes;
            minor = st1.Gc.minor_collections - fr.minor0;
            major = st1.Gc.major_collections - fr.major0;
            children = List.rev fr.kids;
          }
        in
        match !stack with
        | parent :: _ when parent.owner == t -> parent.kids <- node :: parent.kids
        | _ -> Mutex.protect t.lock (fun () -> t.roots <- node :: t.roots)
      in
      (match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e)

(* ------------------------------------------------------------------ *)
(* Accounting                                                          *)
(* ------------------------------------------------------------------ *)

let sum f children = List.fold_left (fun acc c -> acc + f c) 0 children

let self_wall_ns n = n.wall_ns - sum (fun c -> c.wall_ns) n.children
let self_alloc_bytes n = n.alloc_bytes - sum (fun c -> c.alloc_bytes) n.children
let self_minor n = n.minor - sum (fun c -> c.minor) n.children
let self_major n = n.major - sum (fun c -> c.major) n.children

let rec fold f acc n = List.fold_left (fold f) (f acc n) n.children

(* The identity, checked from first principles rather than trusting the
   derivation above: over any subtree, the self values must sum back to
   the root's totals, and no counter that is physically monotonic
   (allocation, collections, and the monotonic wall clock) may go
   negative anywhere. *)
let identity_ok n =
  let sums =
    fold
      (fun (w, a, mi, ma) m ->
        ( w + self_wall_ns m,
          a + self_alloc_bytes m,
          mi + self_minor m,
          ma + self_major m ))
      (0, 0, 0, 0) n
  in
  let non_negative =
    fold
      (fun ok m ->
        ok && self_wall_ns m >= 0 && self_alloc_bytes m >= 0
        && self_minor m >= 0 && self_major m >= 0)
      true n
  in
  sums = (n.wall_ns, n.alloc_bytes, n.minor, n.major) && non_negative

let node_count n = fold (fun k _ -> k + 1) 0 n

(* ------------------------------------------------------------------ *)
(* Renderings                                                          *)
(* ------------------------------------------------------------------ *)

let rec scrub n =
  {
    n with
    wall_ns = 0;
    alloc_bytes = 0;
    minor = 0;
    major = 0;
    children = List.map scrub n.children;
  }

let seconds_of_ns ns = float_of_int ns /. 1e9

let rec to_json n =
  Json.Obj
    ([
       ("name", Json.String n.name);
       ("wall_seconds", Json.Float (seconds_of_ns n.wall_ns));
       ("self_seconds", Json.Float (seconds_of_ns (self_wall_ns n)));
       ("alloc_bytes", Json.Int n.alloc_bytes);
       ("self_alloc_bytes", Json.Int (self_alloc_bytes n));
       ("minor_collections", Json.Int n.minor);
       ("major_collections", Json.Int n.major);
     ]
    @
    match n.children with
    | [] -> []
    | children -> [ ("children", Json.List (List.map to_json children)) ])

(* Folded-stack output, one line per node: semicolon-joined path then
   the node's *self* value, the format flamegraph.pl and speedscope
   ingest directly. Wall values are nanoseconds, [`Alloc] bytes. *)
let folded ?(metric = `Wall) n =
  let value m =
    match metric with `Wall -> self_wall_ns m | `Alloc -> self_alloc_bytes m
  in
  let rec go prefix m acc =
    let path = if prefix = "" then m.name else prefix ^ ";" ^ m.name in
    let acc = Fmt.str "%s %d" path (value m) :: acc in
    List.fold_left (fun acc c -> go path c acc) acc m.children
  in
  List.rev (go "" n [])

let pp_bytes ppf b =
  if b >= 10 * 1024 * 1024 then Fmt.pf ppf "%7.1fMB" (float_of_int b /. 1048576.)
  else if b >= 10 * 1024 then Fmt.pf ppf "%7.1fkB" (float_of_int b /. 1024.)
  else Fmt.pf ppf "%6dB " b

let pp ppf n =
  Fmt.pf ppf "  %-28s | %10s | %10s | %10s | %10s | %5s@." "phase" "wall (ms)"
    "self (ms)" "alloc" "self alloc" "gc";
  let rec row depth m =
    let indent = String.make (2 * depth) ' ' in
    Fmt.pf ppf "  %-28s | %10.3f | %10.3f | %a | %a | %2d/%d@."
      (indent ^ m.name)
      (float_of_int m.wall_ns /. 1e6)
      (float_of_int (self_wall_ns m) /. 1e6)
      pp_bytes m.alloc_bytes pp_bytes (self_alloc_bytes m) m.minor m.major;
    List.iter (row (depth + 1)) m.children
  in
  row 0 n
