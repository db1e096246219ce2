(* The monotonic clock every timing in gisbench reads, and the in-memory
   span recorder of the traced run.

   A span is one call from the benchmark into a layer of the compiler:
   name, start, end, the span that caused it, and the op it belongs to.
   Spans stay in memory and are written out once, at exit, as Chrome
   trace-event JSON.

   Three kinds of span exist. [Work] spans are the workload itself.
   [Replay] spans re-run an analysis on a snapshot of a pass's input to
   price a layer the pass calls internally (symaddr, ddg); they are
   siblings of the pass, never its children, so a pass's self time is
   never reduced by them. [Verify] spans hold the benchmark's own
   correctness checks. Only [Work] spans count towards a layer's time
   and share, and towards an op's traced latency. *)

let now () = Monotonic_clock.now ()
let clock_source = "CLOCK_MONOTONIC (bechamel.monotonic_clock)"
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9

type kind = Work | Replay | Verify

let kind_name = function
  | Work -> "work"
  | Replay -> "replay"
  | Verify -> "verify"

type span = {
  id : int;
  name : string;
  kind : kind;
  parent : int;  (** -1 for a root *)
  op : int;  (** op id, -1 outside any op *)
  prog : int;  (** workload program the span works on, -1 for none *)
  start : int64;
  stop : int64;
  alloc_words : float;
}

type t = {
  mutable spans : span list;  (** finished spans, newest first *)
  mutable open_ : int list;  (** enclosing span ids, innermost first *)
  mutable next_id : int;
  mutable next_op : int;
  mutable op : int;
  mutable prog : int;
}

let create () =
  { spans = []; open_ = []; next_id = 0; next_op = 0; op = -1; prog = -1 }

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let record ?(kind = Work) t name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let a0 = allocated_words () in
  let start = now () in
  Fun.protect f ~finally:(fun () ->
      let stop = now () in
      let alloc_words = allocated_words () -. a0 in
      t.open_ <- List.tl t.open_;
      t.spans <-
        { id; name; kind; parent; op = t.op; prog = t.prog; start; stop;
          alloc_words }
        :: t.spans)

(* Run [f] as one op of program [prog]: a fresh op id and a root span. *)
let op t ~prog name f =
  let saved_op = t.op and saved_prog = t.prog in
  t.op <- t.next_op;
  t.next_op <- t.next_op + 1;
  t.prog <- prog;
  Fun.protect
    (fun () -> record t name f)
    ~finally:(fun () ->
      t.op <- saved_op;
      t.prog <- saved_prog)

(* Work on program [prog] outside any op (e.g. generating a fuzz
   program before its cells run). *)
let for_prog t ~prog name f =
  let saved = t.prog in
  t.prog <- prog;
  Fun.protect (fun () -> record t name f) ~finally:(fun () -> t.prog <- saved)

let duration s = seconds_between s.start s.stop

(* Self time and self allocation: the span's own figures minus what its
   direct children account for. Children of every kind are subtracted,
   so the op or compile span a replay or check was recorded under never
   counts it as its own work. *)
let self_times spans =
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let d, a =
          Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt covered s.parent)
        in
        Hashtbl.replace covered s.parent (d +. duration s, a +. s.alloc_words))
    spans;
  List.map
    (fun s ->
      let d, a = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt covered s.id) in
      (s, duration s -. d, s.alloc_words -. a))
    spans

(* Work time of every op, in op order: the self time of all Work spans
   recorded under that op id, in seconds. *)
let op_work_seconds spans =
  let work = Hashtbl.create 64 in
  List.iter
    (fun (s, self, _) ->
      if s.kind = Work && s.op >= 0 then
        Hashtbl.replace work s.op
          (self +. Option.value ~default:0.0 (Hashtbl.find_opt work s.op)))
    (self_times spans);
  Hashtbl.fold (fun op v acc -> (op, v) :: acc) work []
  |> List.sort compare |> List.map snd

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

type row = {
  r_name : string;
  r_kind : kind;
  calls : int;
  total_s : float;
  self_s : float;
  alloc_mb : float;
}

(* One row per (span name, kind), ordered by self time, largest first. *)
let self_time_table spans =
  let rows = Hashtbl.create 32 in
  List.iter
    (fun (s, self, self_alloc) ->
      let key = (s.name, s.kind) in
      let r =
        match Hashtbl.find_opt rows key with
        | Some r -> r
        | None ->
            { r_name = s.name; r_kind = s.kind; calls = 0; total_s = 0.0;
              self_s = 0.0; alloc_mb = 0.0 }
      in
      Hashtbl.replace rows key
        {
          r with
          calls = r.calls + 1;
          total_s = r.total_s +. duration s;
          self_s = r.self_s +. self;
          alloc_mb = r.alloc_mb +. mb_of_words self_alloc;
        })
    (self_times spans);
  Hashtbl.fold (fun _ r acc -> r :: acc) rows []
  |> List.sort (fun a b -> Float.compare b.self_s a.self_s)

let pp_table ppf rows =
  let work =
    List.fold_left
      (fun acc r -> if r.r_kind = Work then acc +. r.self_s else acc)
      0.0 rows
  in
  Fmt.pf ppf "%-22s %-7s %8s %11s %11s %7s %10s@." "span" "kind" "calls"
    "total_ms" "self_ms" "self%" "alloc_MB";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-22s %-7s %8d %11.3f %11.3f %7s %10.2f@." r.r_name
        (kind_name r.r_kind) r.calls (r.total_s *. 1e3) (r.self_s *. 1e3)
        (if r.r_kind = Work && work > 0.0 then
           Fmt.str "%.1f" (100.0 *. r.self_s /. work)
         else "-")
        r.alloc_mb)
    rows

let table_to_json rows =
  let open Gis_obs.Json in
  List
    (List.map
       (fun r ->
         Obj
           [
             ("span", String r.r_name);
             ("kind", String (kind_name r.r_kind));
             ("calls", Int r.calls);
             ("total_ms", Float (r.total_s *. 1e3));
             ("self_ms", Float (r.self_s *. 1e3));
             ("alloc_mb", Float r.alloc_mb);
           ])
       rows)

(* Chrome trace-event JSON: one complete ("X") event per span on a
   single track, times in microseconds from the first span. [header]
   and the self-time table ride along in [otherData]. *)
let to_chrome_json ~header spans =
  let open Gis_obs.Json in
  let t0 =
    List.fold_left (fun acc s -> if Int64.compare s.start acc < 0 then s.start else acc)
      Int64.max_int spans
  in
  let us t = Int64.to_float (Int64.sub t t0) /. 1e3 in
  let event s =
    Obj
      [
        ("name", String s.name);
        ("cat", String (kind_name s.kind));
        ("ph", String "X");
        ("ts", Float (us s.start));
        ("dur", Float (us s.stop -. us s.start));
        ("pid", Int 1);
        ("tid", Int 1);
        ( "args",
          Obj
            [
              ("id", Int s.id);
              ("parent", Int s.parent);
              ("op", Int s.op);
              ("prog", Int s.prog);
            ] );
      ]
  in
  Obj
    [
      ("displayTimeUnit", String "ms");
      ( "otherData",
        Obj [ ("header", header); ("self_time", table_to_json (self_time_table spans)) ] );
      ("traceEvents", List (List.rev_map event spans));
    ]
