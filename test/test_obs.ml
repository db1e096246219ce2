(* Telemetry-layer checks: the JSON codec round-trips, the simulator's
   stall attribution obeys its accounting identity, and the scheduler's
   decision trace replays exactly the motions the pipeline reports. *)

open Gis_ir
open Gis_machine
open Gis_core
open Gis_sim
open Gis_workloads
open Gis_obs

let machine = Machine.rs6k

let elements =
  let rng = Prng.create ~seed:5 in
  List.init 64 (fun _ -> Prng.int rng 1000)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let sample_json =
  Json.Obj
    [
      ("null", Json.Null);
      ("flag", Json.Bool true);
      ("n", Json.Int (-42));
      ("x", Json.Float 1.5);
      ("s", Json.String "a \"quoted\"\nline\twith \\ specials");
      ("xs", Json.List [ Json.Int 1; Json.Int 2; Json.Int 3 ]);
      ("empty_list", Json.List []);
      ("empty_obj", Json.Obj []);
      ("nested", Json.Obj [ ("inner", Json.List [ Json.Obj [ ("k", Json.Null) ] ]) ]);
    ]

let test_json_roundtrip () =
  List.iter
    (fun minify ->
      match Json.of_string (Json.to_string ~minify sample_json) with
      | Ok v ->
          Alcotest.(check string)
            (Fmt.str "round-trip (minify=%b)" minify)
            (Json.to_string sample_json) (Json.to_string v)
      | Error e -> Alcotest.fail e)
    [ true; false ]

let test_json_parser_accepts () =
  List.iter
    (fun (src, want) ->
      match Json.of_string src with
      | Ok v -> Alcotest.(check string) src want (Json.to_string ~minify:true v)
      | Error e -> Alcotest.fail (src ^ ": " ^ e))
    [
      ("  [ 1 , -2.5e2 , \"\\u0041\" ]  ", {|[1,-250.0,"A"]|});
      ("{\"a\":{},\"b\":[[]]}", {|{"a":{},"b":[[]]}|});
      ("true", "true");
      ("-0.125", "-0.125");
    ]

let test_json_parser_rejects () =
  List.iter
    (fun src ->
      match Json.of_string src with
      | Ok _ -> Alcotest.fail ("accepted invalid input: " ^ src)
      | Error _ -> ())
    [
      ""; "[1,]"; "{\"a\" 1}"; "nul"; "\"unterminated"; "[1] trailing"; "1.2.3";
      (* Lone surrogate halves are not scalar values. *)
      {|"\ud83d"|}; {|"\udca9 tail"|}; {|"\ud83dA"|};
    ]

(* \uXXXX escapes decode to UTF-8, including supplementary-plane
   characters split across a surrogate pair; the encoder re-emits raw
   UTF-8 bytes, so a decode/encode/decode cycle is stable. *)
let test_json_unicode_escapes () =
  List.iter
    (fun (src, utf8) ->
      match Json.of_string src with
      | Error e -> Alcotest.fail (src ^ ": " ^ e)
      | Ok v ->
          Alcotest.(check string) src (Json.to_string ~minify:true v) utf8;
          (match Json.of_string (Json.to_string ~minify:true v) with
          | Ok v' ->
              Alcotest.(check string)
                (src ^ " re-parses")
                (Json.to_string ~minify:true v)
                (Json.to_string ~minify:true v')
          | Error e -> Alcotest.fail (src ^ " re-parse: " ^ e)))
    [
      (* BMP: U+00E9 (é) and U+4E2D (中). *)
      ({|"caf\u00e9"|}, "\"caf\xc3\xa9\"");
      ({|"\u4e2d"|}, "\"\xe4\xb8\xad\"");
      (* Supplementary plane via surrogate pairs: U+1F680 and U+1D11E,
         surrounded by ASCII. *)
      ({|"a\ud83d\ude80b"|}, "\"a\xf0\x9f\x9a\x80b\"");
      ({|"\ud834\udd1e"|}, "\"\xf0\x9d\x84\x9e\"");
    ]

(* U+2028/U+2029 are valid JSON but illegal in JavaScript string
   literals; the emitter must escape them (and only them) among the
   printable multi-byte sequences. *)
let test_json_js_separators () =
  let s = "a\xe2\x80\xa8b\xe2\x80\xa9c\xe2\x80\xaad" in
  let text = Json.to_string ~minify:true (Json.String s) in
  Alcotest.(check string)
    "line/paragraph separators escaped, other E2 80 xx raw"
    "\"a\\u2028b\\u2029c\xe2\x80\xaad\"" text;
  (match Json.of_string text with
  | Ok (Json.String s') -> Alcotest.(check string) "round-trips" s s'
  | Ok _ -> Alcotest.fail "parsed to a non-string"
  | Error e -> Alcotest.fail e);
  (* A string ending mid-sequence must not read out of bounds. *)
  ignore (Json.to_string (Json.String "\xe2\x80"));
  ignore (Json.to_string (Json.String "\xe2"))

(* Shortest round-trip float printing: every finite double re-parses to
   the exact same bits, and the literal always stays typed as a float. *)
let prop_json_float_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"float literals round-trip exactly"
    QCheck.float (fun f ->
      (not (Float.is_finite f))
      ||
      match Json.of_string (Json.to_string ~minify:true (Json.Float f)) with
      | Ok (Json.Float g) ->
          Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)
      | Ok _ | Error _ -> false)

let test_json_float_canonical () =
  List.iter
    (fun (f, want) ->
      Alcotest.(check string)
        (Fmt.str "%h" f)
        want
        (Json.to_string ~minify:true (Json.Float f)))
    [
      (0.1, "0.1");
      (1.0, "1.0");
      (-0.0, "-0.0");
      (1e22, "1e+22");
      (* smallest denormal: 15 significant digits already round-trip *)
      (5e-324, "4.94065645841247e-324");
      (nan, "null");
      (infinity, "null");
    ]

(* ------------------------------------------------------------------ *)
(* Span nesting and scrubbing                                          *)
(* ------------------------------------------------------------------ *)

(* Phase spans are Prof nodes: three nested records make one tree. *)
let nested_span () =
  let t = Prof.create () in
  Prof.record (Some t) "outer" (fun () ->
      Prof.record (Some t) "inner" (fun () ->
          Prof.record (Some t) "leaf" (fun () -> ())));
  match Prof.roots t with
  | [ outer ] -> outer
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

type shape = Shape of string * shape list

let rec span_shape (s : Prof.node) =
  Shape (s.Prof.name, List.map span_shape s.Prof.children)

let shape name children = Shape (name, children)

let all_zero (s : Prof.node) =
  Prof.fold
    (fun ok n ->
      ok && n.Prof.wall_ns = 0 && n.Prof.alloc_bytes = 0 && n.Prof.minor = 0
      && n.Prof.major = 0)
    true s

let test_span_nesting () =
  let outer = nested_span () in
  Alcotest.(check bool)
    "children nest innermost-open" true
    (span_shape outer
    = shape "outer" [ shape "inner" [ shape "leaf" [] ] ]);
  (* A parent's time includes its children's. *)
  let inner = List.hd outer.Prof.children in
  Alcotest.(check bool) "parent >= child" true
    (outer.Prof.wall_ns >= inner.Prof.wall_ns)

(* A scrub that zeroed only the top level would leak wall clock from
   nested spans into --deterministic reports. Pinned: scrubbing is
   recursive and shape-preserving, and the scrubbed JSON is byte-stable
   across runs. *)
let test_span_scrub_nested () =
  let scrubbed = Prof.scrub (nested_span ()) in
  Alcotest.(check bool) "every nested duration zeroed" true (all_zero scrubbed);
  Alcotest.(check bool)
    "shape preserved" true
    (span_shape scrubbed
    = shape "outer" [ shape "inner" [ shape "leaf" [] ] ]);
  let again = Prof.scrub (nested_span ()) in
  Alcotest.(check string) "scrubbed JSON byte-stable"
    (Json.to_string (Prof.to_json scrubbed))
    (Json.to_string (Prof.to_json again))

(* ------------------------------------------------------------------ *)
(* Per-run counts                                                      *)
(* ------------------------------------------------------------------ *)

let test_counts_counter_gauge () =
  let counts =
    Counts.counters [ ("test.hits_total", 5) ]
    @ [ ("test.level", Counts.Gauge 2.5) ]
  in
  Alcotest.(check bool) "counters builds counter values" true
    (List.assoc_opt "test.hits_total" counts = Some (Counts.Counter 5));
  Alcotest.(check string) "each count renders with its type"
    {|{"test.hits_total":{"type":"counter","value":5},"test.level":{"type":"gauge","value":2.5}}|}
    (Json.to_string ~minify:true (Counts.to_json counts))

(* A run that decided nothing counts zero, and adds nothing to a batch. *)
let test_counts_empty_run () =
  let sched = Sink.count [] in
  Alcotest.(check int) "one counter per decision kind" 5 (List.length sched);
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " is zero") true (v = Counts.Counter 0))
    sched;
  let c = [ ("test.hits_total", Counts.Counter 3) ] in
  Alcotest.(check bool) "empty is a left identity" true (Counts.add [] c = c);
  Alcotest.(check bool) "empty is a right identity" true (Counts.add c [] = c);
  Alcotest.(check string) "no counts, empty object" "{}"
    (Json.to_string ~minify:true (Counts.to_json []));
  Alcotest.(check string) "empty histogram" "empty"
    (Fmt.str "%a" Counts.pp_histogram [])

let test_counts_add () =
  let a =
    [
      ("test.hits_total", Counts.Counter 1);
      ("test.span_cycles", Counts.Histogram [ 3.0 ]);
      ("test.level", Counts.Gauge 1.0);
    ]
  and b =
    [
      ("test.hits_total", Counts.Counter 4);
      ("test.span_cycles", Counts.Histogram [ 5.0 ]);
      ("test.level", Counts.Gauge 2.0);
      ("test.only_right_total", Counts.Counter 7);
    ]
  in
  Alcotest.(check bool) "counters sum, histograms join, the right gauge wins"
    true
    (Counts.add a b
    = [
        ("test.hits_total", Counts.Counter 5);
        ("test.span_cycles", Counts.Histogram [ 3.0; 5.0 ]);
        ("test.level", Counts.Gauge 2.0);
        ("test.only_right_total", Counts.Counter 7);
      ])

let test_counts_histogram_json () =
  let counts =
    [
      ("test.runs_total", Counts.Counter 1);
      ("test.latency_seconds", Counts.Histogram [ 0.5; 1.5; 3.0; 100.0 ]);
    ]
  in
  let json = Counts.to_json counts in
  (match Json.member "test.latency_seconds" json with
  | Some hist ->
      (match Json.member "count" hist with
      | Some (Json.Int n) -> Alcotest.(check int) "histogram count" 4 n
      | _ -> Alcotest.fail "histogram count missing");
      (match Json.member "sum" hist with
      | Some (Json.Float s) ->
          Alcotest.(check (float 1e-9)) "histogram sum" 105.0 s
      | _ -> Alcotest.fail "histogram sum missing");
      Alcotest.(check string) "log2 buckets" {|{"0":1,"1":1,"2":1,"7":1}|}
        (Json.to_string ~minify:true
           (Option.get (Json.member "buckets" hist)))
  | None -> Alcotest.fail "histogram not dumped");
  (* Deterministic dumps zero time-based counts but keep counters. *)
  let det = Counts.to_json ~deterministic:true counts in
  (match Json.member "test.latency_seconds" det with
  | Some hist -> (
      match (Json.member "count" hist, Json.member "sum" hist) with
      | Some (Json.Int 0), Some (Json.Float 0.0) -> ()
      | _ -> Alcotest.fail "_seconds count not scrubbed")
  | None -> Alcotest.fail "scrubbed histogram missing");
  (match Json.member "test.runs_total" det with
  | Some (Json.Obj fields) ->
      Alcotest.(check bool) "counters survive deterministic dumps" true
        (List.assoc_opt "value" fields = Some (Json.Int 1))
  | _ -> Alcotest.fail "counter missing from deterministic dump");
  (* Dump order is sorted by name, so reports diff stably. *)
  match json with
  | Json.Obj fields ->
      let names = List.map fst fields in
      Alcotest.(check (list string)) "sorted by name"
        (List.sort String.compare names)
        names
  | _ -> Alcotest.fail "counts dump is not an object"

(* ------------------------------------------------------------------ *)
(* Simulator stall attribution                                         *)
(* ------------------------------------------------------------------ *)

let minmax_outcome ?(trace = false) level =
  let t = Minmax.build () in
  let cfg = Cfg.deep_copy t.Minmax.cfg in
  ignore (Pipeline.run machine { Config.default with Config.level } cfg);
  Simulator.run ~trace machine cfg (Minmax.input t elements)

let test_issue_counts_sum () =
  let o = minmax_outcome Config.Speculative in
  let s = o.Simulator.telemetry in
  let issued =
    List.fold_left (fun acc u -> acc + u.Trace.issues) 0 s.Trace.units
  in
  Alcotest.(check int) "unit issues sum to instructions"
    o.Simulator.instructions issued;
  let block_instrs =
    List.fold_left (fun acc b -> acc + b.Trace.instrs) 0 s.Trace.blocks
  in
  Alcotest.(check int) "block instrs sum to instructions"
    o.Simulator.instructions block_instrs

let test_stall_identity () =
  List.iter
    (fun level ->
      let o = minmax_outcome level in
      let s = o.Simulator.telemetry in
      Alcotest.(check int)
        (Fmt.str "stall total = last issue (%a)" Config.pp_level level)
        s.Trace.last_issue (Trace.stall_total s);
      (* The per-block gap attribution covers the same cycles. *)
      let block_stalls =
        List.fold_left (fun acc b -> acc + b.Trace.stall_cycles) 0 s.Trace.blocks
      in
      Alcotest.(check int)
        (Fmt.str "block stalls = last issue (%a)" Config.pp_level level)
        s.Trace.last_issue block_stalls)
    [ Config.Local; Config.Useful; Config.Speculative ]

let test_utilization_histograms () =
  let o = minmax_outcome Config.Speculative in
  let s = o.Simulator.telemetry in
  let span = s.Trace.last_issue + 1 in
  List.iter
    (fun (u : Trace.unit_stat) ->
      let cycles =
        List.fold_left (fun acc (_, c) -> acc + c) 0 u.Trace.histogram
      in
      let issues =
        List.fold_left (fun acc (k, c) -> acc + (k * c)) 0 u.Trace.histogram
      in
      Alcotest.(check int)
        (Fmt.str "%a histogram covers the span" Instr.pp_unit_ty u.Trace.unit_)
        span cycles;
      Alcotest.(check int)
        (Fmt.str "%a histogram counts every issue" Instr.pp_unit_ty
           u.Trace.unit_)
        u.Trace.issues issues)
    s.Trace.units

let test_issue_trace_events () =
  let o = minmax_outcome ~trace:true Config.Speculative in
  let s = o.Simulator.telemetry in
  Alcotest.(check int) "one event per dynamic instruction"
    o.Simulator.instructions
    (List.length s.Trace.events);
  let gaps =
    List.fold_left (fun acc e -> acc + e.Trace.gap) 0 s.Trace.events
  in
  Alcotest.(check int) "gaps telescope to the issue span" s.Trace.last_issue
    gaps;
  ignore
    (List.fold_left
       (fun prev (e : Trace.event) ->
         Alcotest.(check bool) "issue cycles are non-decreasing" true
           (e.Trace.cycle >= prev);
         e.Trace.cycle)
       0 s.Trace.events);
  (* Without tracing the event list stays empty. *)
  let o' = minmax_outcome Config.Speculative in
  Alcotest.(check int) "no events without tracing" 0
    (List.length o'.Simulator.telemetry.Trace.events)

let test_telemetry_json_parses () =
  let o = minmax_outcome ~trace:true Config.Speculative in
  let text = Json.to_string (Trace.to_json o.Simulator.telemetry) in
  match Json.of_string text with
  | Error e -> Alcotest.fail e
  | Ok v -> (
      match Json.member "stalls" v with
      | Some stalls -> (
          match Json.member "total" stalls with
          | Some (Json.Int total) ->
              Alcotest.(check int) "serialized stall total"
                o.Simulator.telemetry.Trace.last_issue total
          | _ -> Alcotest.fail "stalls.total missing")
      | None -> Alcotest.fail "stalls object missing")

(* ------------------------------------------------------------------ *)
(* Scheduler decision trace                                            *)
(* ------------------------------------------------------------------ *)

let traced_pipeline level =
  let t = Minmax.build () in
  let cfg = Cfg.deep_copy t.Minmax.cfg in
  let sink, events = Sink.memory () in
  let config = { Config.default with Config.level; obs = sink } in
  let stats = Pipeline.run machine config cfg in
  (stats, events ())

let test_decision_trace_replays_moves () =
  List.iter
    (fun level ->
      let stats, events = traced_pipeline level in
      let expected =
        List.map
          (fun (m : Global_sched.move) ->
            ( m.Global_sched.uid,
              m.Global_sched.from_label,
              m.Global_sched.to_label,
              m.Global_sched.speculative ))
          (Pipeline.moves stats)
      in
      let traced =
        List.filter_map
          (function
            | Sink.Moved_useful { uid; from_block; to_block; _ } ->
                Some (uid, from_block, to_block, false)
            | Sink.Moved_speculative { uid; from_block; to_block; _ } ->
                Some (uid, from_block, to_block, true)
            | _ -> None)
          events
      in
      let move4 =
        Alcotest.testable
          (fun ppf (uid, from_l, to_l, spec) ->
            Fmt.pf ppf "%d:%s->%s%s" uid from_l to_l
              (if spec then " (spec)" else ""))
          ( = )
      in
      Alcotest.(check (list move4))
        (Fmt.str "trace replays moves (%a)" Config.pp_level level)
        expected traced)
    [ Config.Useful; Config.Speculative ]

let test_decision_trace_considers_and_blocks () =
  let _, events = traced_pipeline Config.Speculative in
  let considered =
    List.exists (function Sink.Candidate_considered _ -> true | _ -> false)
      events
  in
  let scheduled =
    List.exists (function Sink.Block_scheduled _ -> true | _ -> false) events
  in
  Alcotest.(check bool) "candidates were considered" true considered;
  Alcotest.(check bool) "local pass reported blocks" true scheduled;
  (* Every event serializes. *)
  List.iter
    (fun e ->
      match Json.of_string (Json.to_string (Sink.event_to_json e)) with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m)
    events

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)
(* ------------------------------------------------------------------ *)

(* A small fixed diamond (slow divide, two arms, join) built directly,
   so uids, labels and therefore the whole trace are deterministic —
   golden-file testable. *)
let diamond_outcome () =
  let module B = Builder in
  let g = Reg.Gen.create () in
  let p = Reg.Gen.reserve g Reg.Gpr 1 in
  let q = Reg.Gen.reserve g Reg.Gpr 2 in
  let m = Reg.Gen.fresh g Reg.Gpr in
  let c = Reg.Gen.fresh g Reg.Cr in
  let a1 = Reg.Gen.fresh g Reg.Gpr in
  let t = Reg.Gen.fresh g Reg.Gpr in
  let u = Reg.Gen.fresh g Reg.Gpr in
  let cfg =
    B.func ~reg_gen:g
      [
        ( "E",
          [ B.binop Instr.Div ~dst:m ~lhs:p ~rhs:(Instr.Imm 3);
            B.cmpi ~dst:c ~lhs:p 0 ],
          B.bt ~cr:c ~cond:Instr.Gt ~taken:"L" ~fallthru:"R" );
        ("L", [ B.addi ~dst:a1 ~lhs:p 1 ], B.jmp "J");
        ("R", [ B.addi ~dst:a1 ~lhs:q 2 ], B.jmp "J");
        ( "J",
          [ B.add ~dst:t ~lhs:m ~rhs:q; B.add ~dst:u ~lhs:t ~rhs:a1;
            B.call "print_int" [ u ] ],
          Instr.Halt );
      ]
  in
  let input =
    { Simulator.no_input with Simulator.int_regs = [ (p, 41); (q, 7) ] }
  in
  Simulator.run ~trace:true machine cfg input

(* Golden file: regenerate with
     dune exec test/regen_chrome_golden.exe > test/golden_chrome_trace.json
   after an intentional trace format change, and eyeball the diff. *)
let test_chrome_trace_golden () =
  let o = diamond_outcome () in
  let text =
    Chrome_trace.to_string ~process_name:"diamond" o.Simulator.telemetry
  in
  let golden =
    (* dune runtest runs in _build/default/test (where the dep is
       staged); dune exec runs from the project root. *)
    let path =
      if Sys.file_exists "golden_chrome_trace.json" then
        "golden_chrome_trace.json"
      else "test/golden_chrome_trace.json"
    in
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  Alcotest.(check string) "trace matches the committed golden file"
    (String.trim golden) (String.trim text)

let test_chrome_trace_schema () =
  let o = minmax_outcome ~trace:true Config.Speculative in
  let json = Chrome_trace.to_json o.Simulator.telemetry in
  (* Emitted text re-parses (well-formed JSON). *)
  (match Json.of_string (Json.to_string json) with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Json.member "displayTimeUnit" json with
  | Some (Json.String _) -> ()
  | _ -> Alcotest.fail "displayTimeUnit missing");
  let events = Json.to_list (Option.get (Json.member "traceEvents" json)) in
  let phase e =
    match Json.member "ph" e with Some (Json.String p) -> p | _ -> "?"
  in
  let int_field k e =
    match Json.member k e with Some (Json.Int n) -> Some n | _ -> None
  in
  List.iter
    (fun e ->
      (* Every event carries pid/tid; slices also ts and dur >= 1. *)
      Alcotest.(check bool) "pid present" true (int_field "pid" e <> None);
      Alcotest.(check bool) "tid present" true (int_field "tid" e <> None);
      match phase e with
      | "X" ->
          Alcotest.(check bool) "slice has ts" true (int_field "ts" e <> None);
          Alcotest.(check bool) "slice dur >= 1" true
            (match int_field "dur" e with Some d -> d >= 1 | None -> false)
      | "i" | "M" -> ()
      | p -> Alcotest.fail ("unexpected event phase " ^ p))
    events;
  let slices = List.filter (fun e -> phase e = "X") events in
  Alcotest.(check int) "one slice per dynamic instruction"
    o.Simulator.instructions (List.length slices);
  (* Three unit tracks + process name = 4 metadata events. *)
  Alcotest.(check int) "metadata events" 4
    (List.length (List.filter (fun e -> phase e = "M") events))

(* ------------------------------------------------------------------ *)
(* Regression gate                                                     *)
(* ------------------------------------------------------------------ *)

let report cycles nested =
  Json.Obj
    [
      ("label", Json.String "x");
      ("timing_seconds", Json.Float 9.9);
      ( "table",
        Json.List
          [
            Json.Obj
              [
                ("program", Json.String "p");
                ("base_cycles", Json.Int cycles);
                ( "cycles",
                  Json.Obj [ ("minmax", Json.Int nested) ] );
              ];
          ] );
    ]

let test_regress_self_ok () =
  let r = report 1000 200 in
  let o = Regress.check ~baseline:r ~current:r () in
  Alcotest.(check bool) "self-comparison is ok" true (Regress.ok o);
  Alcotest.(check int) "both cycle metrics compared" 2 o.Regress.compared;
  Alcotest.(check int) "no regressions" 0 (List.length o.Regress.regressions)

let test_regress_detects () =
  (* +5% on a cycle metric fails; +5% on a timing float does not. *)
  let o =
    Regress.check ~baseline:(report 1000 200) ~current:(report 1050 200) ()
  in
  Alcotest.(check bool) "5% regression fails the gate" false (Regress.ok o);
  (match o.Regress.regressions with
  | [ f ] ->
      Alcotest.(check string) "path names the metric"
        "table[0].base_cycles" f.Regress.path;
      Alcotest.(check (float 1e-9)) "ratio" 1.05 (Regress.ratio f)
  | _ -> Alcotest.fail "expected exactly one regression");
  (* Within tolerance passes. *)
  let o =
    Regress.check ~baseline:(report 1000 200) ~current:(report 1010 200) ()
  in
  Alcotest.(check bool) "1% is within the 2% tolerance" true (Regress.ok o);
  (* Improvements are reported but do not fail. *)
  let o =
    Regress.check ~baseline:(report 1000 200) ~current:(report 900 200) ()
  in
  Alcotest.(check bool) "improvement is ok" true (Regress.ok o);
  Alcotest.(check int) "improvement recorded" 1
    (List.length o.Regress.improvements)

let test_regress_nested_and_missing () =
  (* Numeric leaves under a "cycles" object count as cycle metrics. *)
  let o =
    Regress.check ~baseline:(report 1000 200) ~current:(report 1000 300) ()
  in
  Alcotest.(check bool) "nested cycles table gated" false (Regress.ok o);
  (* A cycle-bearing subtree missing from the current report fails;
     a missing non-cycle field is ignored. *)
  let chopped =
    Json.Obj [ ("label", Json.String "x"); ("timing_seconds", Json.Float 0.0) ]
  in
  let o = Regress.check ~baseline:(report 1000 200) ~current:chopped () in
  Alcotest.(check bool) "missing cycle metrics fail" false (Regress.ok o);
  Alcotest.(check bool) "missing paths recorded" true (o.Regress.missing <> []);
  let o = Regress.check ~baseline:chopped ~current:(report 1000 200) () in
  Alcotest.(check bool) "extra current-only fields are fine" true
    (Regress.ok o)

let () =
  Alcotest.run "gis_obs"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parser accepts" `Quick test_json_parser_accepts;
          Alcotest.test_case "parser rejects" `Quick test_json_parser_rejects;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "js separators" `Quick test_json_js_separators;
          Alcotest.test_case "float canonical" `Quick test_json_float_canonical;
          QCheck_alcotest.to_alcotest prop_json_float_roundtrip;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "recursive scrub" `Quick test_span_scrub_nested;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter and gauge" `Quick
            test_counts_counter_gauge;
          Alcotest.test_case "empty run" `Quick test_counts_empty_run;
          Alcotest.test_case "histogram json" `Quick test_counts_histogram_json;
          Alcotest.test_case "add" `Quick test_counts_add;
        ] );
      ( "chrome trace",
        [
          Alcotest.test_case "golden file" `Quick test_chrome_trace_golden;
          Alcotest.test_case "schema" `Quick test_chrome_trace_schema;
        ] );
      ( "regression gate",
        [
          Alcotest.test_case "self ok" `Quick test_regress_self_ok;
          Alcotest.test_case "detects regressions" `Quick test_regress_detects;
          Alcotest.test_case "nested and missing" `Quick
            test_regress_nested_and_missing;
        ] );
      ( "stall attribution",
        [
          Alcotest.test_case "issue counts" `Quick test_issue_counts_sum;
          Alcotest.test_case "accounting identity" `Quick test_stall_identity;
          Alcotest.test_case "utilization histograms" `Quick
            test_utilization_histograms;
          Alcotest.test_case "issue trace" `Quick test_issue_trace_events;
          Alcotest.test_case "telemetry json" `Quick test_telemetry_json_parses;
        ] );
      ( "decision trace",
        [
          Alcotest.test_case "replays moves" `Quick
            test_decision_trace_replays_moves;
          Alcotest.test_case "considers and blocks" `Quick
            test_decision_trace_considers_and_blocks;
        ] );
    ]
