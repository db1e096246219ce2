(* Self-profiling layer: the profiler's exact accounting identity (unit
   and property tests), flight-recorder ring semantics, the metrics
   snapshot API, the regression gate's zero/NaN/allocation handling,
   the bench harness's argument checks, and the pinned guarantee that a
   detached profiler leaves schedules byte-identical. *)

open Gis_ir
open Gis_machine
open Gis_core
open Gis_frontend
open Gis_workloads
open Gis_obs

let machine = Machine.rs6k

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Prof                                                                *)
(* ------------------------------------------------------------------ *)

(* A little deterministic work so every node has a non-zero footprint. *)
let churn n =
  let acc = ref [] in
  for i = 1 to n do
    acc := string_of_int i :: !acc
  done;
  List.length !acc

let test_prof_none_passthrough () =
  let r = Prof.record None "nothing" (fun () -> 41 + 1) in
  Alcotest.(check int) "value" 42 r

let test_prof_shape_and_identity () =
  let t = Prof.create () in
  let v =
    Prof.record (Some t) "root" (fun () ->
        ignore (Prof.record (Some t) "a" (fun () -> churn 500));
        ignore
          (Prof.record (Some t) "b" (fun () ->
               ignore (Prof.record (Some t) "b1" (fun () -> churn 200));
               churn 100));
        7)
  in
  Alcotest.(check int) "value" 7 v;
  match Prof.roots t with
  | [ root ] ->
      Alcotest.(check string) "root name" "root" root.Prof.name;
      Alcotest.(check (list string))
        "children in completion order" [ "a"; "b" ]
        (List.map (fun (n : Prof.node) -> n.Prof.name) root.Prof.children);
      Alcotest.(check int) "node count" 4 (Prof.node_count root);
      Alcotest.(check bool) "identity" true (Prof.identity_ok root);
      Alcotest.(check bool)
        "self alloc non-negative" true
        (Prof.fold
           (fun acc n -> acc && Prof.self_alloc_bytes n >= 0)
           true root);
      (* The children really allocated: the root's total covers them. *)
      let b = List.nth root.Prof.children 1 in
      Alcotest.(check bool) "b allocated" true (b.Prof.alloc_bytes > 0);
      Alcotest.(check bool)
        "parent total covers child"
        true
        (root.Prof.alloc_bytes >= b.Prof.alloc_bytes)
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_prof_exception_still_records () =
  let t = Prof.create () in
  (try
     Prof.record (Some t) "outer" (fun () ->
         ignore (Prof.record (Some t) "inner" (fun () -> churn 50));
         failwith "boom")
   with Failure _ -> ());
  match Prof.roots t with
  | [ root ] ->
      Alcotest.(check string) "crashed node recorded" "outer" root.Prof.name;
      Alcotest.(check int) "inner survived" 1 (List.length root.Prof.children);
      Alcotest.(check bool) "identity" true (Prof.identity_ok root)
  | _ -> Alcotest.fail "expected exactly one root"

let test_prof_scrub_and_json () =
  let t = Prof.create () in
  ignore
    (Prof.record (Some t) "p" (fun () ->
         Prof.record (Some t) "c" (fun () -> churn 300)));
  let root = List.hd (Prof.roots t) in
  let s = Prof.scrub root in
  Alcotest.(check bool)
    "scrub zeroes everything" true
    (Prof.fold
       (fun acc n ->
         acc && n.Prof.wall_ns = 0 && n.Prof.alloc_bytes = 0
         && n.Prof.minor = 0 && n.Prof.major = 0)
       true s);
  Alcotest.(check string) "scrub keeps names" "p" s.Prof.name;
  Alcotest.(check int) "scrub keeps shape" 2 (Prof.node_count s);
  (* The JSON export parses back and is stable for scrubbed trees. *)
  let json = Json.to_string (Prof.to_json s) in
  match Json.of_string json with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check string) "json round-trip" json (Json.to_string v)

let test_prof_folded () =
  let t = Prof.create () in
  ignore
    (Prof.record (Some t) "p" (fun () ->
         Prof.record (Some t) "c" (fun () -> churn 100)));
  let root = List.hd (Prof.roots t) in
  let lines = Prof.folded root in
  Alcotest.(check int) "one line per node" 2 (List.length lines);
  Alcotest.(check bool)
    "stack paths" true
    (List.exists (fun l -> String.length l > 4 && String.sub l 0 4 = "p;c ")
       lines);
  (* Folded self values sum back to the root total — the flamegraph is
     the identity drawn as rectangles. *)
  let sum =
    List.fold_left
      (fun acc l ->
        match String.rindex_opt l ' ' with
        | None -> acc
        | Some i ->
            acc
            + int_of_string (String.sub l (i + 1) (String.length l - i - 1)))
      0
      (Prof.folded ~metric:`Alloc root)
  in
  Alcotest.(check int) "alloc folded sums to total" root.Prof.alloc_bytes sum

(* The pipeline's own tree: one "pipeline" root, the five standard
   phases as children, identity intact. *)
let test_prof_pipeline_tree () =
  let compiled = Codegen.compile_string Minmax.source in
  let prof = Prof.create () in
  let config = { Config.speculative with Config.prof = Some prof } in
  let cfg = Cfg.deep_copy compiled.Codegen.cfg in
  ignore (Pipeline.run machine config cfg);
  match Prof.roots prof with
  | [ root ] ->
      Alcotest.(check string) "root" "pipeline" root.Prof.name;
      let child_names =
        List.map (fun (n : Prof.node) -> n.Prof.name) root.Prof.children
      in
      List.iter
        (fun p ->
          Alcotest.(check bool) (p ^ " present") true (List.mem p child_names))
        Pipeline.phase_names;
      Alcotest.(check bool) "identity" true (Prof.identity_ok root);
      (* Scheduled regions show up as grandchildren of the global passes. *)
      let region_nodes =
        Prof.fold
          (fun acc (n : Prof.node) ->
            if String.length n.Prof.name >= 7
               && String.sub n.Prof.name 0 7 = "region-"
            then acc + 1
            else acc)
          0 root
      in
      Alcotest.(check bool) "regions recorded" true (region_nodes > 0)
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

(* The pipeline's phases in the profile: the five standard phases in
   [Pipeline.phase_names] order at BASE (where four of them only decide
   to skip) and at the speculative level, no negative time anywhere,
   and the phases summing to no more than the whole run. *)
let test_prof_phase_order () =
  let compiled = Codegen.compile_string Minmax.source in
  List.iter
    (fun (label, config) ->
      let prof = Prof.create () in
      let cfg = Cfg.deep_copy compiled.Codegen.cfg in
      ignore (Pipeline.run machine { config with Config.prof = Some prof } cfg);
      match Prof.roots prof with
      | [ root ] ->
          Alcotest.(check (list string))
            (label ^ ": the five pipeline phases, in order")
            Pipeline.phase_names
            (List.map (fun (n : Prof.node) -> n.Prof.name) root.Prof.children);
          Alcotest.(check bool)
            (label ^ ": no negative time") true
            (Prof.fold
               (fun ok n -> ok && n.Prof.wall_ns >= 0 && Prof.self_wall_ns n >= 0)
               true root);
          Alcotest.(check bool)
            (label ^ ": children sum within the root") true
            (List.fold_left
               (fun acc (n : Prof.node) -> acc + n.Prof.wall_ns)
               0 root.Prof.children
            <= root.Prof.wall_ns);
          Alcotest.(check bool)
            (label ^ ": identity") true (Prof.identity_ok root)
      | roots -> Alcotest.failf "expected one root, got %d" (List.length roots))
    [ ("base", Config.base); ("speculative", Config.speculative) ]

(* `gisc --stats` attaches the profiler, and its report's "profile"
   object is the only place phase times appear: it must list every
   pipeline phase and satisfy the accounting identity. The JSON carries
   seconds, so each node is rebuilt with wall clock back in integer
   nanoseconds (exact at these magnitudes) for [Prof.identity_ok]. *)
let test_gisc_stats_profile () =
  let out = Filename.temp_file "gisc_stats" ".json" in
  let cmd =
    Filename.quote_command ~stdout:Filename.null
      Filename.(concat (dirname Sys.executable_name) "../bin/gisc.exe")
      [ "--workload"; "minmax"; "--simulate"; "--stats"; out ]
  in
  Alcotest.(check int) "gisc exits 0" 0 (Sys.command cmd);
  let text = In_channel.with_open_bin out In_channel.input_all in
  Sys.remove out;
  let field name j =
    match Json.member name j with
    | Some v -> v
    | None -> Alcotest.failf "profile node lacks %S" name
  in
  let int name j =
    match field name j with
    | Json.Int n -> n
    | _ -> Alcotest.failf "%S is not an integer" name
  in
  let rec node j =
    {
      Prof.name =
        (match field "name" j with
        | Json.String s -> s
        | _ -> Alcotest.fail "name is not a string");
      wall_ns =
        (match field "wall_seconds" j with
        | Json.Float f -> int_of_float (Float.round (f *. 1e9))
        | Json.Int n -> n * 1_000_000_000
        | _ -> Alcotest.fail "wall_seconds is not a number");
      alloc_bytes = int "alloc_bytes" j;
      minor = int "minor_collections" j;
      major = int "major_collections" j;
      children =
        List.map node
          (Option.fold ~none:[] ~some:Json.to_list (Json.member "children" j));
    }
  in
  match Json.of_string text with
  | Error e -> Alcotest.fail e
  | Ok report ->
      let root = node (field "profile" report) in
      Alcotest.(check string) "root" "pipeline" root.Prof.name;
      Alcotest.(check (list string))
        "every phase listed" Pipeline.phase_names
        (List.map (fun (n : Prof.node) -> n.Prof.name) root.Prof.children);
      Alcotest.(check bool) "identity" true (Prof.identity_ok root)

(* Pinned: a detached profiler must not perturb the schedule at all. *)
let test_prof_none_schedule_identical () =
  List.iter
    (fun (name, src) ->
      (* Fresh-label streams are task state, not profiler state: pin
         them per run the way the batch driver does. *)
      let compile () =
        Label.reset_fresh_counter ();
        Codegen.compile_string src
      in
      let plain = Cfg.deep_copy (compile ()).Codegen.cfg in
      ignore (Pipeline.run machine Config.speculative plain);
      let profiled = Cfg.deep_copy (compile ()).Codegen.cfg in
      let config =
        { Config.speculative with Config.prof = Some (Prof.create ()) }
      in
      ignore (Pipeline.run machine config profiled);
      Alcotest.(check string)
        (name ^ ": schedule byte-identical with profiler on")
        (Fmt.str "%a" Cfg.pp plain)
        (Fmt.str "%a" Cfg.pp profiled))
    (("minmax", Minmax.source)
    :: List.map
         (fun (p : Spec_proxy.t) -> (p.Spec_proxy.name, p.Spec_proxy.source))
         Spec_proxy.all)

(* Property: the accounting identity holds over random programs at
   every scheduling level, and every monotonic counter's self value is
   non-negative. *)
let prop_identity config seed =
  let compiled = Random_prog.generate_compiled ~seed in
  let prof = Prof.create () in
  let config = { config with Config.prof = Some prof } in
  let cfg = Cfg.deep_copy compiled.Codegen.cfg in
  ignore (Pipeline.run machine config cfg);
  List.for_all
    (fun root ->
      Prof.identity_ok root
      && Prof.fold
           (fun acc n ->
             acc
             && Prof.self_alloc_bytes n >= 0
             && Prof.self_minor n >= 0
             && Prof.self_major n >= 0)
           true root)
    (Prof.roots prof)

let qtest name prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:25 QCheck.(int_range 1 1_000_000) prop)

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let test_flight_ring () =
  Flight.clear ();
  Alcotest.(check int) "empty after clear" 0 (List.length (Flight.dump_messages ()));
  Flight.note "one";
  Flight.notef "two %d" 2;
  Alcotest.(check (list string))
    "order oldest first" [ "one"; "two 2" ] (Flight.dump_messages ());
  (* Overflow: only the newest [capacity] survive, still in order. *)
  Flight.clear ();
  for i = 1 to Flight.capacity + 10 do
    Flight.notef "n%d" i
  done;
  Alcotest.(check int) "recorded counts all" (Flight.capacity + 10)
    (Flight.recorded ());
  let msgs = Flight.dump_messages () in
  Alcotest.(check int) "ring keeps capacity" Flight.capacity
    (List.length msgs);
  Alcotest.(check string) "oldest surviving" "n11" (List.hd msgs);
  Alcotest.(check string)
    "newest last"
    (Fmt.str "n%d" (Flight.capacity + 10))
    (List.nth msgs (Flight.capacity - 1));
  Flight.clear ()

(* Ring capacity is configurable per explicit ring (and per process
   via gisc --flight-cap), but the default stays pinned at 64. *)
let test_flight_capacity () =
  Alcotest.(check int) "default capacity pinned" 64 Flight.capacity;
  Alcotest.(check int) "per-domain default unchanged" 64
    (Flight.get_default_capacity ());
  Alcotest.(check int) "create () uses the default" 64
    (Flight.capacity_of (Flight.create ()));
  let r = Flight.create ~capacity:3 () in
  Alcotest.(check int) "explicit capacity" 3 (Flight.capacity_of r);
  for i = 1 to 5 do
    Flight.notef_to r "n%d" i
  done;
  Alcotest.(check int) "recorded counts all" 5 (Flight.recorded_of r);
  Alcotest.(check (list string))
    "ring keeps newest 3" [ "n3"; "n4"; "n5" ]
    (Flight.dump_of r);
  Flight.clear_of r;
  Alcotest.(check int) "clear empties" 0 (List.length (Flight.dump_of r));
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Flight.create: capacity must be >= 1") (fun () ->
      ignore (Flight.create ~capacity:0 ()))

let test_flight_domain_isolation () =
  Flight.clear ();
  Flight.note "main-domain";
  let other =
    Domain.spawn (fun () ->
        Flight.note "worker-domain";
        Flight.dump_messages ())
  in
  let worker_msgs = Domain.join other in
  Alcotest.(check (list string))
    "worker sees only its own" [ "worker-domain" ] worker_msgs;
  Alcotest.(check (list string))
    "main unaffected" [ "main-domain" ] (Flight.dump_messages ());
  Flight.clear ()

let test_flight_sink () =
  Flight.clear ();
  let sink = Flight.sink () in
  sink.Sink.emit (Sink.Block_scheduled { block = "BL1"; cycles = 3 });
  Alcotest.(check int) "event mirrored" 1 (List.length (Flight.dump_messages ()));
  Flight.clear ()

(* ------------------------------------------------------------------ *)
(* Per-run counts: scrubbed suffixes                                   *)
(* ------------------------------------------------------------------ *)

let test_metrics_scrub_suffixes () =
  let dump =
    Json.to_string
      (Counts.to_json ~deterministic:true
         [
           ("ztest.thing_bytes", Counts.Gauge 4096.0);
           ("ztest.thing_us", Counts.Gauge 17.0);
           ("ztest.thing_count", Counts.Gauge 9.0);
         ])
  in
  let field name =
    match Json.of_string dump with
    | Ok (Json.Obj fields) -> (
        match List.assoc_opt name fields with
        | Some (Json.Obj kv) -> List.assoc_opt "value" kv
        | _ -> None)
    | _ -> None
  in
  Alcotest.(check bool) "bytes scrubbed" true
    (field "ztest.thing_bytes" = Some (Json.Float 0.0));
  Alcotest.(check bool) "us scrubbed" true
    (field "ztest.thing_us" = Some (Json.Float 0.0));
  Alcotest.(check bool) "plain gauge kept" true
    (field "ztest.thing_count" = Some (Json.Float 9.0))

(* ------------------------------------------------------------------ *)
(* Regression gate: zero, NaN, allocation                              *)
(* ------------------------------------------------------------------ *)

let outcome ?tolerance ?alloc_tolerance ?alloc_floor_bytes b c =
  Regress.check ?tolerance ?alloc_tolerance ?alloc_floor_bytes ~baseline:b
    ~current:c ()

let test_regress_zero_baseline () =
  let b = Json.Obj [ ("x_cycles", Json.Int 0) ] in
  (* Any growth over a zero baseline fails absolutely — a ratio would
     be infinite and a tolerance meaningless. *)
  let o = outcome b (Json.Obj [ ("x_cycles", Json.Int 1) ]) in
  Alcotest.(check int) "one regression" 1 (List.length o.Regress.regressions);
  let msg = Fmt.str "%a" Regress.pp o in
  Alcotest.(check bool) "message reports absolute delta" true
    (contains ~needle:"absolute" msg);
  let o0 = outcome b (Json.Obj [ ("x_cycles", Json.Int 0) ]) in
  Alcotest.(check bool) "zero vs zero ok" true (Regress.ok o0)

let test_regress_nan_invalid () =
  let b = Json.Obj [ ("x_cycles", Json.Float Float.nan) ] in
  let c = Json.Obj [ ("x_cycles", Json.Int 5) ] in
  let o = outcome b c in
  Alcotest.(check int) "nan flagged invalid" 1 (List.length o.Regress.invalid);
  Alcotest.(check bool) "nan fails the gate" false (Regress.ok o);
  (* The other side too: a NaN current must not silently pass. *)
  let o2 = outcome c b in
  Alcotest.(check bool) "nan current fails" false (Regress.ok o2)

let test_regress_alloc_tolerance_and_floor () =
  let b v = Json.Obj [ ("p_bytes", Json.Int v) ] in
  (* +100% but only 1 KiB absolute: under the floor, passes. *)
  let o1 = outcome (b 1024) (b 2048) in
  Alcotest.(check bool) "tiny phase passes on floor" true (Regress.ok o1);
  (* +100% and 1 MiB absolute: both exceeded, fails as Alloc. *)
  let o2 = outcome (b 1_048_576) (b 2_097_152) in
  Alcotest.(check bool) "big growth fails" false (Regress.ok o2);
  (match o2.Regress.regressions with
  | [ f ] -> Alcotest.(check bool) "kind alloc" true (f.Regress.kind = Regress.Alloc)
  | _ -> Alcotest.fail "expected one alloc regression");
  (* +4% cycles still gates at the tight cycle tolerance. *)
  let bc v = Json.Obj [ ("x_cycles", Json.Int v) ] in
  let o3 = outcome (bc 1000) (bc 1040) in
  Alcotest.(check bool) "cycles keep 2% tolerance" false (Regress.ok o3);
  (* Large alloc growth within ratio tolerance passes: 10 MiB + 30%. *)
  let o4 = outcome (b 10_485_760) (b 13_631_488) in
  Alcotest.(check bool) "alloc within 50% ratio passes" true (Regress.ok o4)

(* ------------------------------------------------------------------ *)
(* Bench harness arguments                                             *)
(* ------------------------------------------------------------------ *)

(* A bad flag combination or an unreadable baseline must exit 2 before
   the first table runs: nothing on stdout carries a table header. A
   two-character --json name is a file, not a usage error, so the
   failure reported is the missing --baseline. *)
let test_bench_bad_args () =
  let run args =
    let out = Filename.temp_file "bench_out" ".txt" in
    let err = Filename.temp_file "bench_err" ".txt" in
    let code =
      Sys.command
        (Filename.quote_command ~stdout:out ~stderr:err
           Filename.(concat (dirname Sys.executable_name) "../bench/main.exe")
           args)
    in
    let read f =
      let s = In_channel.with_open_bin f In_channel.input_all in
      Sys.remove f;
      s
    in
    (code, read out, read err)
  in
  List.iter
    (fun (args, needle) ->
      let label = String.concat " " args in
      let code, stdout, stderr = run args in
      Alcotest.(check int) (label ^ ": exit 2") 2 code;
      Alcotest.(check bool)
        (label ^ ": no table ran") false
        (contains ~needle:"===" stdout);
      Alcotest.(check bool)
        (label ^ ": says why") true
        (contains ~needle stderr))
    [
      ([ "--check" ], "--check needs --baseline");
      ([ "--baseline"; "/nonexistent"; "--check" ], "cannot read baseline");
      ([ "--json"; "ab"; "--check" ], "--check needs --baseline");
    ]

(* ------------------------------------------------------------------ *)
(* Driver integration: flight dumps and deterministic reports          *)
(* ------------------------------------------------------------------ *)

let test_driver_flight_on_failure () =
  let module D = Gis_driver.Driver in
  let tasks =
    [
      { D.name = "good"; source = D.Tiny_c Minmax.source };
      { D.name = "bad"; source = D.Tiny_c "int x; x = ;" };
    ]
  in
  let report = D.run ~simulate:false machine Config.speculative tasks in
  let result name =
    List.find (fun (r : D.task_result) -> String.equal r.D.task name)
      report.D.results
  in
  let good = result "good" and bad = result "bad" in
  Alcotest.(check bool) "good has no flight dump" true (good.D.flight = []);
  Alcotest.(check bool) "good succeeded" true (Result.is_ok good.D.outcome);
  Alcotest.(check bool) "bad failed" true (Result.is_error bad.D.outcome);
  Alcotest.(check bool) "bad carries flight dump" true (bad.D.flight <> []);
  Alcotest.(check bool) "dump names the task" true
    (List.exists (contains ~needle:"task bad") bad.D.flight);
  (* Deterministic reports drop the dumps (wall-clock prose would break
     byte-identity across runs); non-deterministic ones keep them. *)
  let det = Json.to_string (D.report_to_json ~deterministic:true report) in
  let raw = Json.to_string (D.report_to_json report) in
  Alcotest.(check bool) "deterministic report has no flight" false
    (contains ~needle:"\"flight\"" det);
  Alcotest.(check bool) "raw report keeps flight" true
    (contains ~needle:"\"flight\"" raw)

let () =
  Alcotest.run "prof"
    [
      ( "profiler",
        [
          Alcotest.test_case "None is passthrough" `Quick
            test_prof_none_passthrough;
          Alcotest.test_case "shape and identity" `Quick
            test_prof_shape_and_identity;
          Alcotest.test_case "exception still records" `Quick
            test_prof_exception_still_records;
          Alcotest.test_case "scrub and json" `Quick test_prof_scrub_and_json;
          Alcotest.test_case "folded stacks" `Quick test_prof_folded;
          Alcotest.test_case "pipeline tree" `Quick test_prof_pipeline_tree;
          Alcotest.test_case "phases in order" `Quick test_prof_phase_order;
          Alcotest.test_case "gisc --stats profile" `Quick
            test_gisc_stats_profile;
          Alcotest.test_case "detached profiler pins schedule" `Quick
            test_prof_none_schedule_identical;
          qtest "identity holds: local" (prop_identity Config.base);
          qtest "identity holds: useful" (prop_identity Config.useful_only);
          qtest "identity holds: speculative" (prop_identity Config.speculative);
        ] );
      ( "flight recorder",
        [
          Alcotest.test_case "ring order and wrap" `Quick test_flight_ring;
          Alcotest.test_case "configurable capacity, pinned default" `Quick
            test_flight_capacity;
          Alcotest.test_case "domain isolation" `Quick
            test_flight_domain_isolation;
          Alcotest.test_case "sink mirrors events" `Quick test_flight_sink;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "scrub suffixes" `Quick
            test_metrics_scrub_suffixes;
        ] );
      ( "regression gate",
        [
          Alcotest.test_case "zero baseline" `Quick test_regress_zero_baseline;
          Alcotest.test_case "NaN is invalid" `Quick test_regress_nan_invalid;
          Alcotest.test_case "alloc tolerance and floor" `Quick
            test_regress_alloc_tolerance_and_floor;
        ] );
      ( "bench harness",
        [
          Alcotest.test_case "bad arguments exit 2 before any table" `Quick
            test_bench_bad_args;
        ] );
      ( "driver",
        [
          Alcotest.test_case "flight dump on failure" `Quick
            test_driver_flight_on_failure;
        ] );
    ]
