open Gis_frontend
open Gis_machine
open Gis_sim

let machine = Machine.rs6k

let run_source ?(int_regs = []) ?(memory = []) src =
  let compiled = Codegen.compile_string src in
  let input = { Simulator.no_input with Simulator.int_regs; memory } in
  (compiled, Simulator.run machine compiled.Codegen.cfg input)

let outputs o = o.Simulator.output

(* ---- lexer ---- *)

let test_lexer_tokens () =
  let toks = List.map fst (Lexer.tokenize "x = (a[3] << 2) != 7; // hi") in
  Alcotest.(check int) "token count incl eof" 14 (List.length toks);
  Alcotest.(check bool) "shift lexed" true (List.mem Lexer.SHL toks);
  Alcotest.(check bool) "neq lexed" true (List.mem Lexer.NEQ toks)

let test_lexer_comments_and_lines () =
  let toks = Lexer.tokenize "a /* multi\nline */ b\n// tail\nc" in
  let idents = List.filter_map (function Lexer.IDENT s, l -> Some (s, l) | _ -> None) toks in
  Alcotest.(check (list (pair string int))) "lines tracked"
    [ ("a", 1); ("b", 2); ("c", 4) ] idents

let test_lexer_error () =
  Alcotest.(check bool) "bad char" true
    (match Lexer.tokenize "a $ b" with
    | exception Lexer.Error _ -> true
    | _ -> false)

(* A literal past [max_int] is a lexer error, not an [int_of_string]
   failure escaping as an internal error. *)
let test_lexer_int_overflow () =
  Alcotest.(check bool) "max_int lexed" true
    (List.mem (Lexer.INT max_int) (List.map fst (Lexer.tokenize (string_of_int max_int))));
  Alcotest.(check (option string)) "out of range"
    (Some "line 2 (offset 11): integer literal out of range")
    (match Lexer.tokenize "int x;\nx = 99999999999999999999999999;" with
    | exception Lexer.Error m -> Some m
    | _ -> None)

(* ---- parser ---- *)

let test_parser_shapes () =
  let p =
    Parser.parse
      "int x; int a[4]; x = 1 + 2 * 3; if (x > 2 && x < 9) { x = 0; } \
       while (x < 3) { x = x + 1; } print(x);"
  in
  Alcotest.(check int) "decls" 2 (List.length p.Ast.decls);
  Alcotest.(check int) "stmts" 4 (List.length p.Ast.body);
  match p.Ast.body with
  | Ast.Assign (_, Ast.Binop (Ast.Add, Ast.Int 1, Ast.Binop (Ast.Mul, Ast.Int 2, Ast.Int 3)))
    :: Ast.If (Ast.And_also _, _, []) :: Ast.While _ :: Ast.Print _ :: [] ->
      ()
  | _ -> Alcotest.failf "unexpected shape: %a" Ast.pp_program p

let test_parser_paren_cond_backtracking () =
  (* "(a + b) < c" must parse as a relation whose lhs is parenthesized. *)
  let p = Parser.parse "int a; int b; int c; if ((a + b) < c) { a = 1; }" in
  (match p.Ast.body with
  | [ Ast.If (Ast.Rel (Ast.Lt, Ast.Binop (Ast.Add, _, _), Ast.Var "c"), _, []) ] -> ()
  | _ -> Alcotest.failf "bad parse: %a" Ast.pp_program p);
  (* And "((a<b) || (c<d)) && e<f" parses as a condition tree. *)
  let p = Parser.parse "int a; int b; if (((a<b) || (b<a)) && a != b) { a = 1; }" in
  match p.Ast.body with
  | [ Ast.If (Ast.And_also (Ast.Or_else _, Ast.Rel (Ast.Ne, _, _)), _, _) ] -> ()
  | _ -> Alcotest.failf "bad cond parse: %a" Ast.pp_program p

let test_parser_errors () =
  List.iter
    (fun src ->
      Alcotest.(check bool) (Fmt.str "reject %S" src) true
        (match Parser.parse src with
        | exception Parser.Error _ -> true
        | exception Lexer.Error _ -> true
        | _ -> false))
    [
      "int;";
      "x = ;";
      "if x > 2 { }";
      "while (x) { }"; (* conditions need a comparison *)
      "int a[0];";
      "print(x)";
    ]

(* ---- codegen + semantics ---- *)

let test_straight_line_program () =
  let _, o = run_source "int x; int y; x = 6; y = x * 7; print(y);" in
  Alcotest.(check (list string)) "42" [ "print_int(42)" ] (outputs o)

let test_if_else () =
  let src d =
    Fmt.str
      "int x = %d; if (x > 3) { print(1); } else { print(2); } print(x);" d
  in
  let _, o = run_source (src 5) in
  Alcotest.(check (list string)) "then" [ "print_int(1)"; "print_int(5)" ] (outputs o);
  let _, o = run_source (src 2) in
  Alcotest.(check (list string)) "else" [ "print_int(2)"; "print_int(2)" ] (outputs o)

let test_short_circuit () =
  (* Division by zero on the right of && must not execute when the left
     is false: short-circuit means the branch never reaches it. *)
  let src =
    "int x = 0; int y = 5; if (x != 0 && y / x > 1) { print(1); } else { print(2); }"
  in
  let _, o = run_source src in
  Alcotest.(check (list string)) "guarded" [ "print_int(2)" ] (outputs o)

let test_loops () =
  let _, o =
    run_source
      "int i; int s; s = 0; for (i = 0; i < 5; i = i + 1) { s = s + i; } print(s);"
  in
  Alcotest.(check (list string)) "for" [ "print_int(10)" ] (outputs o);
  let _, o =
    run_source "int i = 0; do { i = i + 1; } while (i < 3); print(i);"
  in
  Alcotest.(check (list string)) "do-while" [ "print_int(3)" ] (outputs o);
  let _, o =
    run_source "int i = 9; while (i < 3) { i = 0; } print(i);"
  in
  Alcotest.(check (list string)) "while skipped" [ "print_int(9)" ] (outputs o)

let test_arrays () =
  let src =
    "int a[8]; int i; int s; for (i = 0; i < 8; i = i + 1) { a[i] = i * i; } \
     s = a[3] + a[7]; print(s); a[0] = a[1]; print(a[0]);"
  in
  let _, o = run_source src in
  Alcotest.(check (list string)) "array rw" [ "print_int(58)"; "print_int(1)" ] (outputs o)

let test_array_inputs () =
  let compiled = Codegen.compile_string Gis_workloads.Minmax.source in
  let elements = [ 5; 3; 9; 1; 7; 2 ] in
  let input =
    {
      Simulator.no_input with
      Simulator.int_regs = [ (Codegen.var_reg compiled "n", List.length elements) ];
      memory = Codegen.array_input compiled [ ("a", elements) ];
    }
  in
  let o = Simulator.run machine compiled.Codegen.cfg input in
  let min_v, max_v = Gis_workloads.Minmax.reference_min_max elements in
  Alcotest.(check (list string)) "tiny-c minmax agrees with Figure 1"
    [ Fmt.str "print_int(%d)" min_v; Fmt.str "print_int(%d)" max_v ]
    (outputs o)

let test_else_if_chain () =
  let src d =
    Fmt.str
      "int x = %d; if (x > 10) { print(3); } else { if (x > 5) { print(2); }        else { print(1); } }"
      d
  in
  List.iter
    (fun (d, expect) ->
      let _, o = run_source (src d) in
      Alcotest.(check (list string)) (Fmt.str "x=%d" d)
        [ Fmt.str "print_int(%d)" expect ]
        (outputs o))
    [ (12, 3); (7, 2); (1, 1) ]

let test_nested_loops_source () =
  let src =
    "int i; int j; int s; s = 0; for (i = 0; i < 4; i = i + 1) { for (j = 0;      j < 3; j = j + 1) { s = s + (i * j); } } print(s);"
  in
  let compiled, o = run_source src in
  (* sum over i<4, j<3 of i*j = (0+1+2+3)*(0+1+2) = 18 *)
  Alcotest.(check (list string)) "nested" [ "print_int(18)" ] (outputs o);
  let info = Gis_analysis.Loops.compute compiled.Codegen.cfg in
  Alcotest.(check int) "two loops" 2
    (Array.length (Gis_analysis.Loops.loops info));
  Alcotest.(check bool) "nesting depth 2" true
    (List.exists
       (fun (l : Gis_analysis.Loops.loop) -> l.Gis_analysis.Loops.depth = 2)
       (Array.to_list (Gis_analysis.Loops.loops info)))

let test_while_inversion_shape () =
  (* The frontend inverts while loops: the loop body's test is at the
     bottom, like the paper's Figure 2. The guard test is a separate
     copy before the loop. *)
  let compiled =
    Codegen.compile_string "int i; int n; i = 0; while (i < n) { i = i + 1; } print(i);"
  in
  let cfg = compiled.Codegen.cfg in
  let info = Gis_analysis.Loops.compute cfg in
  Alcotest.(check int) "one loop" 1 (Array.length (Gis_analysis.Loops.loops info));
  let l = (Gis_analysis.Loops.loops info).(0) in
  (* Back edge source carries the bottom test: its terminator is a
     conditional branch, not a jump. *)
  List.iter
    (fun (tail, _) ->
      Alcotest.(check bool) "latch ends in a conditional branch" true
        (Gis_ir.Instr.is_cond_branch (Gis_ir.Cfg.block cfg tail).Gis_ir.Block.term))
    l.Gis_analysis.Loops.back_edges

let test_codegen_errors () =
  List.iter
    (fun src ->
      Alcotest.(check bool) (Fmt.str "reject %S" src) true
        (match Codegen.compile_string src with
        | exception Codegen.Error _ -> true
        | _ -> false))
    [
      "x = 1;";                      (* undeclared *)
      "int a[4]; a = 1;";            (* array as scalar *)
      "int x; x[0] = 1;";            (* scalar as array *)
      "int x; int x; x = 1;";        (* duplicate *)
      "int a[4]; int b; b = a;";     (* array read without index *)
    ]

let test_neg_and_precedence () =
  let _, o = run_source "int x; x = -3 + 2 * (1 - 5); print(x);" in
  Alcotest.(check (list string)) "-11" [ "print_int(-11)" ] (outputs o)

let test_codegen_structure () =
  let compiled = Codegen.compile_string Gis_workloads.Minmax.source in
  let cfg = compiled.Codegen.cfg in
  Gis_ir.Validate.check_exn cfg;
  (* The loop body compiles to many small blocks, like Figure 2. *)
  Alcotest.(check bool) "at least 10 blocks" true (Gis_ir.Cfg.num_blocks cfg >= 10);
  let info = Gis_analysis.Loops.compute cfg in
  Alcotest.(check bool) "reducible" true (Gis_analysis.Loops.reducible info);
  Alcotest.(check int) "one loop" 1 (Array.length (Gis_analysis.Loops.loops info))

let () =
  Alcotest.run "gis_frontend"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "comments" `Quick test_lexer_comments_and_lines;
          Alcotest.test_case "errors" `Quick test_lexer_error;
          Alcotest.test_case "integer overflow" `Quick test_lexer_int_overflow;
        ] );
      ( "parser",
        [
          Alcotest.test_case "shapes" `Quick test_parser_shapes;
          Alcotest.test_case "paren backtracking" `Quick test_parser_paren_cond_backtracking;
          Alcotest.test_case "errors" `Quick test_parser_errors;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "straight line" `Quick test_straight_line_program;
          Alcotest.test_case "if/else" `Quick test_if_else;
          Alcotest.test_case "short-circuit" `Quick test_short_circuit;
          Alcotest.test_case "loops" `Quick test_loops;
          Alcotest.test_case "arrays" `Quick test_arrays;
          Alcotest.test_case "minmax vs reference" `Quick test_array_inputs;
          Alcotest.test_case "else-if chains" `Quick test_else_if_chain;
          Alcotest.test_case "nested loops" `Quick test_nested_loops_source;
          Alcotest.test_case "while inversion" `Quick test_while_inversion_shape;
          Alcotest.test_case "errors" `Quick test_codegen_errors;
          Alcotest.test_case "negation/precedence" `Quick test_neg_and_precedence;
          Alcotest.test_case "structure" `Quick test_codegen_structure;
        ] );
    ]
