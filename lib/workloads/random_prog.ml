open Gis_frontend.Ast

(* Grammar knobs. [default] reproduces the historical generator draw for
   draw (same PRNG consumption order), so seeds keep denoting the same
   programs across the repo. [hardened] is the fuzzing grammar: deeper
   nesting, do-while loops, wider literals, call arguments of full
   expression depth, and store/load aliasing pairs through the same
   masked index window — while keeping the two guarantees every consumer
   relies on (all loops are counter-driven and terminate; every scalar
   is printed at the end). *)
type params = {
  expr_depth : int;  (** depth budget for right-hand-side expressions *)
  stmt_depth : int;  (** nesting budget for if/while/for bodies *)
  literal_range : int;  (** literals drawn from [-range/4, 3*range/4) *)
  shift_range : int;  (** shift counts drawn from [0, shift_range) *)
  do_while : bool;  (** generate do-while loops *)
  call_args : bool;  (** print calls take full-depth argument expressions *)
  alias_pairs : bool;  (** emit store-then-load pairs to one masked slot *)
  mask_load_index : bool;
      (** mask array load indices to the array window, like stores.
          Unmasked loads of wild indices read 0 from untouched memory —
          well-defined now that spill storage lives in its own
          simulator segment, unreachable from program addresses. The
          hardened grammar masks (denser in-window aliasing); the
          default grammar leaves them wild, stressing that isolation. *)
  max_scalars : int;
  max_arrays : int;
  body_len : int;  (** top-level statement count is 3 + [0, body_len) *)
}

let default =
  {
    expr_depth = 2;
    stmt_depth = 2;
    literal_range = 64;
    shift_range = 5;
    do_while = false;
    call_args = false;
    alias_pairs = false;
    mask_load_index = false;
    max_scalars = 4;
    max_arrays = 2;
    body_len = 5;
  }

let hardened =
  {
    expr_depth = 3;
    stmt_depth = 3;
    literal_range = 1 lsl 16;
    shift_range = 31;
    do_while = true;
    call_args = true;
    alias_pairs = true;
    mask_load_index = true;
    max_scalars = 6;
    max_arrays = 3;
    body_len = 8;
  }

type ctx = {
  rng : Prng.t;
  params : params;
  scalars : string list;  (** assignable scalars *)
  arrays : string list;
  mutable counters : int;  (** loop counters allocated so far *)
}

let literal ctx = Prng.int ctx.rng ctx.params.literal_range - (ctx.params.literal_range / 4)

let rec gen_expr ctx depth =
  if depth = 0 then
    match Prng.int ctx.rng 3 with
    | 0 -> Int (literal ctx)
    | 1 -> Var (Prng.pick ctx.rng ctx.scalars)
    | _ -> (
        match ctx.arrays with
        | [] -> Var (Prng.pick ctx.rng ctx.scalars)
        | arrays -> Index (Prng.pick ctx.rng arrays, Int (Prng.int ctx.rng 16)))
  else
    match Prng.int ctx.rng 6 with
    | 0 ->
        let op = Prng.pick ctx.rng [ Add; Sub; Mul; And; Or; Xor ] in
        Binop (op, gen_expr ctx (depth - 1), gen_expr ctx (depth - 1))
    | 1 ->
        (* Division and remainder only by a non-zero literal. *)
        let op = Prng.pick ctx.rng [ Div; Rem ] in
        Binop (op, gen_expr ctx (depth - 1), Int (1 + Prng.int ctx.rng 9))
    | 2 ->
        let op = Prng.pick ctx.rng [ Shl; Shr ] in
        Binop (op, gen_expr ctx (depth - 1), Int (Prng.int ctx.rng ctx.params.shift_range))
    | 3 -> Neg (gen_expr ctx (depth - 1))
    | 4 -> (
        match ctx.arrays with
        | [] -> gen_expr ctx 0
        | arrays ->
            let idx = gen_expr ctx (depth - 1) in
            let idx =
              if ctx.params.mask_load_index then Binop (And, idx, Int 15)
              else idx
            in
            Index (Prng.pick ctx.rng arrays, idx))
    | _ -> gen_expr ctx 0

let rec gen_cond ctx depth =
  if depth = 0 || Prng.int ctx.rng 3 = 0 then
    let op = Prng.pick ctx.rng [ Lt; Gt; Le; Ge; Eq; Ne ] in
    Rel (op, gen_expr ctx 1, gen_expr ctx 1)
  else
    match Prng.int ctx.rng 3 with
    | 0 -> Not (gen_cond ctx (depth - 1))
    | 1 -> And_also (gen_cond ctx (depth - 1), gen_cond ctx (depth - 1))
    | _ -> Or_else (gen_cond ctx (depth - 1), gen_cond ctx (depth - 1))

(* Array stores use a masked index expression so that runs stay inside
   the address space deterministically even for wild indices. *)
let store_index ctx = Binop (And, gen_expr ctx 1, Int 15)

let max_counters = 12

(* A fresh private loop counter. The body generator never assigns
   counters (they are not in [ctx.scalars]), so counter-driven loops
   always terminate. *)
let fresh_counter ctx =
  let c = Printf.sprintf "c%d" ctx.counters in
  ctx.counters <- ctx.counters + 1;
  c

let rec gen_stmt ctx depth =
  let p = ctx.params in
  (* Extra grammar productions are appended AFTER the historical ones so
     the legacy choice indices (and PRNG draw order) are untouched when
     the extensions are disabled. *)
  let extra =
    (if p.do_while then 1 else 0)
    + (if p.call_args then 1 else 0)
    + if p.alias_pairs then 1 else 0
  in
  let choices =
    if depth = 0 then 3
    else if ctx.counters >= max_counters then 4
    else 7 + extra
  in
  match Prng.int ctx.rng choices with
  | 0 -> Assign (Prng.pick ctx.rng ctx.scalars, gen_expr ctx p.expr_depth)
  | 1 -> (
      match ctx.arrays with
      | [] -> Assign (Prng.pick ctx.rng ctx.scalars, gen_expr ctx p.expr_depth)
      | arrays ->
          Store (Prng.pick ctx.rng arrays, store_index ctx, gen_expr ctx p.expr_depth))
  | 2 -> Print (gen_expr ctx p.expr_depth)
  | 3 ->
      If
        ( gen_cond ctx 2,
          gen_stmts ctx (depth - 1) (1 + Prng.int ctx.rng 3),
          if Prng.bool ctx.rng then gen_stmts ctx (depth - 1) (1 + Prng.int ctx.rng 2)
          else [] )
  | 4 | 5 ->
      (* A bounded loop driven by a private counter. *)
      let c = fresh_counter ctx in
      let bound = 2 + Prng.int ctx.rng 6 in
      let body =
        gen_stmts ctx (depth - 1) (1 + Prng.int ctx.rng 3)
        @ [ Assign (c, Binop (Add, Var c, Int 1)) ]
      in
      Block [ Assign (c, Int 0); While (Rel (Lt, Var c, Int bound), body) ]
  | 6 ->
      let c = fresh_counter ctx in
      let bound = 1 + Prng.int ctx.rng 4 in
      Block
        [
          For
            ( Some (Assign (c, Int 0)),
              Some (Rel (Lt, Var c, Int bound)),
              Some (Assign (c, Binop (Add, Var c, Int 1))),
              gen_stmts ctx (depth - 1) (1 + Prng.int ctx.rng 3) );
        ]
  | n -> gen_extra ctx depth (n - 7)

(* The hardened-grammar productions, numbered in the fixed order
   do-while, call-with-arguments, aliasing pair — whichever of them are
   enabled occupy the slots after the legacy productions. *)
and gen_extra ctx depth slot =
  let p = ctx.params in
  let enabled =
    List.filter_map
      (fun (on, tag) -> if on then Some tag else None)
      [ (p.do_while, `Do_while); (p.call_args, `Call); (p.alias_pairs, `Alias) ]
  in
  match List.nth enabled slot with
  | `Do_while ->
      (* do { body; c = c + 1 } while (c < bound): runs bound times. *)
      let c = fresh_counter ctx in
      let bound = 1 + Prng.int ctx.rng 5 in
      let body =
        gen_stmts ctx (depth - 1) (1 + Prng.int ctx.rng 3)
        @ [ Assign (c, Binop (Add, Var c, Int 1)) ]
      in
      Block
        [ Assign (c, Int 0); Do_while (body, Rel (Lt, Var c, Int bound)) ]
  | `Call ->
      (* A call whose argument is a full-depth expression: lowers to a
         Call instruction fed by a freshly computed register. *)
      Print (gen_expr ctx (p.expr_depth + 1))
  | `Alias -> (
      (* Store-then-load aliasing through one masked slot: the load must
         observe the store (or a later conflicting one), which is
         exactly the memory dependence speculation must not break. *)
      match ctx.arrays with
      | [] -> Print (gen_expr ctx p.expr_depth)
      | arrays ->
          let a = Prng.pick ctx.rng arrays in
          let idx = store_index ctx in
          let x = Prng.pick ctx.rng ctx.scalars in
          Block
            [
              Store (a, idx, gen_expr ctx p.expr_depth);
              Assign (x, Binop (Add, Index (a, idx), gen_expr ctx 1));
            ])

and gen_stmts ctx depth count = List.init count (fun _ -> gen_stmt ctx depth)

let generate_with params ~seed =
  let rng = Prng.create ~seed in
  let n_scalars = 3 + Prng.int rng params.max_scalars in
  let scalars = List.init n_scalars (Printf.sprintf "x%d") in
  let n_arrays = 1 + Prng.int rng params.max_arrays in
  let arrays = List.init n_arrays (Printf.sprintf "a%d") in
  let ctx = { rng; params; scalars; arrays; counters = 0 } in
  let body = gen_stmts ctx params.stmt_depth (3 + Prng.int rng params.body_len) in
  let decls =
    List.map (fun s -> Scalar (s, Some (Prng.int rng 32))) scalars
    @ List.map (fun a -> Array (a, 16)) arrays
    @ List.init max_counters (fun i -> Scalar (Printf.sprintf "c%d" i, Some 0))
  in
  let epilogue = List.map (fun s -> Print (Var s)) scalars in
  { decls; body = body @ epilogue }

(* Retrying with derived seeds must be a pure function of the original
   seed: the k-th candidate is always [seed + k * retry_stride], so the
   retry chain — and therefore the returned program — is deterministic
   even when early candidates die of a codegen restriction. *)
let retry_stride = 7919

let generate_compiled_via ~compile params ~seed =
  let rec try_seed s attempts =
    if attempts = 0 then failwith "Random_prog: generation kept failing"
    else
      let prog = generate_with params ~seed:s in
      match compile prog with
      | Ok compiled -> compiled
      | Error _ -> try_seed (s + retry_stride) (attempts - 1)
  in
  try_seed seed 10

let compile_candidate prog =
  match Gis_frontend.Codegen.compile prog with
  | compiled -> Ok compiled
  | exception Gis_frontend.Codegen.Error m -> Error m

let generate_compiled_with params ~seed =
  generate_compiled_via ~compile:compile_candidate params ~seed

let generate_compiled ~seed = generate_compiled_with default ~seed

let random_input ~seed compiled =
  let rng = Prng.create ~seed:(seed + 101) in
  {
    Gis_sim.Simulator.no_input with
    Gis_sim.Simulator.memory =
      List.concat_map
        (fun (_, base, len) ->
          List.init len (fun i -> (base + (4 * i), Prng.int rng 256 - 64)))
        compiled.Gis_frontend.Codegen.arrays;
  }
