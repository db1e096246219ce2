(** Random structured Tiny-C programs for differential testing.

    Generated programs always terminate (every loop is driven by a
    dedicated counter the body never writes), never divide by a variable
    (division and remainder only get non-zero literal divisors), and end
    by printing every scalar — so two runs are behaviourally equal iff
    their observable traces match. Generation is deterministic in the
    seed and in the grammar parameters. *)

type params = {
  expr_depth : int;  (** depth budget for right-hand-side expressions *)
  stmt_depth : int;  (** nesting budget for if/while/for bodies *)
  literal_range : int;  (** literals drawn from [-range/4, 3*range/4) *)
  shift_range : int;  (** shift counts drawn from [0, shift_range) *)
  do_while : bool;  (** generate do-while loops *)
  call_args : bool;  (** print calls take full-depth argument expressions *)
  alias_pairs : bool;  (** emit store-then-load pairs to one masked slot *)
  mask_load_index : bool;
      (** mask array load indices to the array window (stores always
          are). The hardened grammar masks loads too, for denser
          in-window aliasing; the default grammar leaves them wild —
          out-of-bounds loads read 0 and cannot touch the register
          allocator's spill segment, which is routed by frame-register
          identity, not an address range. *)
  max_scalars : int;  (** scalar count is 3 + [0, max_scalars) *)
  max_arrays : int;  (** array count is 1 + [0, max_arrays) *)
  body_len : int;  (** top-level statement count is 3 + [0, body_len) *)
}

val default : params
(** Bit-compatible with the historical generator: for any seed,
    [generate ~seed] returns exactly the program it always has. Tests,
    the driver's [Generated] tasks and the bench corpus all rely on
    this. *)

val hardened : params
(** The fuzzing grammar: deeper statement nesting, do-while loops,
    16-bit literals, wide shift counts, call arguments of full
    expression depth, store/load aliasing pairs through one masked
    index, and masked load indices. Termination and print-all-scalars
    guarantees are unchanged. *)

val generate_with : params -> seed:int -> Gis_frontend.Ast.program

val generate_compiled : seed:int -> Gis_frontend.Codegen.compiled
(** Generate and compile; retries with derived seeds in the unlikely
    event the program dies of a codegen restriction. *)

val retry_stride : int
(** Seed increment between retry candidates: attempt [k] compiles
    [generate ~seed:(seed + k * retry_stride)]. Exposed (with
    [generate_compiled_via]) so tests can pin the retry chain. *)

val generate_compiled_via :
  compile:(Gis_frontend.Ast.program -> ('a, string) result) ->
  params ->
  seed:int ->
  'a
(** The retry driver behind [generate_compiled] with an injectable
    compile function: deterministically walks the retry chain
    [seed, seed + retry_stride, ...] (up to 10 candidates) and returns
    the first [Ok]. Raises [Failure] when all candidates fail. *)

val random_input :
  seed:int -> Gis_frontend.Codegen.compiled -> Gis_sim.Simulator.input
(** Random contents for every declared array. *)
