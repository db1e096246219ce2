(** Delta debugging over the Tiny-C AST.

    The shrinker is pure and draws no randomness: [candidates] proposes
    one-step reductions in a fixed order (coarse structural cuts before
    fine expression edits) and [shrink] greedily descends through the
    first candidate the predicate accepts, so the result is a
    deterministic function of (program, predicate).

    Candidates are {e syntactic} reductions only — they may reference a
    dropped declaration and fail to compile. A predicate that requires
    compilation (as the fuzzer's does) filters those out, which is what
    makes every {e accepted} step a valid Tiny-C program. *)

val size : Gis_frontend.Ast.program -> int
(** AST node count plus declaration count — the strictly decreasing
    primary measure (literal halving, which preserves it, shrinks total
    literal magnitude instead). *)

val stmt_count : Gis_frontend.Ast.program -> int
(** Statements in the body, counting nested ones — the "minimal
    reproducer" metric reported for corpus entries. *)

val default_fuel : int

val shrink :
  ?fuel:int ->
  ?on_step:(Gis_frontend.Ast.program -> unit) ->
  pred:(Gis_frontend.Ast.program -> bool) ->
  Gis_frontend.Ast.program ->
  Gis_frontend.Ast.program
(** Greedy fixpoint: repeatedly move to the first candidate satisfying
    [pred] until none does (or [fuel] predicate evaluations are spent).
    [on_step] observes each accepted intermediate program — the hook the
    shrinker-invariant tests use. The result satisfies [pred] whenever
    the input did. *)
