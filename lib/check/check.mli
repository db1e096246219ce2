(** Static schedule-legality verification (translation validation).

    Given the pre- and post-IR of one pipeline stage, the checker
    independently reconstructs the dependence graph and the
    control-dependence relation of the *input* program and verifies,
    without running anything, that the stage's output preserves them:

    - every data/control/memory dependence still executes in order
      (modulo anti/output dependences legitimately dissolved by
      renaming, re-validated against the transformed registers);
    - every use still reads from exactly the same definition sites
      (use-def chains are invariant under legal motion and renaming);
    - every cross-block motion is classified against the paper's
      taxonomy — useful into an equivalent block (Definition 3),
      speculative into a dominating block within the configured
      speculation degree (Definition 7), or duplicated (Definition 6) —
      and each speculative motion satisfies the Section 5.3 safety
      rules: no store speculation, no clobber of a register live on the
      off-path, renames proven by sole-definition use-def chains;
    - instruction conservation holds (nothing vanishes; everything that
      appears is a provenance-recorded copy, duplicate, or spill), and
      the result is cross-checked against {!Gis_obs.Provenance} records
      when a table is supplied.

    Findings that only a paper-stricter policy would reject (Div/Rem
    speculation, degree overruns, taxonomy disagreements with the
    provenance table) are [Warning]s; hard legality violations are
    [Error]s. *)

open Gis_ir

val check_stage :
  ?prov:Gis_obs.Provenance.t ->
  ?max_speculation_degree:int ->
  stage:string ->
  pre:Cfg.t ->
  post:Cfg.t ->
  unit ->
  Diagnostic.t list
(** Verify one stage transition. [stage] selects the check matrix:
    ["unroll"]/["rotate"] (copying transforms), ["global-pass1"]/
    ["global-pass2"] (interblock motion), ["local"] (intra-block
    reordering only), ["regalloc"] (register rewriting + spill
    insertion); any other name gets the conservative motion checks.

    Findings come in a fixed order: entry, removed and created
    instructions, payloads, control structure, [dependence.violated],
    use-def chains, then motions. The [dependence.violated] findings
    follow {!Deps.reconstruct}'s order of the input's dependences:
    inter-block edges first, by descending source block, destination
    block, source position, destination position and rule, then
    intra-block edges, blocks descending and each block's newest first.
    The dependences are streamed unordered to check them; only when one
    is violated is the ordered list built, to report them. *)

type stats = {
  stages : int;
  deps_checked : int;
  motions_classified : int;
}

(** A collector accumulates per-stage results across one pipeline run;
    its [hook] has the shape of {!Gis_core.Config.t}'s [check] field. *)
type collector

val collector :
  ?prov:Gis_obs.Provenance.t -> ?max_speculation_degree:int -> unit -> collector

val hook : collector -> stage:string -> pre:Cfg.t -> post:Cfg.t -> unit
(** {!check_stage}, accumulated. The collector keeps the last stage's
    [post] with its index (forward view, instruction numbering,
    reaching definitions);
    when the next call's [pre] is physically that CFG, as
    [Gis_core.Pipeline.run] arranges, the index is reused instead of
    rebuilt. A [post] handed to the hook must therefore not be mutated
    afterwards if it may come back as a [pre]. *)

val diagnostics : collector -> (string * Diagnostic.t list) list
(** Stage name and findings, in execution order. *)

val stats : collector -> stats

val errors : Diagnostic.t list -> Diagnostic.t list

val report_to_json :
  ?stats:stats -> (string * Diagnostic.t list) list -> Gis_obs.Json.t
