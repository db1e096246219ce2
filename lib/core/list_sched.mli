(** The cycle-by-cycle list scheduler of paper Section 5.1, shared by
    the basic-block pass and the global pass: the two differ only in
    scope — one block's instructions, or a block plus the candidates it
    may import — so both drive this one loop.

    Every cycle the best ready candidate under the Section 5.2 rank
    rules issues while its functional unit still has a slot; units are
    fully pipelined, so execution times only delay the availability of
    results. Ready candidates sit in a heap ordered by
    {!Priority.compare}, a strict total order ending in program order,
    so the pop order equals a rescan of the whole ready list; candidates
    whose operands arrive at a known future cycle wait in a second heap
    keyed by that cycle, and candidates shut out by a saturated unit
    retry on the next cycle. The block's terminator issues last: it is
    held until every other instruction of the block's own has issued. *)

type verdict =
  | Accept  (** issue the pick in the current cycle *)
  | Accept_rekeyed
      (** issue the pick; committing it changed what [item] returns for
          other candidates, so every queued entry is rebuilt *)
  | Reject
      (** drop the pick from the candidate set for the rest of the run;
          candidates depending on it never become ready *)

val run :
  ?fulfilled:(int -> bool) ->
  ?yields_to:int list ->
  ?tally:(Priority.item -> Priority.item -> unit) ->
  machine:Gis_machine.Machine.t ->
  rules:Priority_rule.t list ->
  item:(int -> Priority.item) ->
  commit:(Priority.item -> verdict) ->
  own:int list ->
  imports:int list ->
  term:int ->
  Gis_ddg.Ddg.t ->
  int list * int array
(** Schedule the candidates [own @ imports] (DDG node indices) and
    return the emission order, [term] last, and each node's issue cycle
    ([-1] for nodes never issued). [own] are the block's own
    instructions, [term] among them; [commit] decides each pick before
    it issues. A predecessor outside the candidate set bars its
    successor unless [fulfilled] (default: none) says its dependences
    are already met. The terminator also waits while any candidate of
    [yields_to] (default [[]]) is ready. With [tally], every pick that
    had competition reports the winner and the best runner-up.

    Raises [Failure] only when the run can never finish: nothing is
    ready, waiting or deferred and the terminator is still gated. *)
