(** Choosing among simultaneously-ready instructions (paper
    Section 5.2, the seven-step decision order). *)

type item = {
  node : int;  (** DDG node index *)
  useful : bool;
      (** true when the instruction's home block is in
          [U(A) = A ∪ EQUIV(A)] — rules 1–2 prefer these *)
  d : int;  (** delay heuristic *)
  cp : int;  (** critical path heuristic *)
  order : int;  (** original program order; smaller is earlier *)
  pressure : int;
      (** register-pressure penalty of scheduling this candidate into
          the current block: 0 when pressure-aware scheduling is off or
          the motion fits the register file, positive when it would
          exceed it. Smaller wins under [Min_pressure]. *)
}

val scores : item -> Gis_obs.Sink.scores
(** The ranks a decision event and a provenance record carry. *)

val compare : rules:Priority_rule.t list -> item -> item -> int
(** Negative when the first item should be scheduled first. Rules are
    applied in the given order; items equal under every rule compare by
    [order] as the final arbiter (determinism). *)

val deciding_rule :
  rules:Priority_rule.t list -> item -> item -> Priority_rule.t option
(** The first rule in [rules] that distinguishes the two items — the
    rule that actually broke the tie when one of them was picked over
    the other. [None] when every rule ties and the pick fell through
    to the final program-order arbiter. *)
