(** Structured diagnostics for the static legality checker and linter.

    Every finding carries the rule that produced it, a severity, the
    pipeline stage (or ["input"]/["final"] for lint passes over a whole
    CFG), an optional instruction uid, and the block labels involved —
    enough for a reader to locate the offending motion without rerunning
    the pipeline. *)

type severity = Error | Warning

val pp_severity : severity Fmt.t

type t = {
  rule : string;  (** e.g. ["dependence.violated"], ["lint.dead-def"] *)
  severity : severity;
  stage : string;
  message : string;
  uid : int option;  (** instruction uid, when one is implicated *)
  blocks : Gis_ir.Label.t list;  (** blocks involved, source first *)
}

val error :
  rule:string -> stage:string -> ?uid:int -> ?blocks:Gis_ir.Label.t list ->
  string -> t

val warning :
  rule:string -> stage:string -> ?uid:int -> ?blocks:Gis_ir.Label.t list ->
  string -> t

val is_error : t -> bool

val counts : t list -> (string * int) list
(** Findings per rule, sorted by rule name. *)

val pp : t Fmt.t

val list_to_json : t list -> Gis_obs.Json.t
