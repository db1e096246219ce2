(** Named counts of one run, and the ["metrics"] object of a report.

    Plain values: each run returns its own counts (the scheduler's
    events, its region reports and dependence graphs, the allocation,
    the simulation, the bounds), a batch adds up its tasks' counts, and
    [gisc --stats] renders them. Nothing here is shared between runs. *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of float list  (** the observations, in order *)

type t = (string * value) list

val counters : (string * int) list -> t

val add : t -> t -> t
(** Key by key: counters sum, histograms join their observations, and a
    gauge takes the right-hand value. A key only one side has is kept. *)

val to_json : ?deterministic:bool -> t -> Json.t
(** Sorted by name, one object per count: [{"type": "counter",
    "value"}], [{"type": "gauge", "value"}] or [{"type": "histogram",
    "count", "sum", "buckets"}], where bucket [i] counts observations
    in [[2^(i-1), 2^i)] and bucket 0 everything below 1.0. With
    [deterministic], every count whose name ends in ["_seconds"],
    ["_ns"], ["_us"] or ["_bytes"] is zeroed, as [Prof.scrub] zeroes
    the profile tree (allocation varies across compiler versions). *)

val pp_histogram : float list Fmt.t
(** ["count N, mean M, log2 buckets [i:c ...]"], or ["empty"]. *)
