(** Array-backed binary min-heap.

    The list scheduler shared by the global and basic-block passes
    ([Gis_core.List_sched]) keeps its ready candidates here, ordered
    by the paper's rank heuristics, replacing per-pick linear rescans
    of the whole node set. Ties must be broken by the comparator itself
    (the scheduler's final [Program_order] arbiter already does), so pop
    order is deterministic regardless of insertion order. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** A fresh empty heap. [cmp a b < 0] means [a] pops before [b]. *)

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** The minimum element, without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum element. *)
