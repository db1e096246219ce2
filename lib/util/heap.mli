(** Array-backed binary min-heap.

    The list scheduler shared by the global and basic-block passes
    ([Gis_core.List_sched]) keeps its ready candidates here, ordered
    by the paper's rank heuristics, replacing per-pick linear rescans
    of the whole node set. Ties must be broken by the comparator itself
    (the scheduler's final [Program_order] arbiter already does), so pop
    order is deterministic regardless of insertion order. Only [push]
    allocates, when the array grows. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** A fresh empty heap. [cmp a b < 0] means [a] pops before [b]. *)

val push : 'a t -> 'a -> unit

val is_empty : 'a t -> bool

val top : 'a t -> 'a
(** The minimum element, without removing it. Raises
    [Invalid_argument] when the heap is empty. *)

val pop : 'a t -> 'a
(** Remove and return the minimum element. Raises [Invalid_argument]
    when the heap is empty. *)

val rekey : ('a -> 'a) -> 'a t -> unit
(** Replace every element [x] by [f x], in no particular order, and
    restore the heap order. *)
