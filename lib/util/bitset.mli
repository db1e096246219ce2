(** Dense fixed-capacity bitsets over [0, capacity).

    One bit per element, packed [Sys.int_size] to an [int] word, so the
    dataflow analyses ([Gis_analysis.Reaching]) take unions, differences
    and equality a word at a time instead of walking balanced trees.
    Sets meant to be combined must share one capacity; the binary
    operations raise [Invalid_argument] otherwise. Mutating operations
    work in place. *)

type t

val create : int -> t
(** [create n] is the empty set with capacity [n]. *)

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit

val clear : t -> unit
(** Remove every element. *)

val add_range : t -> int -> int -> unit
(** [add_range s lo hi] adds every element of [\[lo, hi)], a word at a
    time. *)

val remove_range : t -> int -> int -> unit
(** [remove_range s lo hi] removes every element of [\[lo, hi)]. *)

val equal : t -> t -> bool

val union_into : dst:t -> t -> unit
(** [union_into ~dst s] sets [dst] to [dst ∪ s]. *)

val assign : dst:t -> t -> bool
(** [assign ~dst s] makes [dst] equal to [s]; [true] when [dst]
    changed. *)

val transfer : dst:t -> gen:t -> kill:t -> t -> bool
(** [transfer ~dst ~gen ~kill s] sets [dst] to [gen ∪ (s \ kill)], the
    gen/kill transfer function; [true] when [dst] changed. [dst] may be
    [s] itself. *)

val grow : t -> int -> t
(** [grow s n] is a copy of [s] with capacity [n]; raises
    [Invalid_argument] if [n] is below [s]'s capacity. *)

val iter : (int -> unit) -> t -> unit
(** The elements in increasing order. *)
