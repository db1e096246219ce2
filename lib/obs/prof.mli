(** Hierarchical self-profiler: wall-clock and GC attribution per
    pipeline phase and per compiled region.

    [Prof] answers "how long did each phase take", "what did it
    allocate" and "how often did the GC run", and it does so under an
    {e exact} accounting identity: every sample is an
    integer (nanoseconds, bytes, collections), a node's self value is
    its total minus its children's totals, and the self values of a
    subtree sum back to the root's totals with no floating-point slack
    — the profiler-side counterpart of the simulator's stall-accounting
    identity and [gisc explain]'s cycle-attribution identity.

    Recording nests per domain (a {!record} made while another is open
    in the same domain becomes a child), so the batch driver's workers
    each grow their own tree. [record None name f] is [f ()] — one
    pattern match, no samples, no allocation — and the pinned test
    asserts schedules are byte-identical with the profiler detached. *)

type node = {
  name : string;
  wall_ns : int;  (** total wall clock in nanoseconds, children included *)
  alloc_bytes : int;
      (** total bytes allocated ([Gc.minor_words] delta — precise and
          GC-timing-independent, unlike [Gc.allocated_bytes]; blocks
          allocated directly on the major heap are not counted),
          children included *)
  minor : int;  (** minor collections finished inside the node *)
  major : int;  (** major collection cycles finished inside the node *)
  children : node list;  (** in completion order *)
}

type t
(** A profile under construction. Safe to share across domains: each
    domain's open frames are domain-local, completed top-level trees
    land in the shared root list behind a mutex. *)

val create : unit -> t

val record : t option -> string -> (unit -> 'a) -> 'a
(** [record (Some t) name f] runs [f] and records a node named [name]
    covering it — as a child of the innermost open record of the same
    profiler on this domain, or as a new root. [record None name f] is
    exactly [f ()]. Exceptions propagate; the partial node is still
    recorded so a crashed phase stays visible in the dump. *)

val roots : t -> node list
(** Completed top-level trees, oldest first. *)

val now_ns : unit -> int
(** The monotonic clock in nanoseconds — the one clock the pipeline,
    the batch driver and the checker time themselves with. Only
    differences between two readings are meaningful. *)

val self_wall_ns : node -> int
(** Wall clock not covered by any child; never negative, since every
    sample reads the monotonic clock ({!identity_ok} still checks). *)

val self_alloc_bytes : node -> int
val self_minor : node -> int
val self_major : node -> int

val identity_ok : node -> bool
(** Re-derives the accounting identity from scratch: self values over
    the subtree must sum exactly to the root's totals (integer
    arithmetic — no tolerance), and every self value of a physically
    monotonic counter must be non-negative. *)

val node_count : node -> int

val fold : ('a -> node -> 'a) -> 'a -> node -> 'a
(** Pre-order fold over a subtree. *)

val scrub : node -> node
(** Zero every [*_seconds]/[*_bytes]/collection field recursively,
    keeping names and shape, for [--deterministic] output. *)

val seconds_of_ns : int -> float

val to_json : node -> Json.t
(** [{name, wall_seconds, self_seconds, alloc_bytes, self_alloc_bytes,
    minor_collections, major_collections, children?}], recursively.
    Scrub first for deterministic output. *)

val folded : ?metric:[ `Wall | `Alloc ] -> node -> string list
(** Folded-stack lines ("a;b;c VALUE", one per node, value = self), the
    input format of flamegraph.pl and speedscope. [`Wall] (default)
    reports self nanoseconds, [`Alloc] self bytes. *)

val pp : node Fmt.t
(** Indented table: wall/self milliseconds, alloc/self alloc bytes,
    minor/major collections per node. *)
