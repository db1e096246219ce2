(** Per-domain flight recorder.

    A fixed-size ring buffer ({!capacity} entries) of the most recent
    observability events. Recording is always cheap — one array store,
    no locks — and the ring is domain-local, so the batch driver's
    workers keep independent histories and a crashing task can dump the
    last events that led up to the failure without touching the other
    domains. The driver pool's fault-isolation path dumps it on crash
    and timeout; everything else just keeps feeding it. *)

val capacity : int
(** Default entries retained per ring (older notes are overwritten). *)

type t
(** An explicit ring, independent of the per-domain ones — for callers
    that want a recorder with a chosen capacity or lifetime. *)

val create : ?capacity:int -> unit -> t
(** Fresh empty ring. [capacity] defaults to {!capacity} (64); raises
    [Invalid_argument] when < 1. *)

val capacity_of : t -> int
val notef_to : t -> ('a, Format.formatter, unit, unit) format4 -> 'a
val clear_of : t -> unit
val recorded_of : t -> int
val dump_of : t -> string list

val set_default_capacity : int -> unit
(** Capacity for per-domain rings created after this call (each
    domain's ring materialises lazily on first use). Call at startup —
    e.g. from [gisc --flight-cap] — before anything notes; rings that
    already exist keep their size. Raises [Invalid_argument] when
    < 1. *)

val get_default_capacity : unit -> int
(** Current per-domain default; {!capacity} unless
    {!set_default_capacity} was called. *)

val note : string -> unit
(** Append to this domain's ring. *)

val notef : ('a, Format.formatter, unit, unit) format4 -> 'a
(** [Fmt]-style formatted {!note}. *)

val clear : unit -> unit
(** Empty this domain's ring (e.g. between driver tasks, so a dump
    only shows the failing task's history). *)

val recorded : unit -> int
(** Total notes ever recorded on this domain since the last {!clear} —
    may exceed {!capacity}; the excess has been overwritten. *)

val dump_messages : unit -> string list
(** The surviving notes of this domain's ring, oldest first. *)

val sink : unit -> Sink.t
(** A sink that mirrors every event into this domain's ring — tee it
    with the real sink to keep the recorder fed during scheduling. *)
