(* Per-domain flight recorder: a fixed-size ring of the most recent
   observability events, kept cheaply at all times and dumped only when
   something goes wrong (a task crash or timeout in the driver pool).
   The ring is domain-local, so each worker's recent history survives
   the failure of its own task without interleaving with the others,
   and recording is a single array store — no allocation beyond the
   message the caller already built, no locks. *)

let capacity = 64

type t = { mutable n : int (* total notes ever *); slots : string array }

let create ?capacity:(c = capacity) () =
  if c < 1 then invalid_arg "Flight.create: capacity must be >= 1";
  { n = 0; slots = Array.make c "" }

let capacity_of r = Array.length r.slots

let note_to r msg =
  r.slots.(r.n mod capacity_of r) <- msg;
  r.n <- r.n + 1

let notef_to r fmt = Fmt.kstr (note_to r) fmt
let clear_of r = r.n <- 0
let recorded_of r = r.n

let dump_of r =
  let cap = capacity_of r in
  let kept = min r.n cap in
  List.init kept (fun i ->
      (* Oldest first: the ring's logical start is n - kept. *)
      r.slots.((r.n - kept + i) mod cap))

(* Capacity used for the lazily-created per-domain rings. Settable once
   at startup (e.g. from gisc --flight-cap) before any domain has
   noted; rings already materialised keep their size. *)
let default_capacity = Atomic.make capacity

let set_default_capacity c =
  if c < 1 then invalid_arg "Flight.set_default_capacity: capacity must be >= 1";
  Atomic.set default_capacity c

let get_default_capacity () = Atomic.get default_capacity

let ring : t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> create ~capacity:(Atomic.get default_capacity) ())

let note msg = note_to (Domain.DLS.get ring) msg
let notef fmt = Fmt.kstr note fmt
let clear () = clear_of (Domain.DLS.get ring)
let recorded () = recorded_of (Domain.DLS.get ring)
let dump_messages () = dump_of (Domain.DLS.get ring)

(* A sink that mirrors every scheduler decision event into this
   domain's ring, for wrapping around a real sink with [Sink.tee]. *)
let sink () = { Sink.emit = (fun e -> notef "%a" Sink.pp_event e) }
