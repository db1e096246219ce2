open Gis_ir

type scores = { d : int; cp : int; order : int; pressure : int }

type sched_event =
  | Candidate_considered of {
      uid : int;
      from_block : Label.t;
      into_block : Label.t;
      speculative : bool;
    }
  | Moved_useful of {
      uid : int;
      from_block : Label.t;
      to_block : Label.t;
      scores : scores;
      copies : (int * Label.t) list;
    }
  | Moved_speculative of {
      uid : int;
      from_block : Label.t;
      to_block : Label.t;
      scores : scores;
      copies : (int * Label.t) list;
    }
  | Renamed of { uid : int; from_reg : Reg.t; to_reg : Reg.t }
  | Blocked of { uid : int; reason : string }
  | Region_skipped of { region_id : int; reason : string }
  | Block_scheduled of { block : Label.t; cycles : int }

type t = { emit : sched_event -> unit }

let null = { emit = ignore }

let memory () =
  let log = ref [] in
  ( { emit = (fun e -> log := e :: !log) },
    fun () -> List.rev !log )

let tee a b = { emit = (fun e -> a.emit e; b.emit e) }

let count events =
  let useful = ref 0 and speculative = ref 0 and renames = ref 0 in
  let copies = ref 0 and blocked = ref 0 in
  List.iter
    (function
      | Moved_useful { copies = c; _ } ->
          incr useful;
          copies := !copies + List.length c
      | Moved_speculative { copies = c; _ } ->
          incr speculative;
          copies := !copies + List.length c
      | Renamed _ -> incr renames
      | Blocked _ -> incr blocked
      | Candidate_considered _ | Region_skipped _ | Block_scheduled _ -> ())
    events;
  Counts.counters
    [
      ("sched.moves_useful_total", !useful);
      ("sched.moves_speculative_total", !speculative);
      ("sched.renames_total", !renames);
      ("sched.duplication_copies_total", !copies);
      ("sched.blocked_motions_total", !blocked);
    ]

let event_to_json = function
  | Candidate_considered { uid; from_block; into_block; speculative } ->
      Json.Obj
        [
          ("event", Json.String "candidate_considered");
          ("uid", Json.Int uid);
          ("from", Json.String from_block);
          ("into", Json.String into_block);
          ("speculative", Json.Bool speculative);
        ]
  | Moved_useful { uid; from_block; to_block; _ } ->
      Json.Obj
        [
          ("event", Json.String "moved_useful");
          ("uid", Json.Int uid);
          ("from", Json.String from_block);
          ("to", Json.String to_block);
        ]
  | Moved_speculative { uid; from_block; to_block; _ } ->
      Json.Obj
        [
          ("event", Json.String "moved_speculative");
          ("uid", Json.Int uid);
          ("from", Json.String from_block);
          ("to", Json.String to_block);
        ]
  | Renamed { uid; from_reg; to_reg } ->
      Json.Obj
        [
          ("event", Json.String "renamed");
          ("uid", Json.Int uid);
          ("from_reg", Json.String (Fmt.str "%a" Reg.pp from_reg));
          ("to_reg", Json.String (Fmt.str "%a" Reg.pp to_reg));
        ]
  | Blocked { uid; reason } ->
      Json.Obj
        [
          ("event", Json.String "blocked");
          ("uid", Json.Int uid);
          ("reason", Json.String reason);
        ]
  | Region_skipped { region_id; reason } ->
      Json.Obj
        [
          ("event", Json.String "region_skipped");
          ("region", Json.Int region_id);
          ("reason", Json.String reason);
        ]
  | Block_scheduled { block; cycles } ->
      Json.Obj
        [
          ("event", Json.String "block_scheduled");
          ("block", Json.String block);
          ("cycles", Json.Int cycles);
        ]

let pp_event ppf = function
  | Candidate_considered { uid; from_block; into_block; speculative } ->
      Fmt.pf ppf "candidate #%d %a -> %a%s" uid Label.pp from_block Label.pp
        into_block
        (if speculative then " (speculative)" else "")
  | Moved_useful { uid; from_block; to_block; _ } ->
      Fmt.pf ppf "moved #%d %a -> %a (useful)" uid Label.pp from_block Label.pp
        to_block
  | Moved_speculative { uid; from_block; to_block; _ } ->
      Fmt.pf ppf "moved #%d %a -> %a (speculative)" uid Label.pp from_block
        Label.pp to_block
  | Renamed { uid; from_reg; to_reg } ->
      Fmt.pf ppf "renamed #%d %a -> %a" uid Reg.pp from_reg Reg.pp to_reg
  | Blocked { uid; reason } -> Fmt.pf ppf "blocked #%d (%s)" uid reason
  | Region_skipped { region_id; reason } ->
      Fmt.pf ppf "region %d skipped (%s)" region_id reason
  | Block_scheduled { block; cycles } ->
      Fmt.pf ppf "block %a locally scheduled in %d cycles" Label.pp block cycles
