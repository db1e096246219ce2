type item = {
  node : int;
  useful : bool;
  d : int;
  cp : int;
  order : int;
  pressure : int;
}

let scores it =
  { Gis_obs.Sink.d = it.d; cp = it.cp; order = it.order; pressure = it.pressure }

let apply_rule rule a b =
  match rule with
  | Priority_rule.Useful_first -> Bool.compare b.useful a.useful
  | Priority_rule.Max_delay -> Int.compare b.d a.d
  | Priority_rule.Max_critical_path -> Int.compare b.cp a.cp
  | Priority_rule.Program_order -> Int.compare a.order b.order
  | Priority_rule.Min_pressure -> Int.compare a.pressure b.pressure

(* Recursing on the rule list itself, not through a local closure over
   [a] and [b], keeps a heap comparison free of allocation. *)
let rec compare ~rules a b =
  match rules with
  | [] -> Int.compare a.order b.order
  | r :: rest -> (
      match apply_rule r a b with 0 -> compare ~rules:rest a b | c -> c)

let deciding_rule ~rules a b =
  let rec go = function
    | [] -> None
    | r :: rest -> if apply_rule r a b <> 0 then Some r else go rest
  in
  go rules
