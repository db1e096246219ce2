open Gis_util

exception Error of string

let err line fmt = Fmt.kstr (fun m -> raise (Error (Fmt.str "line %d: %s" line m))) fmt

(* ---- printing ---- *)

let print cfg =
  let buf = Buffer.create 1024 in
  let layout = Cfg.layout cfg in
  let next_label = Hashtbl.create 16 in
  let rec note = function
    | a :: (b :: _ as rest) ->
        Hashtbl.replace next_label a (Cfg.block cfg b).Block.label;
        note rest
    | [ _ ] | [] -> ()
  in
  note layout;
  List.iter
    (fun id ->
      let b = Cfg.block cfg id in
      Buffer.add_string buf (Fmt.str "%a:\n" Label.pp b.Block.label);
      Vec.iter
        (fun i -> Buffer.add_string buf (Fmt.str "  %a\n" Instr.pp i))
        b.Block.body;
      let term = b.Block.term in
      (match Instr.kind term with
      | Instr.Branch_cond { fallthru; _ } ->
          let explicit =
            match Hashtbl.find_opt next_label id with
            | Some next -> not (Label.equal next fallthru)
            | None -> true
          in
          if explicit then
            Buffer.add_string buf
              (Fmt.str "  %a -> %a\n" Instr.pp term Label.pp fallthru)
          else Buffer.add_string buf (Fmt.str "  %a\n" Instr.pp term)
      | _ -> Buffer.add_string buf (Fmt.str "  %a\n" Instr.pp term)))
    layout;
  Buffer.contents buf

(* ---- parsing ---- *)

type pending_term =
  | P_cond of {
      cr : Reg.t;
      cond : Instr.cond;
      expect : bool;
      taken : Label.t;
      fallthru : Label.t option;
    }
  | P_jump of Label.t
  | P_halt
  | P_call of Instr.kind  (** calls and other body kinds never terminate *)

let strip_comment line =
  let cut c s = match String.index_opt s c with Some i -> String.sub s 0 i | None -> s in
  cut ';' (cut '#' line)

let parse_reg ~line gen s =
  let s = String.trim s in
  let mk cls skip =
    match int_of_string_opt (String.sub s skip (String.length s - skip)) with
    | Some id when id >= 0 -> Reg.Gen.reserve gen cls id
    | Some _ | None -> err line "bad register %S" s
  in
  if String.length s >= 3 && s.[0] = 'c' && s.[1] = 'r' then mk Reg.Cr 2
  else if String.length s >= 2 && s.[0] = 'r' then mk Reg.Gpr 1
  else if String.length s >= 2 && s.[0] = 'f' then mk Reg.Fpr 1
  else err line "bad register %S" s

let parse_operand ~line gen s =
  let s = String.trim s in
  match int_of_string_opt s with
  | Some n -> Instr.Imm n
  | None -> Instr.Reg (parse_reg ~line gen s)

let parse_cond ~line s =
  match String.trim s with
  | "lt" -> Instr.Lt
  | "gt" -> Instr.Gt
  | "eq" -> Instr.Eq
  | "le" -> Instr.Le
  | "ge" -> Instr.Ge
  | "ne" -> Instr.Ne
  | other -> err line "bad condition %S" other

(* "mem(rB,OFF)" -> (base string, offset) *)
let parse_mem ~line s =
  let s = String.trim s in
  match String.index_opt s '(' , String.index_opt s ')' with
  | Some o, Some c
    when o = 3 && c = String.length s - 1 && String.sub s 0 3 = "mem" -> (
      let inner = String.sub s 4 (c - 4) in
      match String.split_on_char ',' inner with
      | [ base; off ] -> (
          match int_of_string_opt (String.trim off) with
          | Some n -> (base, n)
          | None -> err line "bad memory offset in %S" s)
      | _ -> err line "bad memory operand %S" s)
  | _ -> err line "bad memory operand %S" s

let split2 ~line ~on s what =
  match String.index_opt s on with
  | Some i ->
      ( String.sub s 0 i,
        String.sub s (i + 1) (String.length s - i - 1) )
  | None -> err line "expected %c in %s %S" on what s

let binop_of_mnemonic = function
  | "A" -> Some Instr.Add
  | "S" -> Some Instr.Sub
  | "MUL" -> Some Instr.Mul
  | "DIV" -> Some Instr.Div
  | "REM" -> Some Instr.Rem
  | "AND" -> Some Instr.And
  | "OR" -> Some Instr.Or
  | "XOR" -> Some Instr.Xor
  | "SL" -> Some Instr.Shl
  | "SR" -> Some Instr.Shr
  | _ -> None

let fbinop_of_mnemonic = function
  | "FA" -> Some Instr.Fadd
  | "FS" -> Some Instr.Fsub
  | "FM" -> Some Instr.Fmul
  | "FD" -> Some Instr.Fdiv
  | _ -> None

(* Parse one instruction line into either a body kind or a pending
   terminator. *)
let parse_line ~line gen text =
  let text = String.trim text in
  let mnemonic, rest =
    match String.index_opt text ' ' with
    | Some i ->
        ( String.sub text 0 i,
          String.trim (String.sub text (i + 1) (String.length text - i - 1)) )
    | None -> (text, "")
  in
  let reg = parse_reg ~line gen in
  let operand = parse_operand ~line gen in
  let body k = `Body k in
  match mnemonic with
  | "HALT" -> `Term P_halt
  | "B" -> `Term (P_jump (String.trim rest))
  | "BT" | "BF" -> (
      let expect = mnemonic = "BT" in
      let rest, fallthru =
        match String.index_opt rest '-' with
        | Some i
          when i + 1 < String.length rest && rest.[i + 1] = '>' ->
            ( String.trim (String.sub rest 0 i),
              Some
                (String.trim (String.sub rest (i + 2) (String.length rest - i - 2)))
            )
        | Some _ | None -> (rest, None)
      in
      match String.split_on_char ',' rest with
      | [ taken; cr; cond ] ->
          `Term
            (P_cond
               {
                 cr = reg cr;
                 cond = parse_cond ~line cond;
                 expect;
                 taken = String.trim taken;
                 fallthru;
               })
      | _ -> err line "bad branch %S" rest)
  | "L" | "LU" ->
      let lhs, rhs = split2 ~line ~on:'=' rest "load" in
      let base_s, offset = parse_mem ~line rhs in
      let base = reg base_s in
      if mnemonic = "L" then body (Instr.Load { dst = reg lhs; base; offset; update = false })
      else begin
        match String.split_on_char ',' lhs with
        | [ dst; base2 ] ->
            if not (Reg.equal (reg base2) base) then
              err line "update load base mismatch in %S" rest;
            body (Instr.Load { dst = reg dst; base; offset; update = true })
        | _ -> err line "bad update load %S" rest
      end
  | "ST" | "STU" ->
      let lhs, rhs = split2 ~line ~on:'=' rest "store" in
      let src = reg rhs in
      if mnemonic = "ST" then begin
        let base_s, offset = parse_mem ~line lhs in
        body (Instr.Store { src; base = reg base_s; offset; update = false })
      end
      else begin
        (* mem(rB,off),rB=src *)
        match String.rindex_opt lhs ',' with
        | Some i ->
            let mem_part = String.sub lhs 0 i in
            let base2 = String.sub lhs (i + 1) (String.length lhs - i - 1) in
            let base_s, offset = parse_mem ~line mem_part in
            let base = reg base_s in
            if not (Reg.equal (reg base2) base) then
              err line "update store base mismatch in %S" rest;
            body (Instr.Store { src; base; offset; update = true })
        | None -> err line "bad update store %S" rest
      end
  | "LI" ->
      let lhs, rhs = split2 ~line ~on:'=' rest "li" in
      (match int_of_string_opt (String.trim rhs) with
      | Some value -> body (Instr.Load_imm { dst = reg lhs; value })
      | None -> err line "bad immediate %S" rhs)
  | "LR" ->
      let lhs, rhs = split2 ~line ~on:'=' rest "move" in
      body (Instr.Move { dst = reg lhs; src = reg rhs })
  | "C" ->
      let lhs, rhs = split2 ~line ~on:'=' rest "compare" in
      (match String.split_on_char ',' rhs with
      | [ a; b ] ->
          body (Instr.Compare { dst = reg lhs; lhs = reg a; rhs = operand b })
      | _ -> err line "bad compare %S" rest)
  | "FC" ->
      let lhs, rhs = split2 ~line ~on:'=' rest "fcompare" in
      (match String.split_on_char ',' rhs with
      | [ a; b ] ->
          body (Instr.Fcompare { dst = reg lhs; lhs = reg a; rhs = reg b })
      | _ -> err line "bad fcompare %S" rest)
  | "CALL" ->
      (* [ret=]name(arg,...) *)
      let target, ret =
        match String.index_opt rest '=' with
        | Some i
          when (match String.index_opt rest '(' with
               | Some p -> i < p
               | None -> false) ->
            ( String.sub rest (i + 1) (String.length rest - i - 1),
              Some (reg (String.sub rest 0 i)) )
        | Some _ | None -> (rest, None)
      in
      (match String.index_opt target '(', String.index_opt target ')' with
      | Some o, Some c when c = String.length target - 1 && o < c ->
          let name = String.trim (String.sub target 0 o) in
          let args_s = String.trim (String.sub target (o + 1) (c - o - 1)) in
          let args =
            if args_s = "" then []
            else List.map reg (String.split_on_char ',' args_s)
          in
          `Term (P_call (Instr.Call { name; args; ret }))
      | _ -> err line "bad call %S" rest)
  | m -> (
      let base, imm_form =
        if String.length m > 1 && m.[String.length m - 1] = 'I' then
          (String.sub m 0 (String.length m - 1), true)
        else (m, false)
      in
      match binop_of_mnemonic base, fbinop_of_mnemonic m with
      | Some op, _ ->
          let lhs, rhs = split2 ~line ~on:'=' rest "binop" in
          (match String.split_on_char ',' rhs with
          | [ a; b ] ->
              let rhs_op =
                if imm_form then
                  match int_of_string_opt (String.trim b) with
                  | Some n -> Instr.Imm n
                  | None -> err line "immediate expected in %S" rest
                else operand b
              in
              body (Instr.Binop { op; dst = reg lhs; lhs = reg a; rhs = rhs_op })
          | _ -> err line "bad binop %S" rest)
      | None, Some op ->
          let lhs, rhs = split2 ~line ~on:'=' rest "fbinop" in
          (match String.split_on_char ',' rhs with
          | [ a; b ] ->
              body (Instr.Fbinop { op; dst = reg lhs; lhs = reg a; rhs = reg b })
          | _ -> err line "bad fbinop %S" rest)
      | None, None -> err line "unknown mnemonic %S" mnemonic)

type raw_block = {
  rb_label : Label.t;
  rb_line : int;
  mutable rb_body : Instr.kind list;  (** reversed *)
  mutable rb_term : (pending_term * int) option;
}

let parse text =
  let gen = Reg.Gen.create () in
  let blocks = ref [] in
  let current = ref None in
  let start_block ~line label =
    let rb = { rb_label = label; rb_line = line; rb_body = []; rb_term = None } in
    blocks := rb :: !blocks;
    current := Some rb
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun idx raw ->
      let line = idx + 1 in
      let text = String.trim (strip_comment raw) in
      if text <> "" then
        if String.length text > 1 && text.[String.length text - 1] = ':' then
          start_block ~line (String.trim (String.sub text 0 (String.length text - 1)))
        else
          match !current with
          | None -> err line "instruction before the first label"
          | Some rb -> (
              if rb.rb_term <> None then
                err line "instruction after the block terminator";
              match parse_line ~line gen text with
              | `Body k -> rb.rb_body <- k :: rb.rb_body
              | `Term (P_call k) -> rb.rb_body <- k :: rb.rb_body
              | `Term t -> rb.rb_term <- Some (t, line)))
    lines;
  let ordered = List.rev !blocks in
  if ordered = [] then raise (Error "empty program");
  (* Resolve fallthroughs and build the graph. *)
  let cfg = Cfg.create ~reg_gen:gen () in
  List.iter (fun rb -> ignore (Cfg.add_block cfg ~label:rb.rb_label)) ordered;
  let rec next_of = function
    | a :: (b :: _ as rest) ->
        (a.rb_label, b.rb_label) :: next_of rest
    | [ _ ] | [] -> []
  in
  let next_table = next_of ordered in
  List.iter
    (fun rb ->
      let b = Cfg.block_of_label cfg rb.rb_label in
      List.iter
        (fun k -> Vec.push b.Block.body (Cfg.make_instr cfg k))
        (List.rev rb.rb_body);
      let term_kind =
        match rb.rb_term with
        | Some (P_halt, _) -> Instr.Halt
        | Some (P_jump target, _) -> Instr.Jump { target }
        | Some (P_cond { cr; cond; expect; taken; fallthru }, tline) ->
            let fallthru =
              match fallthru with
              | Some f -> f
              | None -> (
                  match List.assoc_opt rb.rb_label next_table with
                  | Some next -> next
                  | None ->
                      err tline
                        "conditional branch in the last block needs an \
                         explicit '->' fallthrough")
            in
            Instr.Branch_cond { cr; cond; expect; taken; fallthru }
        | Some (P_call _, _) -> assert false
        | None -> (
            (* Implicit fallthrough for hand-written input. *)
            match List.assoc_opt rb.rb_label next_table with
            | Some next -> Instr.Jump { target = next }
            | None -> Instr.Halt)
      in
      Cfg.set_term cfg b.Block.id (Cfg.make_instr cfg term_kind))
    ordered;
  Cfg.set_entry cfg (Cfg.block_of_label cfg (List.hd ordered).rb_label).Block.id;
  (match Validate.check cfg with
  | Ok () -> ()
  | Error es ->
      raise (Error (Fmt.str "invalid program: %a" Fmt.(list ~sep:(any "; ") string) es)));
  cfg
