open Gis_ir
module B = Builder

type compiled = {
  cfg : Cfg.t;
  vars : (string * Reg.t) list;
  arrays : (string * int * int) list;
}

let first_array_base = 1024

exception Error of string

let err fmt = Fmt.kstr (fun m -> raise (Error m)) fmt

type env = {
  cfg : Cfg.t;
  var_regs : (string, Reg.t) Hashtbl.t;
  array_info : (string, int * int * Reg.t) Hashtbl.t;
      (** name -> (base address, length, base register) *)
  mutable current : Block.t;
}

let emit env kind =
  Gis_util.Vec.push env.current.Block.body (Cfg.make_instr env.cfg kind)

let set_term env kind =
  Cfg.set_term env.cfg env.current.Block.id (Cfg.make_instr env.cfg kind)

let terminate env kind next =
  set_term env kind;
  env.current <- next

let new_block env = Cfg.add_block env.cfg ~label:(Label.fresh ~prefix:"L" ())

let fresh_gpr env = Cfg.fresh_reg env.cfg Reg.Gpr
let fresh_cr env = Cfg.fresh_reg env.cfg Reg.Cr

let var_of env name =
  match Hashtbl.find_opt env.var_regs name with
  | Some r -> r
  | None ->
      if Hashtbl.mem env.array_info name then
        err "%s is an array; it needs an index" name
      else err "undeclared variable %s" name

let array_of env name =
  match Hashtbl.find_opt env.array_info name with
  | Some info -> info
  | None ->
      if Hashtbl.mem env.var_regs name then
        err "%s is a scalar, not an array" name
      else err "undeclared array %s" name

let binop_of = function
  | Ast.Add -> Instr.Add
  | Ast.Sub -> Instr.Sub
  | Ast.Mul -> Instr.Mul
  | Ast.Div -> Instr.Div
  | Ast.Rem -> Instr.Rem
  | Ast.And -> Instr.And
  | Ast.Or -> Instr.Or
  | Ast.Xor -> Instr.Xor
  | Ast.Shl -> Instr.Shl
  | Ast.Shr -> Instr.Shr

let cond_of = function
  | Ast.Lt -> Instr.Lt
  | Ast.Gt -> Instr.Gt
  | Ast.Le -> Instr.Le
  | Ast.Ge -> Instr.Ge
  | Ast.Eq -> Instr.Eq
  | Ast.Ne -> Instr.Ne

(* Compute the byte address of [a[idx]] into a fresh register. *)
let rec array_addr env name idx =
  let _, _, base_reg = array_of env name in
  match idx with
  | Ast.Int n ->
      (base_reg, 4 * n)  (* constant index folds into the load offset *)
  | _ ->
      let idx_reg = compile_expr env idx in
      let scaled = fresh_gpr env in
      emit env (B.binop Instr.Shl ~dst:scaled ~lhs:idx_reg ~rhs:(Instr.Imm 2));
      let addr = fresh_gpr env in
      emit env (B.add ~dst:addr ~lhs:base_reg ~rhs:scaled);
      (addr, 0)

and compile_expr env (e : Ast.expr) : Reg.t =
  match e with
  | Ast.Int n ->
      let dst = fresh_gpr env in
      emit env (B.li ~dst n);
      dst
  | Ast.Var v -> var_of env v
  | Ast.Index (a, idx) ->
      let base, offset = array_addr env a idx in
      let dst = fresh_gpr env in
      emit env (B.load ~dst ~base ~offset);
      dst
  | Ast.Binop (op, lhs, rhs) -> (
      let l = compile_expr env lhs in
      let dst = fresh_gpr env in
      match rhs with
      | Ast.Int n ->
          emit env (B.binop (binop_of op) ~dst ~lhs:l ~rhs:(Instr.Imm n));
          dst
      | _ ->
          let r = compile_expr env rhs in
          emit env (B.binop (binop_of op) ~dst ~lhs:l ~rhs:(Instr.Reg r));
          dst)
  | Ast.Neg inner ->
      let v = compile_expr env inner in
      let zero = fresh_gpr env in
      emit env (B.li ~dst:zero 0);
      let dst = fresh_gpr env in
      emit env (B.sub ~dst ~lhs:zero ~rhs:v);
      dst

(* Lower a condition to control flow: leaves the current block
   terminated, control proceeds at [if_true] or [if_false]. *)
let rec compile_cond env (c : Ast.cond) ~if_true ~if_false =
  match c with
  | Ast.Rel (op, lhs, rhs) -> (
      let l = compile_expr env lhs in
      let cr = fresh_cr env in
      let finish () =
        (* BT to the true target, falling through to the false one. The
           caller repoints [env.current] afterwards — every use of
           [compile_cond] continues in an explicitly created block. *)
        set_term env
          (B.bt ~cr ~cond:(cond_of op) ~taken:if_true ~fallthru:if_false)
      in
      match rhs with
      | Ast.Int n ->
          emit env (B.cmpi ~dst:cr ~lhs:l n);
          finish ()
      | _ ->
          let r = compile_expr env rhs in
          emit env (B.cmp ~dst:cr ~lhs:l ~rhs:r);
          finish ())
  | Ast.Not inner -> compile_cond env inner ~if_true:if_false ~if_false:if_true
  | Ast.And_also (a, b) ->
      let mid = new_block env in
      compile_cond env a ~if_true:mid.Block.label ~if_false;
      env.current <- mid;
      compile_cond env b ~if_true ~if_false
  | Ast.Or_else (a, b) ->
      let mid = new_block env in
      compile_cond env a ~if_true ~if_false:mid.Block.label;
      env.current <- mid;
      compile_cond env b ~if_true ~if_false

let rec compile_stmt env (s : Ast.stmt) =
  match s with
  | Ast.Assign (v, e) ->
      let dst = var_of env v in
      let value = compile_expr env e in
      emit env (B.mr ~dst ~src:value)
  | Ast.Store (a, idx, e) ->
      let value = compile_expr env e in
      let base, offset = array_addr env a idx in
      emit env (B.store ~src:value ~base ~offset)
  | Ast.If (c, then_, else_) ->
      let then_blk = new_block env in
      let else_blk = new_block env in
      let join = new_block env in
      compile_cond env c ~if_true:then_blk.Block.label
        ~if_false:else_blk.Block.label;
      env.current <- then_blk;
      List.iter (compile_stmt env) then_;
      terminate env (B.jmp join.Block.label) else_blk;
      List.iter (compile_stmt env) else_;
      terminate env (B.jmp join.Block.label) join
  | Ast.While (c, body) ->
      (* Loop inversion, as the XL compiler does (the paper's Figure 1
         while-loop compiles to Figure 2's bottom-tested loop): a guard
         copy of the test at the entry, the real test at the bottom, so
         the loop body contains no exit branch above its own work. *)
      let body_blk = new_block env in
      let exit_blk = new_block env in
      compile_cond env c ~if_true:body_blk.Block.label
        ~if_false:exit_blk.Block.label;
      env.current <- body_blk;
      List.iter (compile_stmt env) body;
      compile_cond env c ~if_true:body_blk.Block.label
        ~if_false:exit_blk.Block.label;
      env.current <- exit_blk
  | Ast.Do_while (body, c) ->
      let body_blk = new_block env in
      let exit_blk = new_block env in
      terminate env (B.jmp body_blk.Block.label) body_blk;
      List.iter (compile_stmt env) body;
      compile_cond env c ~if_true:body_blk.Block.label
        ~if_false:exit_blk.Block.label;
      env.current <- exit_blk
  | Ast.For (init, c, step, body) ->
      Option.iter (compile_stmt env) init;
      let body_blk = new_block env in
      let exit_blk = new_block env in
      (match c with
      | Some c ->
          compile_cond env c ~if_true:body_blk.Block.label
            ~if_false:exit_blk.Block.label
      | None -> terminate env (B.jmp body_blk.Block.label) body_blk);
      env.current <- body_blk;
      List.iter (compile_stmt env) body;
      Option.iter (compile_stmt env) step;
      (match c with
      | Some c ->
          compile_cond env c ~if_true:body_blk.Block.label
            ~if_false:exit_blk.Block.label;
          env.current <- exit_blk
      | None -> terminate env (B.jmp body_blk.Block.label) exit_blk)
  | Ast.Print e ->
      let v = compile_expr env e in
      emit env (B.call "print_int" [ v ])
  | Ast.Block body -> List.iter (compile_stmt env) body

let compile (p : Ast.program) =
  let cfg = Cfg.create () in
  let entry = Cfg.add_block cfg ~label:"L.entry" in
  Cfg.set_entry cfg entry.Block.id;
  let env =
    { cfg; var_regs = Hashtbl.create 16; array_info = Hashtbl.create 8;
      current = entry }
  in
  let next_base = ref first_array_base in
  let declare_once name =
    if Hashtbl.mem env.var_regs name || Hashtbl.mem env.array_info name then
      err "duplicate declaration of %s" name
  in
  List.iter
    (fun d ->
      match d with
      | Ast.Scalar (name, init) ->
          declare_once name;
          let r = fresh_gpr env in
          Hashtbl.replace env.var_regs name r;
          (* Uninitialised scalars emit nothing: they read as whatever
             the environment provides (the simulator input mechanism, or
             zero), exactly like the paper's r27 = n parameter. *)
          (match init with
          | Some v -> emit env (B.li ~dst:r v)
          | None -> ())
      | Ast.Array (name, len) ->
          declare_once name;
          let base = !next_base in
          next_base := base + (4 * len) + 8;
          let r = fresh_gpr env in
          emit env (B.li ~dst:r base);
          Hashtbl.replace env.array_info name (base, len, r))
    p.Ast.decls;
  List.iter (compile_stmt env) p.Ast.body;
  set_term env Instr.Halt;
  let cfg = Cfg.compact cfg in
  Validate.check_exn cfg;
  {
    cfg;
    vars = Hashtbl.fold (fun k v acc -> (k, v) :: acc) env.var_regs [];
    arrays =
      Hashtbl.fold
        (fun k (base, len, _) acc -> (k, base, len) :: acc)
        env.array_info [];
  }

let compile_string src = compile (Parser.parse src)

let var_reg c name =
  match List.assoc_opt name c.vars with
  | Some r -> r
  | None -> err "unknown variable %s" name

let array_input c inits =
  List.concat_map
    (fun (name, values) ->
      match List.find_opt (fun (n, _, _) -> n = name) c.arrays with
      | None -> err "unknown array %s" name
      | Some (_, base, len) ->
          if List.length values > len then
            err "array %s holds %d words, got %d" name len (List.length values);
          List.mapi (fun i v -> (base + (4 * i), v)) values)
    inits
