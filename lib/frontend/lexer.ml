type token =
  | INT of int
  | IDENT of string
  | KW_INT
  | KW_IF
  | KW_ELSE
  | KW_WHILE
  | KW_DO
  | KW_FOR
  | KW_PRINT
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | AMP
  | BAR
  | CARET
  | SHL
  | SHR
  | LT
  | GT
  | LE
  | GE
  | EQEQ
  | NEQ
  | ANDAND
  | OROR
  | BANG
  | ASSIGN
  | SEMI
  | COMMA
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | EOF

let pp_token ppf t =
  Fmt.string ppf
    (match t with
    | INT n -> string_of_int n
    | IDENT s -> s
    | KW_INT -> "int"
    | KW_IF -> "if"
    | KW_ELSE -> "else"
    | KW_WHILE -> "while"
    | KW_DO -> "do"
    | KW_FOR -> "for"
    | KW_PRINT -> "print"
    | PLUS -> "+"
    | MINUS -> "-"
    | STAR -> "*"
    | SLASH -> "/"
    | PERCENT -> "%"
    | AMP -> "&"
    | BAR -> "|"
    | CARET -> "^"
    | SHL -> "<<"
    | SHR -> ">>"
    | LT -> "<"
    | GT -> ">"
    | LE -> "<="
    | GE -> ">="
    | EQEQ -> "=="
    | NEQ -> "!="
    | ANDAND -> "&&"
    | OROR -> "||"
    | BANG -> "!"
    | ASSIGN -> "="
    | SEMI -> ";"
    | COMMA -> ","
    | LPAREN -> "("
    | RPAREN -> ")"
    | LBRACE -> "{"
    | RBRACE -> "}"
    | LBRACKET -> "["
    | RBRACKET -> "]"
    | EOF -> "<eof>")

exception Error of string

let keyword = function
  | "int" -> Some KW_INT
  | "if" -> Some KW_IF
  | "else" -> Some KW_ELSE
  | "while" -> Some KW_WHILE
  | "do" -> Some KW_DO
  | "for" -> Some KW_FOR
  | "print" | "printf" -> Some KW_PRINT
  | _ -> None

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || is_digit c

let tokenize src =
  let n = String.length src in
  let tokens = ref [] in
  let line = ref 1 in
  let emit t = tokens := (t, !line) :: !tokens in
  let fail i msg =
    raise (Error (Printf.sprintf "line %d (offset %d): %s" !line i msg))
  in
  let rec go i =
    if i >= n then emit EOF
    else
      match src.[i] with
      | '\n' ->
          incr line;
          go (i + 1)
      | ' ' | '\t' | '\r' -> go (i + 1)
      | '/' when i + 1 < n && src.[i + 1] = '/' ->
          let rec skip j = if j < n && src.[j] <> '\n' then skip (j + 1) else j in
          go (skip (i + 2))
      | '/' when i + 1 < n && src.[i + 1] = '*' ->
          let rec skip j =
            if j + 1 >= n then fail j "unterminated comment"
            else if src.[j] = '*' && src.[j + 1] = '/' then j + 2
            else begin
              if src.[j] = '\n' then incr line;
              skip (j + 1)
            end
          in
          go (skip (i + 2))
      | c when is_digit c ->
          let rec span j = if j < n && is_digit src.[j] then span (j + 1) else j in
          let j = span i in
          (match int_of_string_opt (String.sub src i (j - i)) with
          | Some k -> emit (INT k)
          | None -> fail i "integer literal out of range");
          go j
      | c when is_ident_start c ->
          let rec span j = if j < n && is_ident src.[j] then span (j + 1) else j in
          let j = span i in
          let word = String.sub src i (j - i) in
          emit (Option.value ~default:(IDENT word) (keyword word));
          go j
      | '<' when i + 1 < n && src.[i + 1] = '<' -> emit SHL; go (i + 2)
      | '>' when i + 1 < n && src.[i + 1] = '>' -> emit SHR; go (i + 2)
      | '<' when i + 1 < n && src.[i + 1] = '=' -> emit LE; go (i + 2)
      | '>' when i + 1 < n && src.[i + 1] = '=' -> emit GE; go (i + 2)
      | '=' when i + 1 < n && src.[i + 1] = '=' -> emit EQEQ; go (i + 2)
      | '!' when i + 1 < n && src.[i + 1] = '=' -> emit NEQ; go (i + 2)
      | '&' when i + 1 < n && src.[i + 1] = '&' -> emit ANDAND; go (i + 2)
      | '|' when i + 1 < n && src.[i + 1] = '|' -> emit OROR; go (i + 2)
      | '<' -> emit LT; go (i + 1)
      | '>' -> emit GT; go (i + 1)
      | '=' -> emit ASSIGN; go (i + 1)
      | '!' -> emit BANG; go (i + 1)
      | '&' -> emit AMP; go (i + 1)
      | '|' -> emit BAR; go (i + 1)
      | '^' -> emit CARET; go (i + 1)
      | '+' -> emit PLUS; go (i + 1)
      | '-' -> emit MINUS; go (i + 1)
      | '*' -> emit STAR; go (i + 1)
      | '/' -> emit SLASH; go (i + 1)
      | '%' -> emit PERCENT; go (i + 1)
      | ';' -> emit SEMI; go (i + 1)
      | ',' -> emit COMMA; go (i + 1)
      | '(' -> emit LPAREN; go (i + 1)
      | ')' -> emit RPAREN; go (i + 1)
      | '{' -> emit LBRACE; go (i + 1)
      | '}' -> emit RBRACE; go (i + 1)
      | '[' -> emit LBRACKET; go (i + 1)
      | ']' -> emit RBRACKET; go (i + 1)
      | c -> fail i (Printf.sprintf "unexpected character %C" c)
  in
  go 0;
  List.rev !tokens
