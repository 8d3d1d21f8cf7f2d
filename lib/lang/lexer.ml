(** Hand-written lexer for the subject language. *)

type token =
  | INT of int
  | STRING of string
  | IDENT of string
  | KW of string       (* keywords *)
  | SYS of string      (* @name    *)
  | OP of string       (* #name    *)
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | LCURLYIDX | RCURLYIDX   (* map index braces: m{k} — disambiguated by parser *)
  | SEMI | COMMA | DOT | ASSIGN
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | EQEQ | NEQ | LT | LE | GT | GE
  | ANDAND | OROR | BANG
  | EOF

type located = { tok : token; line : int }

exception Lex_error of string * int

let keywords =
  [ "class"; "global"; "fn"; "main"; "if"; "else"; "while"; "return";
    "spawn"; "join"; "sync"; "lock"; "unlock"; "wait"; "notify"; "notifyall";
    "assert"; "print"; "new"; "newmap"; "maphas"; "null"; "true"; "false";
    "yield"; "nop" ]

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = '$'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let tokenize (src : string) : located list =
  let n = String.length src in
  let toks = ref [] in
  let line = ref 1 in
  let emit t = toks := { tok = t; line = !line } :: !toks in
  let i = ref 0 in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  while !i < n do
    let c = src.[!i] in
    if c = '\n' then (incr line; incr i)
    else if c = ' ' || c = '\t' || c = '\r' then incr i
    else if c = '/' && peek 1 = Some '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '/' && peek 1 = Some '*' then begin
      i := !i + 2;
      let closed = ref false in
      while not !closed && !i < n do
        if src.[!i] = '\n' then incr line;
        if src.[!i] = '*' && peek 1 = Some '/' then (closed := true; i := !i + 2)
        else incr i
      done;
      if not !closed then raise (Lex_error ("unterminated comment", !line))
    end
    else if is_digit c then begin
      let j = ref !i in
      while !j < n && is_digit src.[!j] do incr j done;
      let lit = String.sub src !i (!j - !i) in
      (match int_of_string_opt lit with
      | Some v -> emit (INT v)
      | None -> raise (Lex_error ("integer literal out of range: " ^ lit, !line)));
      i := !j
    end
    else if is_ident_start c then begin
      let j = ref !i in
      while !j < n && is_ident_char src.[!j] do incr j done;
      let s = String.sub src !i (!j - !i) in
      emit (if List.mem s keywords then KW s else IDENT s);
      i := !j
    end
    else if c = '@' || c = '#' then begin
      let j = ref (!i + 1) in
      while !j < n && is_ident_char src.[!j] do incr j done;
      if !j = !i + 1 then raise (Lex_error (Printf.sprintf "expected name after '%c'" c, !line));
      let s = String.sub src (!i + 1) (!j - !i - 1) in
      emit (if c = '@' then SYS s else OP s);
      i := !j
    end
    else if c = '"' then begin
      let buf = Buffer.create 16 in
      let j = ref (!i + 1) in
      let closed = ref false in
      while not !closed && !j < n do
        match src.[!j] with
        | '"' -> closed := true; incr j
        | '\\' when !j + 1 < n ->
          let e = src.[!j + 1] in
          Buffer.add_char buf
            (match e with 'n' -> '\n' | 't' -> '\t' | c -> c);
          j := !j + 2
        | '\n' -> raise (Lex_error ("newline in string literal", !line))
        | ch -> Buffer.add_char buf ch; incr j
      done;
      if not !closed then raise (Lex_error ("unterminated string", !line));
      emit (STRING (Buffer.contents buf));
      i := !j
    end
    else begin
      let two t = emit t; i := !i + 2 in
      let one t = emit t; incr i in
      match c, peek 1 with
      | '=', Some '=' -> two EQEQ
      | '!', Some '=' -> two NEQ
      | '<', Some '=' -> two LE
      | '>', Some '=' -> two GE
      | '&', Some '&' -> two ANDAND
      | '|', Some '|' -> two OROR
      | '=', _ -> one ASSIGN
      | '!', _ -> one BANG
      | '<', _ -> one LT
      | '>', _ -> one GT
      | '+', _ -> one PLUS
      | '-', _ -> one MINUS
      | '*', _ -> one STAR
      | '/', _ -> one SLASH
      | '%', _ -> one PERCENT
      | '(', _ -> one LPAREN
      | ')', _ -> one RPAREN
      | '{', _ -> one LBRACE
      | '}', _ -> one RBRACE
      | '[', _ -> one LBRACKET
      | ']', _ -> one RBRACKET
      | ';', _ -> one SEMI
      | ',', _ -> one COMMA
      | '.', _ -> one DOT
      | _ -> raise (Lex_error (Printf.sprintf "unexpected character %C" c, !line))
    end
  done;
  emit EOF;
  List.rev !toks

let token_name = function
  | INT _ -> "integer" | STRING _ -> "string" | IDENT s -> Printf.sprintf "identifier %s" s
  | KW s -> Printf.sprintf "'%s'" s | SYS s -> "@" ^ s | OP s -> "#" ^ s
  | LPAREN -> "(" | RPAREN -> ")" | LBRACE -> "{" | RBRACE -> "}"
  | LBRACKET -> "[" | RBRACKET -> "]"
  | LCURLYIDX -> "{" | RCURLYIDX -> "}"
  | SEMI -> ";" | COMMA -> "," | DOT -> "." | ASSIGN -> "="
  | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | SLASH -> "/" | PERCENT -> "%"
  | EQEQ -> "==" | NEQ -> "!=" | LT -> "<" | LE -> "<=" | GT -> ">" | GE -> ">="
  | ANDAND -> "&&" | OROR -> "||" | BANG -> "!"
  | EOF -> "end of input"
