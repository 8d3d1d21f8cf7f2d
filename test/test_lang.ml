(* Lexer, parser, desugaring, validator and pretty-printer tests. *)

open Lang

let parse s = Parser.parse_program s
let parse_ok s = Check.validate_exn (parse s)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let test_lexer_basic () =
  let toks = Lexer.tokenize "x = 42; // comment\ny = \"hi\\n\";" in
  let kinds = List.map (fun (t : Lexer.located) -> t.tok) toks in
  Alcotest.(check bool) "ident first" true
    (match kinds with Lexer.IDENT "x" :: _ -> true | _ -> false);
  Alcotest.(check bool) "has int 42" true (List.mem (Lexer.INT 42) kinds);
  Alcotest.(check bool) "string unescaped" true (List.mem (Lexer.STRING "hi\n") kinds);
  Alcotest.(check bool) "ends with EOF" true (List.mem Lexer.EOF kinds)

let test_lexer_operators () =
  let toks = Lexer.tokenize "== != <= >= && || ! < > + - * / %" in
  let kinds = List.map (fun (t : Lexer.located) -> t.tok) toks in
  List.iter
    (fun k -> Alcotest.(check bool) (Lexer.token_name k) true (List.mem k kinds))
    [ Lexer.EQEQ; NEQ; LE; GE; ANDAND; OROR; BANG; LT; GT; PLUS; MINUS; STAR; SLASH; PERCENT ]

let test_lexer_line_numbers () =
  let toks = Lexer.tokenize "a\nb\n\nc" in
  let lines =
    List.filter_map
      (fun (t : Lexer.located) ->
        match t.tok with Lexer.IDENT _ -> Some t.line | _ -> None)
      toks
  in
  Alcotest.(check (list int)) "line tracking" [ 1; 2; 4 ] lines

let test_lexer_block_comment () =
  let toks = Lexer.tokenize "a /* multi\nline */ b" in
  let idents =
    List.filter_map
      (fun (t : Lexer.located) -> match t.tok with Lexer.IDENT s -> Some s | _ -> None)
      toks
  in
  Alcotest.(check (list string)) "comment skipped" [ "a"; "b" ] idents

let test_lexer_errors () =
  Alcotest.check_raises "unterminated string" (Lexer.Lex_error ("unterminated string", 1))
    (fun () -> ignore (Lexer.tokenize "\"abc"));
  Alcotest.(check bool) "bad char raises" true
    (try ignore (Lexer.tokenize "a ^ b"); false with Lexer.Lex_error _ -> true);
  (* one past max_int: rejected with its line, not wrapped or a bare Failure *)
  Alcotest.check_raises "int literal overflow"
    (Lexer.Lex_error ("integer literal out of range: 4611686018427387904", 2))
    (fun () -> ignore (Lexer.tokenize "x = 1;\nx = 4611686018427387904;"));
  Alcotest.(check bool) "max_int literal accepted" true
    (List.exists
       (fun (t : Lexer.located) -> t.tok = Lexer.INT max_int)
       (Lexer.tokenize (string_of_int max_int)))

let test_lexer_sys_opaque () =
  let toks = Lexer.tokenize "@time #hash" in
  let kinds = List.map (fun (t : Lexer.located) -> t.tok) toks in
  Alcotest.(check bool) "syscall token" true (List.mem (Lexer.SYS "time") kinds);
  Alcotest.(check bool) "opaque token" true (List.mem (Lexer.OP "hash") kinds)

(* ------------------------------------------------------------------ *)
(* Parser and desugaring                                                *)
(* ------------------------------------------------------------------ *)

let count_stmts p = Ast.fold_stmts (fun n _ -> n + 1) 0 p

(* every statement is in simple format: pure expressions never touch heap,
   so the only check needed is that parsing produced dedicated Load forms *)
let test_desugar_nested_loads () =
  let p = parse "class C { f; g; } main { x = new C; y = x.f + x.g; }" in
  let loads = Ast.fold_stmts (fun n s -> match s.node with Ast.Load _ -> n + 1 | _ -> n) 0 p in
  Alcotest.(check int) "two hoisted loads" 2 loads

let test_desugar_global () =
  let p = parse "global g; main { g = 5; x = g + 1; }" in
  let gl = Ast.fold_stmts (fun n s -> match s.node with Ast.GlobalLoad _ -> n + 1 | _ -> n) 0 p in
  let gs = Ast.fold_stmts (fun n s -> match s.node with Ast.GlobalStore _ -> n + 1 | _ -> n) 0 p in
  Alcotest.(check int) "one global load" 1 gl;
  Alcotest.(check int) "one global store" 1 gs

let test_desugar_while_cond () =
  (* the while condition reads the heap: its loads must be re-emitted at the
     end of the body so each iteration re-reads *)
  let p = parse "class C { f; } main { x = new C; while (x.f > 0) { x.f = x.f - 1; } }" in
  let loads = Ast.fold_stmts (fun n s -> match s.node with Ast.Load _ -> n + 1 | _ -> n) 0 p in
  (* one before the loop, one inside (for the store's rhs), one re-emitted *)
  Alcotest.(check bool) "at least 3 loads" true (loads >= 3)

let test_parse_precedence () =
  let p = parse "main { x = 1 + 2 * 3; }" in
  let found =
    Ast.fold_stmts
      (fun acc s ->
        match s.node with
        | Ast.Assign ("x", Binop (Add, Int 1, Binop (Mul, Int 2, Int 3))) -> true
        | _ -> acc)
      false p
  in
  Alcotest.(check bool) "mul binds tighter" true found

let test_parse_else_if () =
  let p = parse "main { x = 1; if (x == 1) { y = 1; } else if (x == 2) { y = 2; } else { y = 3; } }" in
  Alcotest.(check bool) "parses" true (count_stmts p > 0)

let test_parse_sync_spawn () =
  let p =
    parse_ok
      "class L {} global l; fn w(a) { sync (l) { nop; } } main { l = new L; spawn t = w(1); join t; }"
  in
  let spawns = Ast.fold_stmts (fun n s -> match s.node with Ast.Spawn _ -> n + 1 | _ -> n) 0 p in
  Alcotest.(check int) "spawn parsed" 1 spawns

let test_parse_map_syntax () =
  let p = parse "main { m = newmap; m{1} = 2; x = m{1}; h = maphas(m, 1); }" in
  let puts = Ast.fold_stmts (fun n s -> match s.node with Ast.MapPut _ -> n + 1 | _ -> n) 0 p in
  let gets = Ast.fold_stmts (fun n s -> match s.node with Ast.MapGet _ -> n + 1 | _ -> n) 0 p in
  Alcotest.(check (pair int int)) "map ops" (1, 1) (puts, gets)

let test_parse_errors () =
  let bad = [ "main { x = ; }"; "main { if x { } }"; "fn f() { }"; "main { x = 1 }" ] in
  List.iter
    (fun src ->
      Alcotest.(check bool) ("rejects: " ^ src) true
        (try ignore (parse src); false with Parser.Parse_error _ -> true))
    bad

let test_unique_sids () =
  let p = parse "main { x = 1; while (x < 10) { x = x + 1; if (x == 5) { x = x + 2; } } }" in
  let sids = Ast.fold_stmts (fun acc s -> s.sid :: acc) [] p in
  Alcotest.(check int) "sids unique" (List.length sids)
    (List.length (List.sort_uniq compare sids))

(* ------------------------------------------------------------------ *)
(* Validator                                                            *)
(* ------------------------------------------------------------------ *)

let errs s = List.length (Check.validate (parse s))

let test_check_errors () =
  Alcotest.(check bool) "unknown class" true (errs "main { x = new Foo; }" > 0);
  Alcotest.(check bool) "undefined fn" true (errs "main { f(); }" > 0);
  Alcotest.(check bool) "arity" true (errs "fn f(a) { nop; } main { f(); }" > 0);
  Alcotest.(check bool) "return in main" true (errs "main { return 1; }" > 0);
  Alcotest.(check bool) "unknown syscall" true (errs "main { x = @bogus(); }" > 0);
  Alcotest.(check bool) "unknown opaque" true (errs "main { x = #bogus(1); }" > 0);
  Alcotest.(check bool) "param shadows global" true
    (errs "global g; fn f(g) { nop; } main { f(1); }" > 0);
  Alcotest.(check int) "clean program" 0
    (errs "class C { f; } fn f(a) { return a; } main { x = f(1); }")

(* ------------------------------------------------------------------ *)
(* Pretty-printer roundtrip                                             *)
(* ------------------------------------------------------------------ *)

(* structural equality up to sid/line *)
let rec strip_stmt (s : Ast.stmt) : Ast.stmt =
  let node =
    match s.node with
    | Ast.If (c, a, b) -> Ast.If (c, List.map strip_stmt a, List.map strip_stmt b)
    | Ast.While (c, b) -> Ast.While (c, List.map strip_stmt b)
    | Ast.Sync (m, b) -> Ast.Sync (m, List.map strip_stmt b)
    | n -> n
  in
  { sid = 0; line = 0; node }

let strip (p : Ast.program) : Ast.program =
  {
    p with
    main = List.map strip_stmt p.main;
    fns = List.map (fun (f : Ast.fndef) -> { f with body = List.map strip_stmt f.body }) p.fns;
  }

let roundtrip_src = [
  "class C { f; g; } global x; fn w(a, b) { c = new C; c.f = a + b; return c.f; } main { x = w(1, 2); print x; }";
  "main { m = newmap; m{\"k\"} = 1; v = m{\"k\"}; h = maphas(m, \"k\"); assert h; }";
  "class L {} global l; fn w() { sync (l) { lock l; unlock l; wait l; } } main { l = new L; spawn t = w(); notifyall l; }";
  "main { a = new[10]; a[0] = 5; x = a[0]; while (x > 0) { x = x - 1; } if (x == 0) { print x; } else { yield; } }";
  "main { t = @time(); r = @rand(10); h = #hash(t + r); s = #to_str(h); print s; }";
]

let test_pp_roundtrip () =
  List.iter
    (fun src ->
      let p1 = parse src in
      let printed = Pp.to_string p1 in
      let p2 =
        try parse printed
        with Parser.Parse_error (m, l) ->
          Alcotest.failf "reparse failed (%s at line %d) for:\n%s" m l printed
      in
      if strip p1 <> strip p2 then
        Alcotest.failf "roundtrip mismatch:\n-- original --\n%s\n-- reprinted --\n%s" src printed)
    roundtrip_src

(* qcheck: random pure expressions print and reparse to the same tree *)
let gen_expr : Ast.expr QCheck.arbitrary =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map (fun n -> Ast.Int n) (int_range (-50) 50);
        map (fun b -> Ast.Bool b) bool;
        return Ast.Null;
        map (fun c -> Ast.Var (String.make 1 c)) (char_range 'a' 'e') ]
  in
  let expr =
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 0 then leaf
            else
              frequency
                [ (2, leaf);
                  ( 3,
                    map3
                      (fun op a b -> Ast.Binop (op, a, b))
                      (oneofl Ast.[ Add; Sub; Mul; Div; Mod; Eq; Ne; Lt; Le; Gt; Ge; And; Or ])
                      (self (n / 2)) (self (n / 2)) );
                  (1, map (fun a -> Ast.Unop (Ast.Not, a)) (self (n - 1)));
                  (1, map (fun a -> Ast.Unop (Ast.Neg, a)) (self (n - 1))) ])
          n)
  in
  QCheck.make ~print:Pp.expr_to_string expr

(* the parser folds unary minus on literals; normalize the generated tree
   the same way before comparing *)
let rec fold_neg (e : Ast.expr) : Ast.expr =
  match e with
  | Ast.Unop (Ast.Neg, Ast.Int n) -> Ast.Int (-n)
  | Ast.Unop (op, a) -> (
    match op, fold_neg a with
    | Ast.Neg, Ast.Int n -> Ast.Int (-n)
    | op, a -> Ast.Unop (op, a))
  | Ast.Binop (op, a, b) -> Ast.Binop (op, fold_neg a, fold_neg b)
  | e -> e

let expr_roundtrip =
  QCheck.Test.make ~count:300 ~name:"pp/parse roundtrip for expressions" gen_expr (fun e ->
      let src = Printf.sprintf "main { a = 0; b = 0; c = 0; d = 0; e = 0; x = %s; }" (Pp.expr_to_string e) in
      let p = parse src in
      let found =
        Ast.fold_stmts
          (fun acc s -> match s.node with Ast.Assign ("x", e') -> Some e' | _ -> acc)
          None p
      in
      match found with Some e' -> e' = fold_neg e | None -> false)

let () =
  Alcotest.run "lang"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic tokens" `Quick test_lexer_basic;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "line numbers" `Quick test_lexer_line_numbers;
          Alcotest.test_case "block comments" `Quick test_lexer_block_comment;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
          Alcotest.test_case "syscalls and opaques" `Quick test_lexer_sys_opaque;
        ] );
      ( "parser",
        [
          Alcotest.test_case "nested loads hoisted" `Quick test_desugar_nested_loads;
          Alcotest.test_case "global access desugared" `Quick test_desugar_global;
          Alcotest.test_case "while condition re-read" `Quick test_desugar_while_cond;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "else-if chains" `Quick test_parse_else_if;
          Alcotest.test_case "sync/spawn/join" `Quick test_parse_sync_spawn;
          Alcotest.test_case "map syntax" `Quick test_parse_map_syntax;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "site ids unique" `Quick test_unique_sids;
        ] );
      ("check", [ Alcotest.test_case "static errors" `Quick test_check_errors ]);
      ( "pp",
        [
          Alcotest.test_case "program roundtrip" `Quick test_pp_roundtrip;
          QCheck_alcotest.to_alcotest expr_roundtrip;
        ] );
    ]
