(* Difference-logic solver tests: incremental graph, DPLL(T) search,
   and qcheck properties (models satisfy constraints; cycles are unsat). *)

open Dlsolver

(* ------------------------------------------------------------------ *)
(* Diff_graph                                                           *)
(* ------------------------------------------------------------------ *)

let test_graph_feasible () =
  let g = Diff_graph.create 3 in
  (* x0 - x1 <= -1, x1 - x2 <= -1 *)
  Alcotest.(check bool) "edge1 ok" true
    (Diff_graph.add_constraint g ~u:0 ~v:1 ~k:(-1) ~tag:0 = Ok ());
  Alcotest.(check bool) "edge2 ok" true
    (Diff_graph.add_constraint g ~u:1 ~v:2 ~k:(-1) ~tag:1 = Ok ());
  let d i = Diff_graph.potential g i in
  Alcotest.(check bool) "potential satisfies" true (d 0 - d 1 <= -1 && d 1 - d 2 <= -1)

let test_graph_negative_cycle () =
  let g = Diff_graph.create 2 in
  ignore (Diff_graph.add_constraint g ~u:0 ~v:1 ~k:(-1) ~tag:7);
  (match Diff_graph.add_constraint g ~u:1 ~v:0 ~k:(-1) ~tag:8 with
  | Error c ->
    Alcotest.(check bool) "reports both tags" true
      (List.mem 7 c.Diff_graph.tags && List.mem 8 c.Diff_graph.tags);
    Alcotest.(check bool) "cycle walk complete" true c.Diff_graph.complete
  | Ok () -> Alcotest.fail "cycle not detected")

let test_graph_zero_cycle_ok () =
  let g = Diff_graph.create 2 in
  Alcotest.(check bool) "x0<=x1" true (Diff_graph.add_constraint g ~u:0 ~v:1 ~k:0 ~tag:0 = Ok ());
  Alcotest.(check bool) "x1<=x0" true (Diff_graph.add_constraint g ~u:1 ~v:0 ~k:0 ~tag:1 = Ok ())

let test_graph_push_pop () =
  let g = Diff_graph.create 3 in
  ignore (Diff_graph.add_constraint g ~u:0 ~v:1 ~k:(-1) ~tag:0);
  let d0 = Diff_graph.potential g 0 in
  Diff_graph.push g;
  ignore (Diff_graph.add_constraint g ~u:1 ~v:2 ~k:(-5) ~tag:1);
  Diff_graph.push g;
  (match Diff_graph.add_constraint g ~u:2 ~v:0 ~k:0 ~tag:2 with
  | Error _ -> Diff_graph.pop g  (* would close a negative cycle: -1-5+0 *)
  | Ok () -> Diff_graph.pop g);
  Diff_graph.pop g;
  Alcotest.(check int) "potential restored" d0 (Diff_graph.potential g 0);
  Alcotest.(check int) "one edge left" 1 (Diff_graph.num_edges g);
  (* the graph is reusable after popping *)
  Alcotest.(check bool) "re-add ok" true
    (Diff_graph.add_constraint g ~u:1 ~v:2 ~k:(-1) ~tag:3 = Ok ())

let test_graph_growth () =
  let g = Diff_graph.create 1 in
  Alcotest.(check bool) "grows on demand" true
    (Diff_graph.add_constraint g ~u:100 ~v:200 ~k:(-1) ~tag:0 = Ok ())

(* ------------------------------------------------------------------ *)
(* Idl                                                                  *)
(* ------------------------------------------------------------------ *)

let check_model (p : Idl.problem) (m : int array) (chosen_ok : bool) =
  List.iter
    (fun (a : Idl.atom) ->
      if not (m.(a.u) - m.(a.v) <= a.k) then Alcotest.fail "hard atom violated")
    p.hard;
  if chosen_ok then
    Array.iter
      (fun clause ->
        if
          not
            (Array.exists (fun (a : Idl.atom) -> m.(a.u) - m.(a.v) <= a.k) clause)
        then Alcotest.fail "clause unsatisfied")
      p.clauses

let test_idl_chain () =
  let p = { Idl.nvars = 4; hard = [ Idl.lt 0 1; Idl.lt 1 2; Idl.lt 2 3 ]; clauses = [||] } in
  match Idl.solve p with
  | Sat (m, _) -> check_model p m true
  | _ -> Alcotest.fail "expected sat"

let test_idl_unsat () =
  let p = { Idl.nvars = 3; hard = [ Idl.lt 0 1; Idl.lt 1 2; Idl.lt 2 0 ]; clauses = [||] } in
  Alcotest.(check bool) "cycle unsat" true
    (match Idl.solve p with Idl.Unsat _ -> true | _ -> false)

let test_idl_clause_backtracking () =
  (* first literal of the first clause conflicts only after the second
     clause commits, forcing a backtrack *)
  let p =
    {
      Idl.nvars = 4;
      hard = [ Idl.lt 0 1 ];
      clauses =
        [|
          [| Idl.lt 1 2; Idl.lt 2 1 |];
          [| Idl.lt 2 1; Idl.lt 3 0 |];
          [| Idl.lt 1 2 |];
        |];
    }
  in
  match Idl.solve p with
  | Sat (m, _) -> check_model p m true
  | _ -> Alcotest.fail "expected sat after backtracking"

let test_idl_unsat_clauses () =
  let p =
    {
      Idl.nvars = 2;
      hard = [ Idl.lt 0 1 ];
      clauses = [| [| Idl.lt 1 0 |] |];
    }
  in
  Alcotest.(check bool) "contradicting clause" true
    (match Idl.solve p with Idl.Unsat _ -> true | _ -> false)

let test_idl_le_and_lt () =
  let p =
    { Idl.nvars = 2; hard = [ Idl.le 0 1; Idl.le 1 0 ]; clauses = [||] }
  in
  match Idl.solve p with
  | Sat (m, _) -> Alcotest.(check int) "x0 = x1 allowed" m.(0) m.(1)
  | _ -> Alcotest.fail "expected sat"

let test_idl_resume_index () =
  (* Deciding c0 asserts its first literal; c1's only literal then conflicts
     with it, and the backjump reopens c0.  The resume index makes the
     re-decision continue at c0's SECOND literal: re-scanning from the
     first — which is theory-consistent in isolation — would re-assert it
     and loop forever.  Pinning [theory_adds] checks each literal was
     pushed into the theory exactly once along this trace:
     c0.lit0, c1.lit0 (conflict), c0.lit1, c1.lit0 = 4 additions. *)
  let p =
    {
      Idl.nvars = 2;
      hard = [];
      clauses = [| [| Idl.lt 0 1; Idl.lt 1 0 |]; [| Idl.lt 1 0 |] |];
    }
  in
  match Idl.solve p with
  | Sat (m, s) ->
    check_model p m true;
    Alcotest.(check int) "theory adds (no literal re-scanned)" 4 s.theory_adds;
    Alcotest.(check int) "decisions" 3 s.decisions;
    Alcotest.(check int) "backtracks" 1 s.backtracks;
    Alcotest.(check int) "conflicts" 1 s.theory_conflicts
  | _ -> Alcotest.fail "expected sat"

let test_idl_backjump_skips_levels () =
  (* The conflict at c2 names only c0 (the negative cycle uses c0's and
     c2's edges); the middle decision c1 is unrelated.  Backjumping returns
     straight to c0 without flipping c1, so the same conflict is never
     rediscovered: exactly one theory conflict on the whole trace, where
     chronological backtracking would re-try c2 against both polarities of
     c1 and fail at least twice. *)
  let p =
    {
      Idl.nvars = 6;
      hard = [];
      clauses =
        [|
          [| Idl.lt 0 1; Idl.lt 1 0 |];
          [| Idl.lt 4 5; Idl.lt 5 4 |];
          [| Idl.lt 1 0 |];
        |];
    }
  in
  match Idl.solve p with
  | Sat (m, s) ->
    check_model p m true;
    Alcotest.(check int) "single conflict (no re-discovery)" 1 s.theory_conflicts;
    Alcotest.(check int) "backtracks (pop c1, reopen c0)" 2 s.backtracks
  | _ -> Alcotest.fail "expected sat"

let conflicting_pair =
  (* needs one backtrack and one conflict to solve *)
  {
    Idl.nvars = 2;
    hard = [];
    clauses = [| [| Idl.lt 0 1; Idl.lt 1 0 |]; [| Idl.lt 1 0 |] |];
  }

let test_idl_budget_backtracks () =
  let budget = { Idl.default_budget with max_backtracks = 0 } in
  match Idl.solve ~budget conflicting_pair with
  | Aborted (s, _) ->
    Alcotest.(check bool) "stats honest: work was done" true
      (s.theory_conflicts >= 1 && s.backtracks >= 1)
  | _ -> Alcotest.fail "expected abort on backtrack budget"

let test_idl_budget_conflicts () =
  let budget = { Idl.default_budget with max_conflicts = 0 } in
  match Idl.solve ~budget conflicting_pair with
  | Aborted (s, _) -> Alcotest.(check int) "stopped at first conflict" 1 s.theory_conflicts
  | _ -> Alcotest.fail "expected abort on conflict budget"

(* An abort names the bound it hit, with its limit, and the replayer's
   message says so.  A negative CPU-time bound trips at the first check,
   whatever the clock's resolution. *)
let test_idl_budget_named () =
  List.iter
    (fun (budget, expected) ->
      match Idl.solve ~budget conflicting_pair with
      | Aborted (_, b) ->
        Alcotest.(check string) expected expected (Light_core.Replayer.budget_exhausted b)
      | _ -> Alcotest.failf "%s: expected an abort" expected)
    [
      ( { Idl.default_budget with max_backtracks = 0 },
        "solver budget exhausted: 0 backtracks" );
      ({ Idl.default_budget with max_conflicts = 0 }, "solver budget exhausted: 0 conflicts");
      ( { Idl.default_budget with max_time_s = -1. },
        "solver budget exhausted: -1 CPU seconds" );
    ];
  Alcotest.(check string) "the default bound" "solver budget exhausted: 2000000 backtracks"
    (Light_core.Replayer.budget_exhausted (Backtracks Idl.default_budget.max_backtracks))

let test_idl_hint_seeding () =
  let p =
    {
      Idl.nvars = 4;
      hard = [ Idl.lt 0 1; Idl.lt 1 2; Idl.lt 2 3 ];
      clauses = [| [| Idl.lt 0 3 |] |];
    }
  in
  (match Idl.solve ~hint:[| 0; 16; 32; 48 |] p with
  | Sat (m, _) -> check_model p m true
  | _ -> Alcotest.fail "expected sat with good hint");
  (* a wrong hint costs relaxation work but never soundness *)
  match Idl.solve ~hint:[| 48; 32; 16; 0 |] p with
  | Sat (m, _) -> check_model p m true
  | _ -> Alcotest.fail "expected sat with bad hint"

(* qcheck: random permutation orders are satisfiable and the model agrees *)
let perm_gen =
  QCheck.make
    ~print:(fun l -> String.concat "," (List.map string_of_int l))
    QCheck.Gen.(
      int_range 2 9 >>= fun n ->
      shuffle_l (List.init n (fun i -> i)))

let prop_perm_order =
  QCheck.Test.make ~count:200 ~name:"total orders are satisfiable, model respects them"
    perm_gen (fun perm ->
      let n = List.length perm in
      let rec chain = function
        | a :: (b :: _ as rest) -> Idl.lt a b :: chain rest
        | _ -> []
      in
      let p = { Idl.nvars = n; hard = chain perm; clauses = [||] } in
      match Idl.solve p with
      | Sat (m, _) ->
        let rec ok = function
          | a :: (b :: _ as rest) -> m.(a) < m.(b) && ok rest
          | _ -> true
        in
        ok perm
      | _ -> false)

(* qcheck: random DAG edges + random binary clauses consistent with a hidden
   total order are satisfiable and the model satisfies everything *)
let dag_gen =
  QCheck.make
    ~print:(fun (n, es) ->
      Printf.sprintf "n=%d edges=%s" n
        (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d<%d" a b) es)))
    QCheck.Gen.(
      int_range 3 10 >>= fun n ->
      list_size (int_range 1 20)
        (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      >>= fun raw ->
      (* orient each edge by a hidden order (identity) to guarantee sat *)
      let es =
        List.filter_map (fun (a, b) -> if a < b then Some (a, b) else if b < a then Some (b, a) else None) raw
      in
      return (n, es))

let prop_dag_sat =
  QCheck.Test.make ~count:200 ~name:"order-consistent constraint systems are satisfiable"
    dag_gen (fun (n, es) ->
      let hard = List.map (fun (a, b) -> Idl.lt a b) es in
      (* clauses whose first literal follows the hidden order *)
      let clauses =
        List.filteri (fun i _ -> i mod 2 = 0) es
        |> List.map (fun (a, b) -> [| Idl.lt a b; Idl.lt b a |])
        |> Array.of_list
      in
      let p = { Idl.nvars = n; hard; clauses } in
      match Idl.solve p with
      | Sat (m, _) ->
        List.for_all (fun (a, b) -> m.(a) < m.(b)) es
        && Array.for_all
             (fun cl -> Array.exists (fun (a : Idl.atom) -> m.(a.u) - m.(a.v) <= a.k) cl)
             clauses
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Brute-force oracle                                                   *)
(* ------------------------------------------------------------------ *)

(* A satisfiable difference-logic system over n variables with constants
   bounded by K has a model in [0, n*K]^n: the Bellman-Ford potentials
   certifying feasibility span at most n*K after shifting the minimum to
   zero.  So for tiny random problems, exhaustive enumeration over that
   cube is a complete decision procedure to check the DPLL(T) solver
   against. *)

let sat_assignment (p : Idl.problem) (m : int array) =
  List.for_all (fun (a : Idl.atom) -> m.(a.u) - m.(a.v) <= a.k) p.hard
  && Array.for_all
       (fun cl -> Array.exists (fun (a : Idl.atom) -> m.(a.u) - m.(a.v) <= a.k) cl)
       p.clauses

let brute_force_sat (p : Idl.problem) =
  let atom_k acc (a : Idl.atom) = max acc (abs a.k) in
  let kmax =
    Array.fold_left
      (fun acc cl -> Array.fold_left atom_k acc cl)
      (List.fold_left atom_k 1 p.hard)
      p.clauses
  in
  let bound = (p.nvars * kmax) + 1 in
  let m = Array.make p.nvars 0 in
  let rec go i =
    if i = p.nvars then sat_assignment p m
    else
      let rec try_v v =
        v < bound
        && (m.(i) <- v;
            go (i + 1) || try_v (v + 1))
      in
      try_v 0
  in
  go 0

let atom_str (a : Idl.atom) = Printf.sprintf "x%d-x%d<=%d" a.u a.v a.k

let problem_print (p : Idl.problem) =
  Printf.sprintf "n=%d hard=[%s] clauses=[%s]" p.nvars
    (String.concat "; " (List.map atom_str p.hard))
    (String.concat " & "
       (Array.to_list
          (Array.map
             (fun cl ->
               "(" ^ String.concat " | " (Array.to_list (Array.map atom_str cl)) ^ ")")
             p.clauses)))

(* n in 2..4 and |k| <= 3 keep the oracle cube small (<= 13^4 points)
   while still generating self-loops, contradictions, zero cycles, and
   clause-driven backtracking *)
let problem_gen =
  let atom n =
    QCheck.Gen.(
      map3
        (fun u v k -> { Idl.u; v; k })
        (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range (-3) 3))
  in
  QCheck.Gen.(
    int_range 2 4 >>= fun n ->
    list_size (int_range 0 5) (atom n) >>= fun hard ->
    list_size (int_range 0 3) (map Array.of_list (list_size (int_range 1 3) (atom n)))
    >>= fun clauses -> return { Idl.nvars = n; hard; clauses = Array.of_list clauses })

let prop_oracle_sat_agreement =
  QCheck.Test.make ~count:400 ~name:"solver agrees with brute-force oracle"
    (QCheck.make ~print:problem_print problem_gen)
    (fun p ->
      match Idl.solve p with
      | Sat (m, _) -> sat_assignment p m && brute_force_sat p
      | Unsat _ -> not (brute_force_sat p)
      | Aborted _ -> false (* cannot happen at this size *))

let prop_oracle_hard_only =
  (* hard atoms alone exercise the theory solver without DPLL search *)
  QCheck.Test.make ~count:400 ~name:"theory-only problems agree with oracle"
    (QCheck.make ~print:problem_print
       QCheck.Gen.(map (fun p -> { p with Idl.clauses = [||] }) problem_gen))
    (fun p ->
      match Idl.solve p with
      | Sat (m, _) -> sat_assignment p m && brute_force_sat p
      | Unsat _ -> not (brute_force_sat p)
      | Aborted _ -> false)

let prop_cycle_unsat =
  QCheck.Test.make ~count:100 ~name:"strict cycles are unsatisfiable"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 2 12))
    (fun n ->
      let hard = List.init n (fun i -> Idl.lt i ((i + 1) mod n)) in
      match Idl.solve { Idl.nvars = n; hard; clauses = [||] } with
      | Idl.Unsat _ -> true
      | _ -> false)

let () =
  Alcotest.run "solver"
    [
      ( "diff-graph",
        [
          Alcotest.test_case "feasible potentials" `Quick test_graph_feasible;
          Alcotest.test_case "negative cycle detection" `Quick test_graph_negative_cycle;
          Alcotest.test_case "zero cycles feasible" `Quick test_graph_zero_cycle_ok;
          Alcotest.test_case "push/pop restores" `Quick test_graph_push_pop;
          Alcotest.test_case "grows on demand" `Quick test_graph_growth;
        ] );
      ( "idl",
        [
          Alcotest.test_case "chains" `Quick test_idl_chain;
          Alcotest.test_case "unsat cycle" `Quick test_idl_unsat;
          Alcotest.test_case "clause backtracking" `Quick test_idl_clause_backtracking;
          Alcotest.test_case "unsat via clause" `Quick test_idl_unsat_clauses;
          Alcotest.test_case "non-strict atoms" `Quick test_idl_le_and_lt;
          Alcotest.test_case "per-clause resume index" `Quick test_idl_resume_index;
          Alcotest.test_case "backjump skips unrelated levels" `Quick
            test_idl_backjump_skips_levels;
          Alcotest.test_case "backtrack budget aborts" `Quick test_idl_budget_backtracks;
          Alcotest.test_case "conflict budget aborts" `Quick test_idl_budget_conflicts;
          Alcotest.test_case "an abort names its budget bound" `Quick test_idl_budget_named;
          Alcotest.test_case "potential hint seeding" `Quick test_idl_hint_seeding;
          QCheck_alcotest.to_alcotest prop_perm_order;
          QCheck_alcotest.to_alcotest prop_dag_sat;
          QCheck_alcotest.to_alcotest prop_cycle_unsat;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_oracle_sat_agreement;
          QCheck_alcotest.to_alcotest prop_oracle_hard_only;
        ] );
    ]
