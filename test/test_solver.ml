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

(* A long relaxation wave calls the graph's check: a 5000-step cascade
   down a chain reaches it, and what it raises abandons the wave. *)
let test_graph_check_in_wave () =
  let calls = ref 0 in
  let g = Diff_graph.create ~check:(fun () -> incr calls; raise Exit) 5002 in
  for i = 0 to 4999 do
    ignore (Diff_graph.add_constraint g ~u:i ~v:(i + 1) ~k:0 ~tag:0)
  done;
  Alcotest.(check int) "no wave yet" 0 !calls;
  match Diff_graph.add_constraint g ~u:5000 ~v:5001 ~k:(-1) ~tag:1 with
  | exception Exit -> Alcotest.(check int) "checked once" 1 !calls
  | _ -> Alcotest.fail "the wave never checked"

(* ------------------------------------------------------------------ *)
(* Idl                                                                  *)
(* ------------------------------------------------------------------ *)

(* whether the atom at [3x] of [a] holds under [m] *)
let holds (m : int array) (a : int array) (x : int) =
  m.(a.(3 * x)) - m.(a.((3 * x) + 1)) <= a.((3 * x) + 2)

(* whether some literal of clause [c] holds under [m] *)
let clause_holds (p : Idl.problem) (m : int array) (c : int) =
  let ok = ref false in
  for l = p.clause_start.(c) to p.clause_start.(c + 1) - 1 do
    if holds m p.lits l then ok := true
  done;
  !ok

let check_model (p : Idl.problem) (m : int array) (chosen_ok : bool) =
  for e = 0 to p.n_hard - 1 do
    if not (holds m p.hard e) then Alcotest.fail "hard atom violated"
  done;
  if chosen_ok then
    for c = 0 to Idl.n_clauses p - 1 do
      if not (clause_holds p m c) then Alcotest.fail "clause unsatisfied"
    done

let test_idl_chain () =
  let p = Idl.make ~nvars:4 ~hard:[ Idl.lt 0 1; Idl.lt 1 2; Idl.lt 2 3 ] ~clauses:[] in
  match Idl.solve p with
  | Sat (m, _) -> check_model p m true
  | _ -> Alcotest.fail "expected sat"

let test_idl_unsat () =
  let p = Idl.make ~nvars:3 ~hard:[ Idl.lt 0 1; Idl.lt 1 2; Idl.lt 2 0 ] ~clauses:[] in
  Alcotest.(check bool) "cycle unsat" true
    (match Idl.solve p with Idl.Unsat _ -> true | _ -> false)

let test_idl_clause_backtracking () =
  (* first literal of the first clause conflicts only after the second
     clause commits, forcing a backtrack *)
  let p =
    Idl.make ~nvars:4 ~hard:[ Idl.lt 0 1 ]
      ~clauses:
        [ [| Idl.lt 1 2; Idl.lt 2 1 |]; [| Idl.lt 2 1; Idl.lt 3 0 |]; [| Idl.lt 1 2 |] ]
  in
  match Idl.solve p with
  | Sat (m, _) -> check_model p m true
  | _ -> Alcotest.fail "expected sat after backtracking"

let test_idl_unsat_clauses () =
  let p = Idl.make ~nvars:2 ~hard:[ Idl.lt 0 1 ] ~clauses:[ [| Idl.lt 1 0 |] ] in
  Alcotest.(check bool) "contradicting clause" true
    (match Idl.solve p with Idl.Unsat _ -> true | _ -> false)

let test_idl_le_and_lt () =
  let p = Idl.make ~nvars:2 ~hard:[ Idl.le 0 1; Idl.le 1 0 ] ~clauses:[] in
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
    Idl.make ~nvars:2 ~hard:[] ~clauses:[ [| Idl.lt 0 1; Idl.lt 1 0 |]; [| Idl.lt 1 0 |] ]
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
    Idl.make ~nvars:6 ~hard:[]
      ~clauses:[ [| Idl.lt 0 1; Idl.lt 1 0 |]; [| Idl.lt 4 5; Idl.lt 5 4 |]; [| Idl.lt 1 0 |] ]
  in
  match Idl.solve p with
  | Sat (m, s) ->
    check_model p m true;
    Alcotest.(check int) "single conflict (no re-discovery)" 1 s.theory_conflicts;
    Alcotest.(check int) "backtracks (pop c1, reopen c0)" 2 s.backtracks
  | _ -> Alcotest.fail "expected sat"

let conflicting_pair =
  (* needs one backtrack and one conflict to solve *)
  Idl.make ~nvars:2 ~hard:[] ~clauses:[ [| Idl.lt 0 1; Idl.lt 1 0 |]; [| Idl.lt 1 0 |] ]

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

(* The budget holds while the hard atoms load: a system with no clause
   makes no decision, so only the load's own check can see the clock. *)
let test_idl_budget_hard () =
  let hard = List.init 64 (fun i -> Idl.lt (i + 1) i) in
  let budget = { Idl.default_budget with max_time_s = -1. } in
  match Idl.solve ~budget (Idl.make ~nvars:65 ~hard ~clauses:[]) with
  | Aborted (_, Seconds _) -> ()
  | Aborted _ -> Alcotest.fail "aborted on another bound"
  | _ -> Alcotest.fail "expected an abort on the time bound"

let test_idl_hint_seeding () =
  let p =
    Idl.make ~nvars:4 ~hard:[ Idl.lt 0 1; Idl.lt 1 2; Idl.lt 2 3 ] ~clauses:[ [| Idl.lt 0 3 |] ]
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
      let p = Idl.make ~nvars:n ~hard:(chain perm) ~clauses:[] in
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
      in
      let p = Idl.make ~nvars:n ~hard ~clauses in
      match Idl.solve p with
      | Sat (m, _) ->
        List.for_all (fun (a, b) -> m.(a) < m.(b)) es
        && List.for_all (fun c -> clause_holds p m c) (List.init (Idl.n_clauses p) Fun.id)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Brute-force oracle                                                   *)
(* ------------------------------------------------------------------ *)

(* A satisfiable difference-logic system over n variables with constants
   bounded by K has a model in [0, n*K]^n: the Bellman-Ford potentials
   certifying feasibility span at most n*K after shifting the minimum to
   zero.  So for tiny random problems, exhaustive enumeration over that
   cube is a complete decision procedure to check the DPLL(T) solver
   against.  The enumeration assigns variables in index order and cuts a
   branch as soon as an atom over the assigned variables fails. *)

let sat_assignment (p : Idl.problem) (m : int array) =
  let ok = ref true in
  for e = 0 to p.n_hard - 1 do
    if not (holds m p.hard e) then ok := false
  done;
  for c = 0 to Idl.n_clauses p - 1 do
    if not (clause_holds p m c) then ok := false
  done;
  !ok

let brute_force_sat (p : Idl.problem) =
  let kmax = ref 1 in
  for e = 0 to p.n_hard - 1 do
    kmax := max !kmax (abs p.hard.((3 * e) + 2))
  done;
  for l = 0 to p.clause_start.(Idl.n_clauses p) - 1 do
    kmax := max !kmax (abs p.lits.((3 * l) + 2))
  done;
  let bound = (p.nvars * !kmax) + 1 in
  let m = Array.make p.nvars 0 in
  (* every atom over [x_0 .. x_i] holds, and some literal over them of
     every clause whose literals all are *)
  let assigned a x i = a.(3 * x) <= i && a.((3 * x) + 1) <= i in
  let prefix_ok i =
    let ok = ref true in
    for e = 0 to p.n_hard - 1 do
      if assigned p.hard e i && not (holds m p.hard e) then ok := false
    done;
    for c = 0 to Idl.n_clauses p - 1 do
      let all = ref true and some = ref false in
      for l = p.clause_start.(c) to p.clause_start.(c + 1) - 1 do
        if assigned p.lits l i then (if holds m p.lits l then some := true) else all := false
      done;
      if !all && not !some then ok := false
    done;
    !ok
  in
  let rec go i =
    if i = p.nvars then sat_assignment p m
    else
      let rec try_v v =
        v < bound
        && (m.(i) <- v;
            (prefix_ok i && go (i + 1)) || try_v (v + 1))
      in
      try_v 0
  in
  go 0

let problem_print (p : Idl.problem) =
  let atom a x = Printf.sprintf "x%d-x%d<=%d" a.(3 * x) a.((3 * x) + 1) a.((3 * x) + 2) in
  Printf.sprintf "n=%d hard=[%s] clauses=[%s]" p.nvars
    (String.concat "; " (List.init p.n_hard (atom p.hard)))
    (String.concat " & "
       (List.init (Idl.n_clauses p) (fun c ->
            let s = p.clause_start.(c) in
            "("
            ^ String.concat " | " (List.init (p.clause_start.(c + 1) - s) (fun j -> atom p.lits (s + j)))
            ^ ")")))

(* n in 2..5 and |k| <= 3 keep the pruned oracle fast while still
   generating self-loops, contradictions, zero cycles, conflicting
   literals and clause-driven backtracking *)
let problem_gen ~clauses =
  let atom n =
    QCheck.Gen.(
      map3
        (fun u v k -> { Idl.u; v; k })
        (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range (-3) 3))
  in
  QCheck.Gen.(
    int_range 2 5 >>= fun n ->
    list_size (int_range 0 5) (atom n) >>= fun hard ->
    list_size (int_range 0 (if clauses then 3 else 0))
      (map Array.of_list (list_size (int_range 1 3) (atom n)))
    >>= fun clauses -> return (Idl.make ~nvars:n ~hard ~clauses))

let prop_oracle_sat_agreement =
  QCheck.Test.make ~count:400 ~name:"solver agrees with brute-force oracle"
    (QCheck.make ~print:problem_print (problem_gen ~clauses:true))
    (fun p ->
      match Idl.solve p with
      | Sat (m, _) -> sat_assignment p m && brute_force_sat p
      | Unsat _ -> not (brute_force_sat p)
      | Aborted _ -> false (* cannot happen at this size *))

let prop_oracle_hard_only =
  (* hard atoms alone exercise the theory solver without DPLL search *)
  QCheck.Test.make ~count:400 ~name:"theory-only problems agree with oracle"
    (QCheck.make ~print:problem_print (problem_gen ~clauses:false))
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
      match Idl.solve (Idl.make ~nvars:n ~hard ~clauses:[]) with
      | Idl.Unsat _ -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Allocation                                                           *)
(* ------------------------------------------------------------------ *)

(* Words allocated by [f ()], exactly: a minor collection before and after
   makes the counters include every allocation in between. *)
let words_of f =
  let words () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  ignore (Sys.opaque_identity (f ()));
  words () -. w0

(* The flat solver allocates its graph, its trail, a few int arrays per
   clause and the model, and no record per atom, decision or potential
   change: at most 12 words per variable, hard atom and clause on the
   Figure-6 logs and two contended workloads (scale 1, seed 1), whose worst
   rows here are 10.5 (Tomcat-37458, fixed costs over 24 units) and 8.8
   (dacapo-avrora).  The atom-list solver with [entry] records and list
   trails allocated 16.4 words per unit on dacapo-avrora and 14.5 on
   dacapo-xalan. *)
let test_idl_alloc () =
  let open Light_core in
  let logs =
    List.map
      (fun (b : Bugs.Defs.bug) ->
        let p = Bugs.Defs.program_of b () in
        match Bugs.Harness.find_trigger p with
        | Some tr -> (b.name, (Light.record ~sched:(tr.make_sched ()) p).log)
        | None -> Alcotest.failf "%s: no trigger" b.name)
      Bugs.Defs.all
    @ List.map
        (fun name ->
          let bm = Option.get (Workloads.by_name name) in
          ( name,
            (Light.record ~sched:(Workloads.scheduler ~seed:1 bm) ~seed:1
               (Workloads.program ~scale:1 bm))
              .log ))
        [ "dacapo-avrora"; "dacapo-xalan" ]
  in
  List.iter
    (fun (name, log) ->
      let cs = Constraints.generate log in
      let units = cs.problem.nvars + cs.n_hard + cs.n_clauses in
      let w = words_of (fun () -> Idl.solve ?hint:cs.hint cs.problem) in
      if w > 12. *. float units then
        Alcotest.failf "%s: Idl.solve allocated %.0f words for %d units (%.1f a unit)" name w
          units (w /. float units))
    logs

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
          Alcotest.test_case "a long wave calls the check" `Quick test_graph_check_in_wave;
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
          Alcotest.test_case "hard atoms load within the time budget" `Quick
            test_idl_budget_hard;
          Alcotest.test_case "solve allocates <= 12 words per unit" `Quick test_idl_alloc;
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
