(** DPLL(T) solver for Integer Difference Logic (see idl.mli) over the
    flat problem.  Clauses are decided in index order, so the decision
    stack always holds exactly the clauses below the one being decided and
    a clause's stack slot is its index.  A culprit set only ever names
    clauses below its own (a deeper one is undone before the set is read
    again), so the set being built is an int array with a stamp per clause
    for membership, and the sets of the decisions on the stack are stacked
    slices of one int pool. *)

type atom = { u : int; v : int; k : int }

let lt a b : atom = { u = a; v = b; k = -1 }
let le a b : atom = { u = a; v = b; k = 0 }

type problem =
  { nvars : int; n_hard : int; hard : int array; clause_start : int array; lits : int array }

let n_clauses (p : problem) : int = Array.length p.clause_start - 1

let extend (p : problem) ~(hard : atom list) ~(clauses : atom array list) : problem =
  let triples atoms = Array.of_list (List.concat_map (fun t -> [ t.u; t.v; t.k ]) atoms) in
  let nc = n_clauses p in
  let _, ends =
    List.fold_left_map (fun e cl -> (e + Array.length cl, e + Array.length cl)) p.clause_start.(nc)
      clauses
  in
  {
    p with
    n_hard = p.n_hard + List.length hard;
    hard = Array.append (Array.sub p.hard 0 (3 * p.n_hard)) (triples hard);
    clause_start = Array.append p.clause_start (Array.of_list ends);
    lits =
      Array.concat
        (Array.sub p.lits 0 (3 * p.clause_start.(nc))
        :: List.map (fun cl -> triples (Array.to_list cl)) clauses);
  }

let make ~(nvars : int) ~(hard : atom list) ~(clauses : atom array list) : problem =
  extend { nvars; n_hard = 0; hard = [||]; clause_start = [| 0 |]; lits = [||] } ~hard ~clauses

type stats = { decisions : int; backtracks : int; theory_conflicts : int; theory_adds : int }
type bound = Backtracks of int | Conflicts of int | Seconds of float
type result = Sat of int array * stats | Unsat of stats | Aborted of stats * bound
type budget = { max_backtracks : int; max_conflicts : int; max_time_s : float }

let default_budget =
  { max_backtracks = 2_000_000; max_conflicts = max_int; max_time_s = infinity }

exception Give_up of bound
exception Unsat_now

(* hard atoms loaded between two budget checks *)
let check_every = 4096

(* Whether [h] is a model that the search would settle on without a
   single conflict: every hard atom holds under it, and so does the first
   stored literal of every clause, which is the literal the search asserts
   first while no clause has conflicted.  Stops at the first atom that
   fails. *)
let verifies (p : problem) (h : int array) : bool =
  let n = Array.length h in
  let holds (a : int array) (i : int) =
    let u = a.(i) and v = a.(i + 1) in
    u >= 0 && v >= 0 && u < n && v < n && h.(u) <= h.(v) + a.(i + 2)
  in
  let ok = ref true and e = ref 0 in
  while !ok && !e < p.n_hard do
    ok := holds p.hard (3 * !e);
    incr e
  done;
  let c = ref 0 and cs = p.clause_start in
  while !ok && !c < n_clauses p do
    ok := cs.(!c) < cs.(!c + 1) && holds p.lits (3 * cs.(!c));
    incr c
  done;
  !ok && n >= p.nvars

let solve ?(budget = default_budget) ?hint (p : problem) : result =
  let n = n_clauses p and cs = p.clause_start and lits = p.lits in
  let decisions = ref 0 and backtracks = ref 0 and conflicts = ref 0 and adds = ref 0 in
  let t_start = Sys.time () in
  let check_budget () =
    if !backtracks > budget.max_backtracks then
      raise (Give_up (Backtracks budget.max_backtracks));
    if !conflicts > budget.max_conflicts then raise (Give_up (Conflicts budget.max_conflicts));
    if budget.max_time_s < infinity && Sys.time () -. t_start > budget.max_time_s then
      raise (Give_up (Seconds budget.max_time_s))
  in
  match hint with
  | Some h when verifies p h ->
    (* the search would load every hard atom and assert each clause's first
       literal, all against potentials that already satisfy them: its
       model is the hint, and its statistics are these.  The budget is
       checked once, where the search first checks it: before the first
       hard atom, else after the first decision *)
    let stats d adds = { decisions = d; backtracks = 0; theory_conflicts = 0; theory_adds = adds } in
    (match if p.n_hard > 0 || n > 0 then check_budget () with
    | () -> Sat (Array.sub h 0 p.nvars, stats n (p.n_hard + n))
    | exception Give_up b -> Aborted ((if p.n_hard > 0 then stats 0 0 else stats 1 1), b))
  | _ ->
  (* room for every hard atom, one literal per clause and a level each *)
  let g =
    Diff_graph.create ~edges:(p.n_hard + n + 1) ~levels:(n + 1) ~check:check_budget
      (max 1 p.nvars)
  in
  (* seeding the potentials with a model of (a subset of) the hard atoms —
     e.g. a topological order of the constraint DAG — makes their assertion
     relaxation-free instead of quadratic *)
  (match hint with Some h -> Diff_graph.seed g h | None -> ());
  let stats () =
    { decisions = !decisions; backtracks = !backtracks; theory_conflicts = !conflicts;
      theory_adds = !adds }
  in
  (* activity: bumped for the endpoint variables of conflicting literals.
     It only reorders a clause that has itself conflicted, whose literals
     are then tried in ASCENDING activity: the literal whose variables keep
     appearing in conflicts is demoted behind its alternatives.
     [act_inc.(0)] is the bump. *)
  let act = Array.make (max 1 p.nvars) 0.0 and act_inc = [| 1.0 |] in
  let bump x =
    act.(x) <- act.(x) +. act_inc.(0);
    if act.(x) > 1e100 then begin
      Array.iteri (fun i a -> act.(i) <- a *. 1e-100) act;
      act_inc.(0) <- act_inc.(0) *. 1e-100
    end
  in
  let conflicted = Bytes.make (max 1 n) '\000' in
  (* [ord.(cs.(c) ..)]: clause [c]'s literals in the order they are tried,
     set when [c] is decided afresh and kept while it is on the stack *)
  let ord = Array.make (max 1 cs.(n)) 0 in
  let order_lits c =
    let s = cs.(c) and e = cs.(c + 1) in
    for x = s to e - 1 do
      ord.(x) <- x
    done;
    if e - s > 1 && Bytes.get conflicted c <> '\000' then begin
      (* a stable insertion sort by score *)
      let score l = act.(lits.(3 * l)) +. act.(lits.((3 * l) + 1)) in
      for x = s + 1 to e - 1 do
        let l = ord.(x) in
        let y = ref (x - 1) in
        while !y >= s && score ord.(!y) > score l do
          ord.(!y + 1) <- ord.(!y);
          decr y
        done;
        ord.(!y + 1) <- l
      done
    end
  in
  (* the decision stack, by clause: [chosen.(c)] is the position in [ord]
     of the literal [c] asserted, and [c]'s culprit set is [pool.(cul.(c))
     .. pool.(cul.(c) + cul_len.(c) - 1)] *)
  let chosen = Array.make (max 1 n) 0 in
  let cul = Array.make (max 1 n) 0 and cul_len = Array.make (max 1 n) 0 in
  let pool = ref (Array.make 16 0) and top = ref 0 in
  (* the culprit set being built: [cm.(0 .. !ncm - 1)]; [c] is a member
     iff [mark.(c) = !stamp] *)
  let cm = Array.make (max 1 n) 0 and ncm = ref 0 in
  let mark = Array.make (max 1 n) (-1) and stamp = ref 0 in
  let add c =
    if mark.(c) <> !stamp then begin
      mark.(c) <- !stamp;
      cm.(!ncm) <- c;
      incr ncm
    end
  in
  try
    let h = p.hard in
    for e = 0 to p.n_hard - 1 do
      if e mod check_every = 0 then check_budget ();
      incr adds;
      match
        Diff_graph.add_constraint g ~u:h.(3 * e) ~v:h.((3 * e) + 1) ~k:h.((3 * e) + 2) ~tag:(-1)
      with
      | Ok () -> ()
      | Error _ ->
        incr conflicts;
        raise Unsat_now
    done;
    let i = ref 0 in
    while !i < n do
      (* decide clause [ci] from position [start] of its literal order, with
         the culprit set built so far; on conflict, backjump and loop with
         the target's stored resume state *)
      let ci = ref !i in
      order_lits !ci;
      let start = ref cs.(!ci) in
      incr stamp;
      ncm := 0;
      let decided = ref false in
      while not !decided do
        let e = cs.(!ci + 1) in
        let j = ref !start in
        let pick = ref (-1) in
        while !pick < 0 && !j < e do
          let l = 3 * ord.(!j) in
          let u = lits.(l) and v = lits.(l + 1) in
          Diff_graph.push g;
          incr adds;
          (match Diff_graph.add_constraint g ~u ~v ~k:lits.(l + 2) ~tag:!ci with
          | Ok () -> pick := !j
          | Error c ->
            incr conflicts;
            Diff_graph.pop g;
            Bytes.set conflicted !ci '\001';
            bump u;
            bump v;
            act_inc.(0) <- act_inc.(0) *. 1.03;
            (* conflict reasons: every decision named by the cycle; an
               incomplete cycle walk degrades to blaming every decision
               (chronological backtracking), preserving completeness *)
            if c.Diff_graph.complete then
              List.iter (fun t -> if t >= 0 && t < !ci then add t) c.Diff_graph.tags
            else
              for t = 0 to !ci - 1 do
                add t
              done;
            check_budget ();
            incr j)
        done;
        if !pick >= 0 then begin
          chosen.(!ci) <- !pick;
          cul.(!ci) <- !top;
          cul_len.(!ci) <- !ncm;
          if Array.length !pool < !top + !ncm then begin
            let b = Array.make (2 * (!top + !ncm)) 0 in
            Array.blit !pool 0 b 0 !top;
            pool := b
          end;
          Array.blit cm 0 !pool !top !ncm;
          top := !top + !ncm;
          incr decisions;
          (* conflict-free searches over large graphs would otherwise
             never observe the wall-clock budget *)
          check_budget ();
          i := !ci + 1;
          decided := true
        end
        else begin
          (* clause [!ci] has no consistent literal: backjump to the
             deepest decision the failure depends on *)
          if !ncm = 0 then raise Unsat_now;
          let target = ref cm.(0) in
          for x = 1 to !ncm - 1 do
            target := max !target cm.(x)
          done;
          let target = !target in
          (* undo the decisions from the target up, then reopen it: the set
             keeps its members below the target and takes in the target's
             own, and the search resumes at its next untried literal *)
          for _ = target to !ci - 1 do
            Diff_graph.pop g;
            incr backtracks
          done;
          check_budget ();
          incr stamp;
          let kept = ref 0 in
          for x = 0 to !ncm - 1 do
            if cm.(x) < target then begin
              mark.(cm.(x)) <- !stamp;
              cm.(!kept) <- cm.(x);
              incr kept
            end
          done;
          ncm := !kept;
          for x = cul.(target) to cul.(target) + cul_len.(target) - 1 do
            add !pool.(x)
          done;
          top := cul.(target);
          ci := target;
          start := chosen.(target) + 1
        end
      done
    done;
    Sat (Diff_graph.potentials g p.nvars, stats ())
  with
  | Unsat_now -> Unsat (stats ())
  | Give_up b -> Aborted (stats (), b)
