(** DPLL(T) solver for Integer Difference Logic — the offline scheduling
    engine of Section 4.2 of the paper.

    The replay constraint system is a conjunction of strict-order atoms
    [O(a) < O(b)] plus disjunctions of such atoms (the noninterference
    clauses of Equation 1).  This is exactly the IDL fragment Z3 solves for
    the paper's prototype; here the decision procedure is implemented
    directly: conflict-driven DPLL over the clauses with an incremental
    negative-cycle theory solver ({!Diff_graph}) validating each candidate
    assignment.

    Clause order and literal order are the caller's heuristic handles: the
    search asserts the first theory-consistent literal of each clause in
    order, so callers that order literals by a known witness (the recorded
    observation order) solve with little or no backtracking.  When
    conflicts do happen, the negative-cycle tags reported by the theory
    solver drive non-chronological backjumping (the search returns directly
    to the deepest decision the conflict depends on), re-decisions of
    clauses that conflicted before rank their literals by a conflict-bumped
    activity score (clauses that never conflicted keep the caller's order
    untouched), and each decision resumes at its next untried literal
    rather than re-running theory work for literals that already failed.

    The problem is flat, so the constraint generator hands over its own
    columns: the hard atoms are one int array of [(u, v, k)] triples and
    the clauses are in compressed-row form, offsets into one array of
    literal triples.  The hard atoms load in one pass that checks each
    against the potentials the caller's hint seeds and relaxes only the
    atoms the hint violates. *)

type atom = { u : int; v : int; k : int }
(** The difference constraint [x_u - x_v <= k]. *)

val lt : int -> int -> atom
(** [lt a b] is the strict order [x_a < x_b] over the integers. *)

val le : int -> int -> atom
(** [le a b] is [x_a <= x_b]. *)

(** The system, flat: atoms are [(u, v, k)] int triples, the hard ones in
    one array and the clauses' literals in another, clause by clause. *)
type problem = {
  nvars : int;               (** variables are [0 .. nvars-1] *)
  n_hard : int;              (** hard atoms, asserted unconditionally *)
  hard : int array;
      (** hard atom [e] is [hard.(3e), hard.(3e+1), hard.(3e+2)]; the array
          may be longer than [3 * n_hard] *)
  clause_start : int array;
      (** one more than there are clauses: clause [c]'s literals are
          [clause_start.(c) .. clause_start.(c+1) - 1]; each clause needs
          >= 1 satisfied literal *)
  lits : int array;          (** literal [l] is the triple at [3l] *)
}

val n_clauses : problem -> int

val make : nvars:int -> hard:atom list -> clauses:atom array list -> problem
(** The problem over [nvars] variables with these hard atoms and clauses,
    in order. *)

val extend : problem -> hard:atom list -> clauses:atom array list -> problem
(** [p]'s hard atoms followed by [hard], and its clauses followed by
    [clauses]. *)

type stats = {
  decisions : int;
  backtracks : int;        (** decision levels undone *)
  theory_conflicts : int;
  theory_adds : int;       (** constraints pushed into the theory solver *)
}

(** A budget bound, with its limit. *)
type bound = Backtracks of int | Conflicts of int | Seconds of float

type result =
  | Sat of int array * stats
      (** a satisfying assignment: [m.(i)] is the value of [x_i]; every hard
          atom holds and every clause has a satisfied member *)
  | Unsat of stats
  | Aborted of stats * bound
      (** a work or time budget was exhausted: the first of backtracks,
          conflicts and CPU time found over its bound *)

type budget = {
  max_backtracks : int;  (** decision levels undone before giving up *)
  max_conflicts : int;   (** theory conflicts before giving up *)
  max_time_s : float;    (** CPU seconds ([Sys.time]-based) before giving up *)
}

val default_budget : budget
(** 2,000,000 backtracks, unlimited conflicts, unlimited time. *)

val solve : ?budget:budget -> ?hint:int array -> problem -> result
(** Solve the problem.  The [budget] bounds the search before giving up
    with {!Aborted} (honest statistics, no hang).  [hint.(v)] seeds the theory potentials — a
    caller that knows a model of the hard atoms (e.g. a topological order
    of its constraint DAG) makes their assertion relaxation-free: the hard
    atoms load in one pass that relaxes only the atoms the hint violates.
    A wrong hint only costs work, never soundness.  A hint that satisfies
    every hard atom and the first literal of every clause is the model
    the search would find without a conflict, so it is checked in one pass
    and returned (a copy) with the statistics that search reports: a
    decision per clause, a theory add per hard atom and per clause, no
    backtrack and no conflict.  The budget is checked
    per decision, per conflict, every 4096 hard atoms loaded and every
    4096 steps of a relaxation wave (once, on a hint that checks). *)
