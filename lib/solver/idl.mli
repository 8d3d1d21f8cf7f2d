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
    rather than re-running theory work for literals that already failed. *)

type atom = { u : int; v : int; k : int }
(** The difference constraint [x_u - x_v <= k]. *)

val lt : int -> int -> atom
(** [lt a b] is the strict order [x_a < x_b] over the integers. *)

val le : int -> int -> atom
(** [le a b] is [x_a <= x_b]. *)

type problem = {
  nvars : int;                 (** variables are [0 .. nvars-1] *)
  hard : atom list;            (** asserted unconditionally *)
  clauses : atom array array;  (** each clause needs >= 1 satisfied atom *)
}

type stats = {
  decisions : int;
  backtracks : int;        (** decision levels undone *)
  theory_conflicts : int;
  theory_adds : int;       (** constraints pushed into the theory solver *)
  max_depth : int;         (** deepest decision stack reached *)
  final_edges : int;
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

exception Give_up of bound
exception Unsat_now
(** Internal control flow; never escape {!solve}. *)

val solve :
  ?max_backtracks:int -> ?budget:budget -> ?hint:int array -> problem -> result
(** Solve the problem.  The [budget] bounds the search before giving up
    with {!Aborted} (honest statistics, no hang); [max_backtracks]
    overrides the budget's backtrack bound and is kept for callers of the
    pre-budget interface.  [hint.(v)] seeds the theory potentials — a
    caller that knows a model of the hard atoms (e.g. a topological order
    of its constraint DAG) makes their assertion relaxation-free; a wrong
    hint only costs work, never soundness. *)
