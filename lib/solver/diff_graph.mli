(** Incremental difference-constraint graph: the theory solver behind
    {!Idl}.

    A constraint [x_u - x_v <= k] is an edge [v -> u] of weight [k]; the
    conjunction is satisfiable iff the graph has no negative cycle.  A
    potential function witnessing feasibility is maintained incrementally
    and doubles as a satisfying assignment.  Chronological backtracking is
    supported through [push]/[pop] trails.

    The graph is flat: edges are five-int records on one stack, each
    vertex's edges a chain through it (newest first), the trails are int
    arrays and one preallocated queue serves every relaxation wave, so
    asserting an edge allocates nothing but growth. *)

type t

val create : ?edges:int -> ?levels:int -> ?check:(unit -> unit) -> int -> t
(** [create n] makes a graph over variables [0 .. n-1]; it grows on demand
    when larger indices are used.  The edge stack starts with room for
    [edges] edges and the trail, which holds two ints per saved level and
    per potential changed under one, for [levels] levels (default 16
    each); both grow on demand.  [check] is called every 4096 relaxation
    steps of a wave; it may raise to abandon a long relaxation, after which
    the graph is inconsistent. *)

type conflict = {
  tags : int list;
      (** deduplicated tags of the edges on a negative cycle, including the
          tag of the edge whose addition closed it *)
  complete : bool;
      (** the cycle walk terminated normally; [false] means the tag set may
          be missing responsible constraints, so conflict-driven backjumping
          over it would be unsound — fall back to chronological *)
}

val add_constraint : t -> u:int -> v:int -> k:int -> tag:int -> (unit, conflict) result
(** Assert [x_u - x_v <= k].  [Ok ()] updates the potential; [Error c]
    reports the edge tags involved in a negative cycle (including [tag]).
    An edge the current potential already satisfies (e.g. one a seeded hint
    orders) costs one comparison; only a violated edge relaxes.
    After an error the graph state is inconsistent until the caller [pop]s
    back to the enclosing level. *)

val push : t -> unit
(** Mark a backtracking level. *)

val pop : t -> unit
(** Undo every edge addition and potential update since the matching
    {!push}.  @raise Invalid_argument when no level is saved. *)

val potential : t -> int -> int
(** The current potential of a variable — a satisfying assignment of all
    asserted constraints. *)

val potentials : t -> int -> int array
(** [potentials g n] is [[| potential g 0; ..; potential g (n-1) |]]. *)

val seed : t -> int array -> unit
(** [seed g hint] initializes the potential of variable [v] to [hint.(v)]
    — e.g. a topological order of constraints the caller is about to
    assert, which then assert with zero relaxation.  Call before any
    constraints are added; a wrong hint only costs relaxation work, never
    correctness. *)

val num_edges : t -> int
