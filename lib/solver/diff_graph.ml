(** Incremental difference-constraint graph.

    A constraint [x_u - x_v <= k] is an edge [v -> u] with weight [k].  The
    conjunction of constraints is satisfiable iff the graph has no negative
    cycle.  We maintain a potential [d] with [d(u) <= d(v) + k] for every
    edge — which is itself a satisfying assignment — and detect infeasibility
    incrementally: adding an edge is checked against the current potential
    (a seeded hint that satisfies it costs one comparison), a violated edge
    triggers queue-based relaxation, and a negative cycle exists iff the
    relaxation wave improves the new edge's source (the cycle necessarily
    passes through the new edge, because the graph was feasible before).

    Everything lives in int arrays: an edge stack of five-int records with
    per-vertex chains (newest first), and one trail of int pairs, a level
    [(-1 - edges, previous level)] or a potential change [(vertex, old
    value)] (none with no level saved: it is never undone).  Edges carry
    tags, so a negative cycle is reported as the responsible constraints'
    tags (for the DPLL(T) driver's conflict-driven backjumping). *)

type conflict = { tags : int list; complete : bool }

(* the fields of edge [e], at [5 * e] in [edges] *)
let e_src, e_dst, e_w, e_tag, e_next = (0, 1, 2, 3, 4)

type t = {
  mutable nvars : int;          (* capacity of the vertex columns *)
  mutable head : int array;     (* head.(v): v's newest edge v -> u, or -1 *)
  mutable d : int array;        (* potential: d(u) <= d(v) + k *)
  mutable par : int array;      (* [2v], [2v+1]: v's relaxation parent and its edge's tag;
                                   made at the first wave *)
  mutable edges : int array;
  mutable ne : int;
  mutable trail : int array;
  mutable nt : int;             (* ints used in [trail] *)
  mutable top : int;            (* the top level's index in [trail], or -1 *)
  mutable queue : int array;
  mutable steps : int;          (* relaxation steps since the last check *)
  check : unit -> unit;
}

(* relaxation steps between two calls of [check] *)
let check_every = 4096

let create ?(edges = 16) ?(levels = 16) ?(check = ignore) (nvars : int) : t =
  let n = max 1 nvars in
  {
    nvars;
    head = Array.make n (-1);
    d = Array.make n 0;
    par = [||];
    edges = Array.make (5 * max 1 edges) 0;
    ne = 0;
    trail = Array.make (2 * max 1 levels) 0;
    nt = 0;
    top = -1;
    queue = Array.make 16 0;
    steps = 0;
    check;
  }

(* [a] with room for [n] ints, at least doubled, its first [used] kept and
   the rest [fill] *)
let grown ?(fill = 0) (a : int array) (used : int) (n : int) : int array =
  if n <= Array.length a then a
  else begin
    let b = Array.make (max n (2 * Array.length a)) fill in
    Array.blit a 0 b 0 used;
    b
  end

let ensure (g : t) (n : int) : unit =
  if n >= g.nvars then begin
    let cap = max (n + 1) (2 * g.nvars) in
    g.head <- grown ~fill:(-1) g.head (Array.length g.head) cap;
    g.d <- grown g.d (Array.length g.d) cap;
    if Array.length g.par > 0 then g.par <- grown ~fill:(-1) g.par (Array.length g.par) (2 * cap);
    g.nvars <- cap
  end

let potential (g : t) (v : int) : int = g.d.(v)

let potentials (g : t) (n : int) : int array = Array.sub g.d 0 n

let seed (g : t) (hint : int array) : unit =
  ensure g (Array.length hint - 1);
  Array.blit hint 0 g.d 0 (Array.length hint)

let num_edges (g : t) : int = g.ne

(* append the pair [(a, b)] to the trail *)
let trail2 (g : t) (a : int) (b : int) : unit =
  g.trail <- grown g.trail g.nt (g.nt + 2);
  g.trail.(g.nt) <- a;
  g.trail.(g.nt + 1) <- b;
  g.nt <- g.nt + 2

let push (g : t) : unit =
  let l = g.nt in
  trail2 g (-1 - g.ne) g.top;
  g.top <- l

let pop (g : t) : unit =
  if g.top < 0 then invalid_arg "Diff_graph.pop: no saved level";
  let l = g.top in
  (* newest first, so a vertex trailed twice gets its oldest value *)
  let i = ref (g.nt - 2) in
  while !i > l do
    g.d.(g.trail.(!i)) <- g.trail.(!i + 1);
    i := !i - 2
  done;
  let el = -1 - g.trail.(l) and es = g.edges in
  for e = g.ne - 1 downto el do
    g.head.(es.((5 * e) + e_src)) <- es.((5 * e) + e_next)
  done;
  g.ne <- el;
  g.top <- g.trail.(l + 1);
  g.nt <- l

let set_d (g : t) (v : int) (x : int) : unit =
  if g.top >= 0 then trail2 g v g.d.(v);
  g.d.(v) <- x

(* the tags of the negative cycle closed by edge [v -> u] (tag [tag]) and
   the improving edge [x -> v] (tag [xtag]).  Every improvement in the
   relaxation wave stems from [u], so parent pointers trace a path of
   improving edges back to [u]; the fuel bound is a safety net against a
   corrupted parent chain (reported via [complete = false] so the DPLL(T)
   driver falls back to chronological backtracking). *)
let cycle (g : t) ~u ~tag ~x ~xtag : conflict =
  let tags = ref [ tag; xtag ] in
  let cur = ref x in
  let fuel = ref (g.nvars + 1) in
  while !cur <> u && !cur >= 0 && !fuel > 0 do
    decr fuel;
    tags := g.par.((2 * !cur) + 1) :: !tags;
    cur := g.par.(2 * !cur)
  done;
  { tags = List.sort_uniq compare !tags; complete = !cur = u }

let add_constraint (g : t) ~(u : int) ~(v : int) ~(k : int) ~(tag : int) :
    (unit, conflict) result =
  ensure g (max u v);
  (* record the edge v -> u at the front of v's chain *)
  g.edges <- grown g.edges (5 * g.ne) ((5 * g.ne) + 5);
  let es = g.edges and b = 5 * g.ne in
  es.(b + e_src) <- v;
  es.(b + e_dst) <- u;
  es.(b + e_w) <- k;
  es.(b + e_tag) <- tag;
  es.(b + e_next) <- g.head.(v);
  g.head.(v) <- g.ne;
  g.ne <- g.ne + 1;
  let d = g.d in
  if d.(u) <= d.(v) + k then Ok ()
  else begin
    (* relax from u, first in first out; improving d(v) certifies a
       negative cycle *)
    if Array.length g.par = 0 then g.par <- Array.make (2 * Array.length d) (-1);
    g.par.(2 * u) <- v;
    g.par.((2 * u) + 1) <- tag;
    set_d g u (d.(v) + k);
    g.queue.(0) <- u;
    let qh = ref 0 and qt = ref 1 in
    let conflict = ref None and found = ref false in
    while (not !found) && !qh < !qt do
      let x = g.queue.(!qh) in
      incr qh;
      g.steps <- g.steps + 1;
      if g.steps >= check_every then begin
        g.steps <- 0;
        g.check ()
      end;
      let dx = d.(x) in
      let e = ref g.head.(x) in
      while (not !found) && !e >= 0 do
        let b = 5 * !e in
        let w = es.(b + e_dst) and dw = dx + es.(b + e_w) in
        if d.(w) > dw then begin
          if w = v then begin
            found := true;
            conflict := Some (cycle g ~u ~tag ~x ~xtag:es.(b + e_tag))
          end
          else begin
            g.par.(2 * w) <- x;
            g.par.((2 * w) + 1) <- es.(b + e_tag);
            set_d g w dw;
            g.queue <- grown g.queue !qt (!qt + 1);
            g.queue.(!qt) <- w;
            incr qt
          end
        end;
        e := es.(b + e_next)
      done
    done;
    match !conflict with None -> Ok () | Some c -> Error c
  end
