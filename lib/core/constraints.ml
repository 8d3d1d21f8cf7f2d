(** Offline constraint generation (Section 4.2, Equation 1).

    Every recorded artifact is normalized to an {e interval} of same-thread
    accesses to one location:

    - a dep [w -> [rf..rl]] yields a read interval [[rf..rl]] with source
      [w], plus a singleton write interval for [w] when [w] is not already
      interior to a recorded interval of its thread;
    - an O1 range yields an interval [[lo..hi]] with its [w_in] source;
      referenced sources again materialize as singleton write intervals.

    The constraint system over the order variables [O(tid,c)]:

    + {b thread order}: for the referenced events of each thread, sorted by
      counter, [O(e_i) < O(e_{i+1})] — the intra-thread order the paper
      derives for free from thread-local counters;
    + {b dependence}: [O(src) < O(start I)] for each sourced interval;
    + {b initial-value reads}: an interval reading the virtual initialization
      write must end before the start of every write-bearing interval on the
      location (Java default initialization makes this a flow dependence on
      the allocation; the paper leaves it implicit);
    + {b noninterference}: Equation 1's disjunction, generalized from single
      dependences to intervals.  The {e protected zone} of an interval [I]
      that reads is [(zstart(I) .. end I]] where [zstart(I)] is its source
      write when it has one (the reads at the start of [I] obtain their value
      from that write, so no other write may land after it and before the
      last read), and [start I] otherwise (its reads see its own writes).
      For every write-bearing interval [J]:
      [O(end I) < O(start J) \/ O(end J) < O(zstart I)].
      When [zstart(I)] is itself an event of [J] it is necessarily [J]'s
      last write and no constraint is needed beyond the hard source edge.

    {b Exploration hooks.}  Schedule-space exploration (lib/explore)
    deliberately steps outside the recorded equivalence class: [~free]
    names interval start events whose incoming dependence pin is dropped
    (the interval becomes a {e sourceless} reader: noninterference still
    keeps writers out of its interior, but its read-from write may change),
    and [~extra_events] materializes additional order variables for
    accesses the log never referenced (they join their thread's order
    chain and participate in no clause, so the solver — and the replay
    gate — can place them).  With both empty the generated system is
    byte-identical to the unrelaxed one.

    {b Pruning.}  Materializing the noninterference disjunction for every
    (reader, writer) pair is quadratic per location and dominates both
    generation and solving at workload scale.  Most pairs are already
    ordered by the {e hard} constraints alone (thread order + recorded flow
    edges): if those entail one disjunct of a clause, every model of the
    hard part satisfies the clause and it can be dropped without changing
    the solution set (see DESIGN.md, "Noninterference pruning").  The
    default generator therefore precomputes, per order variable, a vector
    clock over the hard constraint graph and sweeps each location's
    write-bearing intervals in thread order: for a reader [I] and a writer
    thread [t], the writers hard-ordered before [zstart I] form a prefix of
    [t]'s interval sequence and the writers hard-ordered after [end I] form
    a suffix (both monotone in thread order), so two binary searches find
    the unordered {e gap} and only the gap produces clauses.  Same-thread
    gap writers reduce to unit hard edges ([O(end J) < O(zstart I)], the
    other disjunct being falsified by thread order), and surviving clauses
    are deduplicated.  [generate ~naive:true] keeps the original pairwise
    generator as a differential oracle: the two systems are equisatisfiable
    by construction, which test/test_replay.ml checks on random traces.

    {b Order.}  Literals are ordered by the recording observation stamps,
    then the hint-true literal of each clause goes first, so the original
    schedule acts as a witness for the DPLL search.  What reaches the
    solver is an ordered system: the order of the hard atoms (thread
    chains, then dependence edges, then sweep edges, each emitted location
    by location in [Loc.Map] order) and of the clauses and their literals
    decides the solver's first descent and so the replay schedule.  The
    generator keeps that order fixed; test/test_replay.ml pins digests of
    whole systems.

    {b Cost.}  Generation is linear in the log apart from sorts.  Intervals
    are grouped by location with one hash pass and one sort of the distinct
    locations by (object, field name) — [Loc.Map]'s order, without its
    per-comparison name allocation.  "Is this event inside an interval of
    its thread" (singleton materialization, the sweep's candidate count) is
    a binary search over the thread's intervals sorted by start with a
    running max of their ends.  Every interval's variables are resolved
    once; the per-thread chains and the time-estimate anchors come from
    radix sorts; reachability and the hint share one compressed adjacency
    of the hard graph.  The sweep itself does two binary searches per
    (reader, writer thread) and touches only the gap. *)

open Runtime

type interval = {
  iv_loc : Loc.t;
  start_e : Log.evt;
  end_e : Log.evt;
  writes : bool;
  reads : bool;
  src : Log.evt option option;
      (** [None]: no incoming dependence; [Some None]: virtual init write;
          [Some (Some w)]: recorded write *)
  obs : int;
  src_obs : int;  (** access-clock stamp of the recorded source write, or 0 *)
}

type gen_stats = {
  n_pairs : int;
      (** (reader, writer) pairs subject to noninterference — what the
          naive generator would emit as clauses *)
  n_pruned : int;   (** pairs dropped: one disjunct entailed by hard constraints *)
  n_unit : int;     (** pairs reduced to a hard edge by thread order *)
  n_dedup : int;    (** duplicate clauses dropped *)
  gen_time_s : float;  (** wall clock *)
}

type t = {
  problem : Dlsolver.Idl.problem;
  vars : (Log.evt, int) Hashtbl.t;
  evts : Log.evt array;          (** var index -> event *)
  intervals : interval list;
  n_hard : int;
  n_clauses : int;
  gen_stats : gen_stats;
  hint : int array option;
      (** topological order of the hard constraint DAG — a model of the
          hard atoms, seeding the solver's potentials ([None] on a cyclic
          hard graph, i.e. an unsatisfiable system) *)
}

(* ------------------------------------------------------------------ *)
(* Grouping and interval lookups                                       *)
(* ------------------------------------------------------------------ *)

(* tables keyed by events and other int pairs, hashed without a C call *)
module PairTbl = Hashtbl.Make (struct
  type t = int * int

  let equal ((a, b) : t) (c, d) = a = c && b = d
  let hash ((a, b) : t) = (a * 0x2f0b_3a49) + b
end)

(* [xs] grouped by location in [Loc.Map] order (obj, then field name),
   each group in reverse input order — what a [Loc.Map.update] fold that
   conses onto each binding gives, from one hashed pass and one sort of the
   distinct locations.  Distinct locations never share an (obj, name) key:
   element fields print as "#<i>" and no interned name starts with '#'. *)
let group_by_loc (loc_of : 'a -> Loc.t) (xs : 'a list) : (Loc.t * 'a list) list =
  let tbl : 'a list ref Loc.Tbl.t = Loc.Tbl.create 64 in
  let groups = ref [] in
  List.iter
    (fun x ->
      let l = loc_of x in
      match Loc.Tbl.find_opt tbl l with
      | Some r -> r := x :: !r
      | None ->
        let r = ref [ x ] in
        Loc.Tbl.add tbl l r;
        groups := ((l.obj, Loc.fld_name l.fld), l, r) :: !groups)
    xs;
  List.sort
    (fun ((o1, n1), _, _) ((o2, n2), _, _) ->
      match Int.compare o1 o2 with 0 -> String.compare n1 n2 | c -> c)
    !groups
  |> List.map (fun (_, l, r) -> (l, !r))

let by_location (ivs : interval list) : (Loc.t * interval list) list =
  group_by_loc (fun iv -> iv.iv_loc) ivs

(* [idx] stably sorted by [key.(i)]: an LSD radix sort on [key - min],
   11 bits a pass, so the cost is linear in the number of indices *)
let radix_sort (key : int array) (idx : int array) : int array =
  let n = Array.length idx in
  let lo = Array.fold_left (fun m i -> min m key.(i)) max_int idx
  and hi = Array.fold_left (fun m i -> max m key.(i)) min_int idx in
  let src = ref (Array.copy idx) and dst = ref (Array.make n 0) in
  let count = Array.make 2049 0 in
  let shift = ref 0 in
  while n > 0 && !shift < Sys.int_size && (hi - lo) lsr !shift > 0 do
    let digit i = ((key.(i) - lo) lsr !shift) land 2047 in
    Array.fill count 0 2049 0;
    Array.iter (fun i -> let d = digit i + 1 in count.(d) <- count.(d) + 1) !src;
    for d = 1 to 2048 do count.(d) <- count.(d) + count.(d - 1) done;
    Array.iter
      (fun i ->
        let d = digit i in
        !dst.(count.(d)) <- i;
        count.(d) <- count.(d) + 1)
      !src;
    let t = !src in
    src := !dst;
    dst := t;
    shift := !shift + 11
  done;
  !src

(* Sorts the interval indices [ks] stably by (thread, start counter) and
   returns, at each position, the greatest end counter of that thread's
   intervals up to it.  Recorded intervals are disjoint per thread, so
   ends ascend anyway, but synthetic logs nest them. *)
let by_thread_start (ivs : interval array) (ks : int array) : int array =
  Array.stable_sort
    (fun a b ->
      let (ta, ca), (tb, cb) = (ivs.(a).start_e, ivs.(b).start_e) in
      match Int.compare ta tb with 0 -> Int.compare ca cb | d -> d)
    ks;
  let pmax = Array.make (Array.length ks) 0 in
  Array.iteri
    (fun x k ->
      let t, _ = ivs.(k).start_e and e = snd ivs.(k).end_e in
      pmax.(x) <- (if x > 0 && fst ivs.(ks.(x - 1)).start_e = t then max pmax.(x - 1) e else e))
    ks;
  pmax

(* Whether event [(t, c)] lies inside one of the intervals [ks] (sorted by
   {!by_thread_start}, with its running max [pmax]): thread [t]'s
   intervals starting at or before [c] form the run that ends at the last
   position at or below [(t, c)], found by binary search, and one of them
   reaches [c] iff the running max there does. *)
let covered (ivs : interval array) (ks : int array) (pmax : int array) ((t, c) : Log.evt) =
  let lo = ref 0 and hi = ref (Array.length ks) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let t', c' = ivs.(ks.(mid)).start_e in
    if t' < t || (t' = t && c' <= c) then lo := mid + 1 else hi := mid
  done;
  let k = !lo in
  k > 0 && fst ivs.(ks.(k - 1)).start_e = t && pmax.(k - 1) >= c

let intervals_of_log (log : Log.t) : interval list =
  let base =
    List.map
      (fun (d : Log.dep) ->
        {
          iv_loc = d.loc;
          start_e = d.rf;
          end_e = (fst d.rf, d.rl_c);
          writes = false;
          reads = true;
          src = Some d.w;
          obs = d.dep_obs;
          src_obs = d.w_obs;
        })
      log.deps
    @ List.map
        (fun (r : Log.range) ->
          {
            iv_loc = r.loc;
            start_e = (r.rt, r.lo);
            end_e = (r.rt, r.hi);
            writes = r.has_write;
            reads = true;  (* only runs containing reads are recorded *)
            src = (if r.prefix_reads then Some r.w_in else None);
            obs = r.rng_obs;
            src_obs = r.w_obs;
          })
        log.ranges
  in
  let ivs = Array.of_list base in
  (* materialize, per location, the referenced writes that no interval of
     their thread covers *)
  let singletons =
    List.fold_left
      (fun acc (loc, ks) ->
        let srcs =
          List.filter_map
            (fun k ->
              match ivs.(k).src with Some (Some w) -> Some (w, ivs.(k).src_obs) | _ -> None)
            ks
        in
        if srcs = [] then acc
        else begin
          let ks = Array.of_list ks in
          let pmax = by_thread_start ivs ks in
          let seen = PairTbl.create 8 in
          List.fold_left
            (fun acc (w, w_obs) ->
              if PairTbl.mem seen w || covered ivs ks pmax w then acc
              else begin
                PairTbl.add seen w ();
                {
                  iv_loc = loc;
                  start_e = w;
                  end_e = w;
                  writes = true;
                  reads = false;
                  src = None;
                  obs = w_obs;  (* the write's own recorded stamp *)
                  src_obs = 0;
                }
                :: acc
              end)
            acc srcs
        end)
      []
      (group_by_loc (fun k -> ivs.(k).iv_loc) (List.init (Array.length ivs) Fun.id))
  in
  base @ singletons

(* ------------------------------------------------------------------ *)
(* Variables by thread                                                 *)
(* ------------------------------------------------------------------ *)

(* The variables' threads, numbered densely in order of first appearance
   (the thread's {e slot}), and each thread's variables by ascending
   counter — its thread-order chain. *)
type threads = {
  slot_of : (int, int) Hashtbl.t;  (* tid -> slot *)
  slot : int array;                (* var -> slot of its thread *)
  chains : int array array;        (* slot -> the thread's vars by counter *)
}

let threads_of (evts : Log.evt array) : threads =
  let slot_of : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let slot =
    Array.map
      (fun (t, _) ->
        match Hashtbl.find_opt slot_of t with
        | Some s -> s
        | None ->
          let s = Hashtbl.length slot_of in
          Hashtbl.add slot_of t s;
          s)
      evts
  in
  (* the variables by counter, dealt out to their threads in that order *)
  let by_counter = radix_sort (Array.map snd evts) (Array.init (Array.length evts) Fun.id) in
  let size = Array.make (Hashtbl.length slot_of) 0 in
  Array.iter (fun s -> size.(s) <- size.(s) + 1) slot;
  let chains = Array.map (fun n -> Array.make n 0) size in
  Array.fill size 0 (Array.length size) 0;
  Array.iter
    (fun v ->
      let s = slot.(v) in
      chains.(s).(size.(s)) <- v;
      size.(s) <- size.(s) + 1)
    by_counter;
  { slot_of; slot; chains }

(* Per-variable global-time estimate from the log's access-clock anchors:
   deps stamp their last read and source write, ranges their endpoints and
   feeding write — every event appearing in a constraint atom is stamped
   exactly, so the topological tie-break reconstructs the recorded
   schedule at those events.  Counters between anchors interpolate
   linearly (scaled to keep integer precision) and counters outside the
   sampled span extrapolate by one unit per step.  Each thread's anchors
   are sorted by (counter, stamp) and its chain is placed by one forward
   walk over them. *)
let event_times (log : Log.t) (evts : Log.evt array) (th : threads) : int array =
  let scale = 1024 in
  (* the anchors (slot, counter, stamp) of the threads that have variables *)
  let cap = (2 * List.length log.deps) + (3 * List.length log.ranges) in
  let a_slot = Array.make cap 0 and a_c = Array.make cap 0 and a_o = Array.make cap 0 in
  let na = ref 0 in
  let anchor t c o =
    match Hashtbl.find_opt th.slot_of t with
    | Some s ->
      a_slot.(!na) <- s;
      a_c.(!na) <- c;
      a_o.(!na) <- o;
      incr na
    | None -> ()
  in
  List.iter
    (fun (d : Log.dep) ->
      anchor (fst d.rf) d.rl_c d.dep_obs;
      match d.w with Some (t, c) -> anchor t c d.w_obs | None -> ())
    log.deps;
  List.iter
    (fun (r : Log.range) ->
      anchor r.rt r.hi r.rng_obs;
      anchor r.rt r.lo r.lo_obs;
      match r.w_in with Some (t, c) -> anchor t c r.w_obs | None -> ())
    log.ranges;
  let order = radix_sort a_slot (radix_sort a_c (radix_sort a_o (Array.init !na Fun.id))) in
  let prio = Array.make (Array.length evts) 0 in
  let k = ref 0 in
  Array.iteri
    (fun s chain ->
      let b = !k in
      while !k < !na && a_slot.(order.(!k)) = s do incr k done;
      let n = !k - b in
      if n > 0 then begin
        let cs = Array.init n (fun i -> a_c.(order.(b + i))) in
        let os = Array.init n (fun i -> a_o.(order.(b + i))) in
        (* force stamps monotone in the counter (duplicate counters keep
           the later stamp; noisy stamps are clamped) *)
        for i = 1 to n - 1 do
          if os.(i) < os.(i - 1) then os.(i) <- os.(i - 1)
        done;
        (* [best]: greatest anchor index with counter <= c *)
        let best = ref (-1) in
        Array.iter
          (fun v ->
            let c = snd evts.(v) in
            while !best + 1 < n && cs.(!best + 1) <= c do incr best done;
            let i = !best in
            prio.(v) <-
              (if i < 0 then (os.(0) * scale) - (cs.(0) - c)
               else if i = n - 1 then (os.(i) * scale) + (c - cs.(i))
               else if c = cs.(i) then os.(i) * scale
               else
                 (os.(i) * scale)
                 + ((os.(i + 1) - os.(i)) * scale * (c - cs.(i)) / (cs.(i + 1) - cs.(i)))))
          chain
      end)
    th.chains;
  prio

(* ------------------------------------------------------------------ *)
(* The hard graph: reachability (vector clocks) and the hint           *)
(* ------------------------------------------------------------------ *)

(* The hard constraint graph in compressed adjacency form: the successors
   of [v] are [dst.(off.(v)) .. dst.(off.(v+1) - 1)]. *)
type graph = { off : int array; dst : int array }

let graph_of (nv : int) (hard : Dlsolver.Idl.atom list) : graph =
  let off = Array.make (nv + 1) 0 in
  List.iter (fun (a : Dlsolver.Idl.atom) -> off.(a.u + 1) <- off.(a.u + 1) + 1) hard;
  for v = 1 to nv do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let fill = Array.sub off 0 nv in
  let dst = Array.make off.(nv) 0 in
  List.iter
    (fun (a : Dlsolver.Idl.atom) ->
      dst.(fill.(a.u)) <- a.v;
      fill.(a.u) <- fill.(a.u) + 1)
    hard;
  { off; dst }

let indegrees (nv : int) (g : graph) : int array =
  let indeg = Array.make nv 0 in
  Array.iter (fun w -> indeg.(w) <- indeg.(w) + 1) g.dst;
  indeg

(* [vc.(v * nthreads + slot)] is the greatest counter of an event of the
   slot's thread known to hard-precede (or be) variable [v].  Since thread
   order chains every variable-bearing event of a thread, [(t, c)]
   hard-precedes [v] iff that entry is >= c (and the events differ).
   Computed by one topological pass over the hard edges (Kahn's algorithm;
   the join is order-independent); [None] when the hard graph is cyclic
   (the problem is then unsatisfiable whatever clauses we emit, so pruning
   soundness is moot and the caller emits without pruning). *)
let compute_reach (evts : Log.evt array) (th : threads) (g : graph) : int array option =
  let nv = Array.length evts in
  let nt = Array.length th.chains in
  let indeg = indegrees nv g in
  let vc = Array.make (nv * nt) min_int in
  let q = Array.make nv 0 in  (* every vertex enters the queue once *)
  let tail = ref 0 in
  for v = 0 to nv - 1 do
    if indeg.(v) = 0 then (q.(!tail) <- v; incr tail)
  done;
  let head = ref 0 in
  while !head < !tail do
    let v = q.(!head) in
    incr head;
    let own = (v * nt) + th.slot.(v) in
    let c = snd evts.(v) in
    if vc.(own) < c then vc.(own) <- c;
    for e = g.off.(v) to g.off.(v + 1) - 1 do
      let w = g.dst.(e) in
      for s = 0 to nt - 1 do
        if vc.((w * nt) + s) < vc.((v * nt) + s) then
          vc.((w * nt) + s) <- vc.((v * nt) + s)
      done;
      indeg.(w) <- indeg.(w) - 1;
      if indeg.(w) = 0 then (q.(!tail) <- w; incr tail)
    done
  done;
  if !head < nv then None else Some vc

(* Topological order of the hard constraint DAG ([g] plus the [extra]
   atoms): the returned array strictly increases along every edge, so it
   is a model of the hard atoms and doubles as a potential seed for the
   solver; [None] on a cycle.  Ready vertices are released by ascending
   [(prio, vertex)] (the observation-stamp estimate of each event), so the
   order tracks the recorded schedule wherever the hard constraints leave
   slack — making it a good witness for the clauses too, not just the hard
   part.  Positions are spread by a slack factor so that the relaxation
   cascades triggered by asserting clause literals against the seeded
   potentials die out quickly instead of rippling through zero-slack
   chains. *)
let topo_hint (nv : int) (prio : int array) (g : graph) (extra : Dlsolver.Idl.atom list) :
    int array option =
  let indeg = indegrees nv g in
  let extra_adj = Array.make nv [] in
  List.iter
    (fun (a : Dlsolver.Idl.atom) ->
      extra_adj.(a.u) <- a.v :: extra_adj.(a.u);
      indeg.(a.v) <- indeg.(a.v) + 1)
    extra;
  (* binary min-heap of the ready vertices, keyed by (prio, vertex) *)
  let heap = Array.make nv 0 in
  let size = ref 0 in
  let less a b = prio.(a) < prio.(b) || (prio.(a) = prio.(b) && a < b) in
  let push v =
    let k = ref !size in
    incr size;
    while !k > 0 && less v heap.((!k - 1) / 2) do
      heap.(!k) <- heap.((!k - 1) / 2);
      k := (!k - 1) / 2
    done;
    heap.(!k) <- v
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    let last = heap.(!size) in
    let k = ref 0 and settled = ref false in
    while not !settled do
      let l = (2 * !k) + 1 in
      if l >= !size then settled := true
      else begin
        let c = if l + 1 < !size && less heap.(l + 1) heap.(l) then l + 1 else l in
        if less heap.(c) last then (heap.(!k) <- heap.(c); k := c) else settled := true
      end
    done;
    heap.(!k) <- last;
    top
  in
  let release w =
    indeg.(w) <- indeg.(w) - 1;
    if indeg.(w) = 0 then push w
  in
  for v = 0 to nv - 1 do
    if indeg.(v) = 0 then push v
  done;
  let hint = Array.make (max 1 nv) 0 in
  let n = ref 0 in
  while !size > 0 do
    let v = pop () in
    hint.(v) <- 16 * !n;
    incr n;
    for e = g.off.(v) to g.off.(v + 1) - 1 do
      release g.dst.(e)
    done;
    List.iter release extra_adj.(v)
  done;
  if !n < nv then None else Some hint

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

(* [esrc] encoding of an interval's effective source *)
let no_src = -2  (* no incoming dependence, or freed *)
let init_src = -1  (* the virtual initialization write *)

let generate ?(naive = false) ?(free = []) ?(extra_events = []) (log : Log.t) : t =
  let t_start = Unix.gettimeofday () in
  let intervals = intervals_of_log log in
  let ivs = Array.of_list intervals in
  let n = Array.length ivs in
  (* freed interval starts: their source pin is dropped (exploration) *)
  let freed = PairTbl.create (max 4 (List.length free)) in
  List.iter (fun e -> PairTbl.replace freed e ()) free;
  let is_freed = Array.map (fun iv -> PairTbl.mem freed iv.start_e) ivs in
  (* variable per referenced event, numbered in order of first reference *)
  let ids : int PairTbl.t = PairTbl.create (max 1024 (2 * n)) in
  let evts_rev = ref [] in
  let var (e : Log.evt) : int =
    match PairTbl.find_opt ids e with
    | Some v -> v
    | None ->
      let v = PairTbl.length ids in
      PairTbl.add ids e v;
      evts_rev := e :: !evts_rev;
      v
  in
  (* every interval's start, end and effective-source variables, resolved
     once *)
  let sv = Array.make n 0 and ev = Array.make n 0 and esrc = Array.make n no_src in
  Array.iteri
    (fun k iv ->
      sv.(k) <- var iv.start_e;
      ev.(k) <- var iv.end_e;
      let w = match iv.src with Some (Some w) -> var w | Some None -> init_src | None -> no_src in
      if not is_freed.(k) then esrc.(k) <- w)
    ivs;
  (* exploration events: a variable in the thread-order chain, no clauses *)
  List.iter (fun e -> ignore (var e)) extra_events;
  let evts = Array.of_list (List.rev !evts_rev) in
  let nv = Array.length evts in
  (* the public table, filled in variable order: its iteration order (and
     so the thread-chain order below) is that of the same insertions *)
  let vars : (Log.evt, int) Hashtbl.t = Hashtbl.create 1024 in
  Array.iteri (fun v e -> Hashtbl.add vars e v) evts;
  let th = threads_of evts in
  let prio = event_times log evts th in
  let hard = ref [] in
  let n_hard = ref 0 in
  let add_hard a b =
    hard := Dlsolver.Idl.lt a b :: !hard;
    incr n_hard
  in
  (* thread order, one chain per thread; the chains go out in the
     iteration order of a tid table filled in [vars] iteration order *)
  let by_tid : (int, int array) Hashtbl.t = Hashtbl.create 16 in
  (try
     Hashtbl.iter
       (fun (t, _) v ->
         if not (Hashtbl.mem by_tid t) then begin
           Hashtbl.add by_tid t th.chains.(th.slot.(v));
           if Hashtbl.length by_tid = Array.length th.chains then raise Exit
         end)
       vars
   with Exit -> ());
  Hashtbl.iter
    (fun _ chain ->
      for k = 1 to Array.length chain - 1 do
        add_hard chain.(k - 1) chain.(k)
      done)
    by_tid;
  (* dependence edges *)
  let groups = group_by_loc (fun k -> ivs.(k).iv_loc) (List.init n Fun.id) in
  List.iter
    (fun (_, ks) -> List.iter (fun k -> if esrc.(k) >= 0 then add_hard esrc.(k) sv.(k)) ks)
    groups;
  let clauses = ref [] in
  let n_pairs = ref 0 and n_pruned = ref 0 and n_unit = ref 0 and n_dedup = ref 0 in
  let tid k = fst ivs.(k).start_e in
  let start_c k = snd ivs.(k).start_e and end_c k = snd ivs.(k).end_e in
  (* event [(t, c)] lies inside interval [j] *)
  let inside (t, c) j = tid j = t && start_c j <= c && c <= end_c j in
  (* the recorded source event of a sourced interval *)
  let src_evt i = match ivs.(i).src with Some (Some w) -> w | _ -> assert false in
  let emit_clause i j a1 a2 =
    (* the first literal matches the original order when i was observed
       before j *)
    let iobs = ivs.(i).obs and jobs = ivs.(j).obs in
    clauses := (max iobs jobs, if iobs <= jobs then [| a1; a2 |] else [| a2; a1 |]) :: !clauses
  in
  let hard_graph, late_hard =
    if naive then begin
      (* the original pairwise generator, kept as the differential oracle for
         the pruning sweep below *)
      List.iter
        (fun (_, ks) ->
          let sorted = List.stable_sort (fun a b -> Int.compare ivs.(a).obs ivs.(b).obs) ks in
          List.iter
            (fun i ->
              if ivs.(i).reads then
                List.iter
                  (fun j ->
                    if j <> i && ivs.(j).writes then begin
                      let a1 = Dlsolver.Idl.lt ev.(i) sv.(j) in
                      if esrc.(i) = init_src then
                        (* initial-value reads precede every write on the loc *)
                        add_hard ev.(i) sv.(j)
                      else if esrc.(i) >= 0 then begin
                        if not (inside (src_evt i) j) then begin
                          incr n_pairs;
                          emit_clause i j a1 (Dlsolver.Idl.lt ev.(j) esrc.(i))
                        end
                      end
                      else if tid i <> tid j && not is_freed.(i) then begin
                        incr n_pairs;
                        emit_clause i j a1 (Dlsolver.Idl.lt ev.(j) sv.(i))
                      end
                    end)
                  sorted)
            sorted)
        groups;
      (graph_of nv !hard, [])
    end
    else begin
      (* ---- pruned sweep ---- *)
      (* per location: the write-bearing intervals by (thread, start) with
         their running max of ends, and the [(b, e)] bounds of each
         thread's run in them (ascending tid) *)
      let groups =
        List.map
          (fun (_, ks) ->
            let ws = Array.of_list (List.rev (List.filter (fun k -> ivs.(k).writes) ks)) in
            let pmax = by_thread_start ivs ws in
            let rec runs b =
              if b >= Array.length ws then []
              else begin
                let e = ref (b + 1) in
                while !e < Array.length ws && tid ws.(!e) = tid ws.(b) do incr e done;
                (b, !e) :: runs !e
              end
            in
            (ks, ws, pmax, runs 0))
          groups
      in
      (* compressed initial-value constraints: one edge to the first write
         interval of each thread; thread order entails the edges to the rest *)
      List.iter
        (fun (ks, ws, _, runs) ->
          List.iter
            (fun i ->
              if ivs.(i).reads && esrc.(i) = init_src then
                List.iter
                  (fun (b, e) ->
                    (* first writer that is not the reader itself: the edge to
                       it entails (with thread order) the edges to every later
                       writer of the thread, which is all the naive generator
                       emits for them *)
                    let k = ref b in
                    while !k < e && ws.(!k) = i do incr k done;
                    if !k < e then add_hard ev.(i) sv.(ws.(!k)))
                  runs)
            ks)
        groups;
      (* reachability over the hard constraints accumulated so far; hard
         edges added later (unit reductions) only make pruning conservative *)
      let g = graph_of nv !hard in
      let n_hard_reach = !n_hard in
      let reach = compute_reach evts th g in
      let nt = Array.length th.chains in
      (* greatest counter of an event of slot [s]'s thread hard-preceding
         (or equal to) var [v]; [min_int] when reachability is unavailable *)
      let entry v s = match reach with Some vc -> vc.((v * nt) + s) | None -> min_int in
      let seen_clause : unit PairTbl.t = PairTbl.create 4096 in
      let seen_unit : unit PairTbl.t = PairTbl.create 256 in
      List.iter
        (fun (ks, ws, pmax, runs) ->
          List.iter
            (fun i ->
              (* a freed interval is fully unpinned: its reads no longer claim
                 a consistent source, so it emits no reader-side interference
                 (it still interferes as a writer with other intervals'
                 zones) *)
              if ivs.(i).reads && esrc.(i) <> init_src && not is_freed.(i) then begin
                let t1 = tid i and s1 = th.slot.(sv.(i)) in
                let c_end_i = end_c i in
                let sourced = esrc.(i) >= 0 in
                (* the protected zone starts at the source write, or at the
                   interval's own start when it has none *)
                let v_zstart = if sourced then esrc.(i) else sv.(i) in
                let w_inside = sourced && covered ivs ws pmax (src_evt i) in
                List.iter
                  (fun (b, e) ->
                    let t2 = tid ws.(b) in
                    if sourced || t2 <> t1 then begin
                      (* candidate pairs the naive generator would emit *)
                      let cands =
                        let self = if ivs.(i).writes && t2 = t1 then 1 else 0 in
                        let w_in = if w_inside && fst (src_evt i) = t2 then 1 else 0 in
                        e - b - self - w_in
                      in
                      n_pairs := !n_pairs + cands;
                      (* writers whose end (and every earlier one's) is
                         hard-ordered before the zone start: their zone exit
                         is implied by thread order *)
                      let bound = entry v_zstart th.slot.(sv.(ws.(b))) in
                      let lo = ref b and hi = ref e in
                      while !lo < !hi do
                        let mid = (!lo + !hi) lsr 1 in
                        if pmax.(mid) <= bound then lo := mid + 1 else hi := mid
                      done;
                      let pfx = !lo in
                      (* first writer whose start is implied after the
                         reader's end *)
                      let lo = ref b and hi = ref e in
                      while !lo < !hi do
                        let mid = (!lo + !hi) lsr 1 in
                        if entry sv.(ws.(mid)) s1 >= c_end_i then hi := mid else lo := mid + 1
                      done;
                      let sfx = lo in
                      (* a writer starting at the reader's own end event
                         (possible in synthetic logs with nested intervals)
                         reaches [end I] by the "or be" case of the vector
                         clock, but O(end I) < O(start J) is then false
                         rather than entailed: keep such boundary writers in
                         the emission window *)
                      while !sfx < e && sv.(ws.(!sfx)) = ev.(i) do incr sfx done;
                      let handled = ref 0 in
                      for jx = pfx to !sfx - 1 do
                        let j = ws.(jx) in
                        if not (j = i || (sourced && inside (src_evt i) j)) then begin
                          incr handled;
                          if sourced && t2 = t1 && end_c j < start_c i then begin
                            (* thread order falsifies O(end i) < O(start j):
                               the clause reduces to the unit O(end j) < O(w) *)
                            if not (PairTbl.mem seen_unit (ev.(j), v_zstart)) then begin
                              PairTbl.add seen_unit (ev.(j), v_zstart) ();
                              add_hard ev.(j) v_zstart
                            end;
                            incr n_unit
                          end
                          else begin
                            let p1 = (ev.(i) * nv) + sv.(j) and p2 = (ev.(j) * nv) + v_zstart in
                            let key = if p1 <= p2 then (p1, p2) else (p2, p1) in
                            if PairTbl.mem seen_clause key then incr n_dedup
                            else begin
                              PairTbl.add seen_clause key ();
                              emit_clause i j (Dlsolver.Idl.lt ev.(i) sv.(j))
                                (Dlsolver.Idl.lt ev.(j) v_zstart)
                            end
                          end
                        end
                      done;
                      n_pruned := !n_pruned + (cands - !handled)
                    end)
                  runs
              end)
            ks)
        groups;
      (g, List.filteri (fun k _ -> k < !n_hard - n_hard_reach) !hard)
    end
  in
  let clause_arr =
    List.stable_sort (fun (o1, _) (o2, _) -> Int.compare o1 o2) !clauses
    |> List.map snd |> Array.of_list
  in
  let hint = topo_hint nv prio hard_graph late_hard in
  (* Literal ordering: the hint is a model of the hard atoms that tracks
     the recorded schedule; placing a hint-true literal first makes the
     solver's first descent assert a set of literals that the hint itself
     satisfies — conflicts can only come from clauses whose both literals
     the hint falsifies.  The observation-stamp order chosen at emission
     stays as the tie-break. *)
  (match hint with
  | Some h ->
    let truth (a : Dlsolver.Idl.atom) = h.(a.u) - h.(a.v) <= a.k in
    Array.iteri
      (fun i cl ->
        if Array.length cl = 2 && (not (truth cl.(0))) && truth cl.(1) then
          clause_arr.(i) <- [| cl.(1); cl.(0) |])
      clause_arr
  | None -> ());
  let problem = { Dlsolver.Idl.nvars = nv; hard = List.rev !hard; clauses = clause_arr } in
  {
    problem;
    vars;
    evts;
    intervals;
    n_hard = !n_hard;
    n_clauses = Array.length clause_arr;
    hint;
    gen_stats =
      {
        n_pairs = !n_pairs;
        n_pruned = !n_pruned;
        n_unit = !n_unit;
        n_dedup = !n_dedup;
        gen_time_s = Unix.gettimeofday () -. t_start;
      };
  }
