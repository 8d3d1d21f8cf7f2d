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
    whole systems.  The system is the solver's flat {!Dlsolver.Idl.problem}
    as generated: hard edges are pushed as triples into the column the
    solver reads, and clause literals written in place in that order.

    {b Cost.}  Generation is linear in the log apart from sorts, and works
    on flat int arrays.  The log's dep and range rows are read in place,
    once, into a struct-of-arrays {!table} whose rows are the intervals
    (no list or record copy of the log comes first; stamps the table does
    not sort by are read from the log's rows).  Every event is numbered
    through one dense {!Event_index}: a thread's slot, then the event's
    counter less the slot's least, so a variable lookup is two array
    reads and no hash, and each thread's variables in counter order are
    one slice of it.  The table's variables, in order of first reference,
    sit at their events' positions; {!threads_of}'s thread chains are a
    scan of the slices, and the replayer lays its rank tables out the same
    way.  The index is as long as the threads' counter spans, which a
    malformed log cannot make wider than its final counters vouch for
    ({!Event_index}, {!Log.Inconsistent}).  One hash pass numbers the
    locations and one sort of the distinct locations by (object, field
    name) ranks them in [Loc.Map] order, comparing element names as
    numbers and no name allocated.  One radix sort, keyed by location rank and the start's
    index position, puts every row in (location, thread, start) order;
    singleton materialization, the init-value edges, the sweep and the
    replayer's interval tables all read that one order, where "is this
    event inside an interval of its thread" is a binary search with a
    running max of the ends ({!location_rows} groups the same rows for
    validation and exploration).  The time estimates come from one walk
    along the thread chains; reachability and the hint share one
    compressed adjacency of the hard graph.  The sweep does two binary
    searches per (reader, writer thread) and touches only the gap,
    emitting each clause as a (reader, writer) pair of rows; one pass over
    them with an index keyed by the literal pair drops the duplicates, and
    one radix sort by stamp orders the rest. *)

open Runtime

type gen_stats = {
  n_pairs : int;
      (** (reader, writer) pairs subject to noninterference — what the
          naive generator would emit as clauses *)
  n_pruned : int;   (** pairs dropped: one disjunct entailed by hard constraints *)
  n_unit : int;     (** pairs reduced to a hard edge by thread order *)
  n_dedup : int;    (** duplicate clauses dropped *)
  gen_time_s : float;  (** wall clock *)
}

(** The intervals of a log as a struct of arrays.  Rows [0 .. n_base - 1]
    are the recorded intervals (the deps in log order, then the ranges in
    log order); rows from [n_base] are the referenced source writes, one
    per (location, write), as write-only singletons.  A singleton whose
    write lies inside a recorded interval of its thread on the location,
    or that repeats another, is {e dead}: its flags are 0 and it is in no
    order.  So there are as many singleton rows as sourced intervals.
    Every event an interval names has a variable: [sv], [ev] and [src] are
    the start, end and source variables. *)
type table = {
  log : Log.t;  (** rows [0 .. n_base - 1] are its deps, then its ranges *)
  n_deps : int;
  n_base : int;
  locs : Loc.t array; (** the locations in [Loc.Map] order *)
  grank : int array;  (** the row's location, as its index in [locs] *)
  tid : int array;
  lo : int array;     (** start counter *)
  hi : int array;     (** end counter *)
  obs : int array;
  flags : Bytes.t;    (** [f_reads], [f_writes], [f_sourced] *)
  sv : int array;
  ev : int array;
  (* recorded rows only *)
  src : int array;    (** source variable, [init_src] or [no_src] *)
  loose : (int * Log.evt) list;
      (** the recorded rows with a write they do not read from (a range's
          [w_in] without prefix reads), with that write *)
  (* the variables *)
  ix : Event_index.t;  (** the events the rows name, and the extra events *)
  var : int array;     (** index position -> the event's variable, or -1 *)
  nv : int;
  et : int array;     (** var -> thread *)
  ec : int array;     (** var -> counter *)
  order : int array;
      (** the rows by (location rank, thread, start, row), dead singletons
          (no flags) included *)
}

(* [flags] bits; a row is sourced when its first reads read from its
   source: a dep, or a range with prefix reads *)
let f_reads = 1
let f_writes = 2
let f_sourced = 4

let[@inline] has (tb : table) (k : int) (f : int) =
  Char.code (Bytes.unsafe_get tb.flags k) land f <> 0

(** The stamp of the source write of the log's row [k] (its deps, then
    its ranges), which is recorded row [k] of its table. *)
let src_obs (log : Log.t) (k : int) : int =
  let n_deps = Log.n_deps log in
  if k < n_deps then log.deps.((k * Log.dep_width) + Log.d_wobs)
  else log.ranges.(((k - n_deps) * Log.range_width) + Log.r_wobs)

(* [src] encoding of an interval's source *)
let no_src = -2  (* no incoming dependence, or freed *)
let init_src = -1  (* the virtual initialization write *)

(** The variables' threads in ascending order (a thread's index there is
    its {e slot}, as in the table's {!Event_index}), each variable's slot,
    and the variables by (thread, counter): slot [s]'s thread-order chain
    is [chains.(chain_start.(s)) .. chains.(chain_start.(s+1) - 1)]. *)
type threads = {
  tids : int array;
  slot : int array;
  chains : int array;
  chain_start : int array;
}

type t = {
  problem : Dlsolver.Idl.problem;
  table : table;  (** variable [v] is the event [(table.et.(v), table.ec.(v))] *)
  threads : threads;
  n_hard : int;
  n_clauses : int;
  gen_stats : gen_stats;
  hint : int array option;
      (** topological order of the hard constraint DAG — a model of the
          hard atoms, seeding the solver's potentials ([None] on a cyclic
          hard graph, i.e. an unsatisfiable system) *)
}

(* ------------------------------------------------------------------ *)
(* Sorts                                                              *)
(* ------------------------------------------------------------------ *)

(* [idx] stably sorted by [keys], the most significant first, each an
   array indexed by the elements of [idx]: an LSD radix sort on [key -
   min], 8 bits a pass, or 11 where that saves a pass and there are 2048
   indices or more to outweigh its counts, so the cost is linear in the
   number of indices.  The passes alternate between [idx] and one other
   buffer; either may be the result. *)
let sort_by (keys : int array list) (idx : int array) : int array =
  let n = Array.length idx in
  if n <= 1 then idx
  else
  let src = ref idx and dst = ref (Array.make n 0) in
  let count = ref [||] in
  List.iter
    (fun key ->
      (* the elements of [idx] index [key], and [count] has [radix + 1]
         entries: the loops read and write unchecked *)
      let lo = ref max_int and hi = ref min_int and s = !src in
      for x = 0 to n - 1 do
        let k = Array.unsafe_get key (Array.unsafe_get s x) in
        if k < !lo then lo := k;
        if k > !hi then hi := k
      done;
      let lo = !lo and range = !hi - !lo in
      let width = ref 0 in
      while !width < Sys.int_size && range lsr !width > 0 do incr width done;
      let bits = if n >= 2048 && (!width + 10) / 11 < (!width + 7) / 8 then 11 else 8 in
      let radix = 1 lsl bits in
      if Array.length !count < radix + 1 then count := Array.make (radix + 1) 0;
      let count = !count in
      let shift = ref 0 in
      while !shift < !width do
        let sh = !shift and s = !src and d = !dst in
        Array.fill count 0 (radix + 1) 0;
        for x = 0 to n - 1 do
          let g = ((Array.unsafe_get key (Array.unsafe_get s x) - lo) lsr sh) land (radix - 1) in
          Array.unsafe_set count (g + 1) (Array.unsafe_get count (g + 1) + 1)
        done;
        for g = 1 to radix do
          count.(g) <- count.(g) + count.(g - 1)
        done;
        for x = 0 to n - 1 do
          let i = Array.unsafe_get s x in
          let g = ((Array.unsafe_get key i - lo) lsr sh) land (radix - 1) in
          let at = Array.unsafe_get count g in
          Array.unsafe_set d at i;
          Array.unsafe_set count g (at + 1)
        done;
        src := d;
        dst := s;
        shift := sh + bits
      done)
    (List.rev keys);
  !src

(* [0 .. n-1] grouped by [key] (values [0 .. ng-1]), ascending within a
   group, and the bounds of the groups (see {!bounds}) *)
let group (key : int array) (n : int) (ng : int) : int array * int array =
  let starts = Array.make (ng + 1) 0 in
  for k = 0 to n - 1 do
    starts.(key.(k) + 1) <- starts.(key.(k) + 1) + 1
  done;
  for g = 1 to ng do
    starts.(g) <- starts.(g) + starts.(g - 1)
  done;
  let fill = Array.sub starts 0 ng and out = Array.make n 0 in
  for k = 0 to n - 1 do
    let g = key.(k) in
    out.(fill.(g)) <- k;
    fill.(g) <- fill.(g) + 1
  done;
  (out, starts)

(* [starts.(g)] .. [starts.(g+1) - 1]: the positions of [sorted] (sorted
   by [key], whose values are [0 .. n - 1]) holding key [g] *)
let bounds (key : int array) (sorted : int array) (n : int) : int array =
  let starts = Array.make (n + 1) 0 in
  Array.iter (fun i -> starts.(key.(i) + 1) <- starts.(key.(i) + 1) + 1) sorted;
  for g = 1 to n do starts.(g) <- starts.(g) + starts.(g - 1) done;
  starts

(** [Hashtbl.hash] of an int and of an int pair, computed without the
    pair: the runtime's MurmurHash3 mix over the tagged values (a pair is
    first mixed with its block header). *)
module Stdhash = struct
  let m32 = 0xFFFF_FFFF

  let mix h d =
    let d = (d * 0xcc9e2d51) land m32 in
    let d = ((d lsl 15) lor (d lsr 17)) land m32 in
    let d = (d * 0x1b873593) land m32 in
    let h = h lxor d in
    let h = ((h lsl 13) lor (h lsr 19)) land m32 in
    ((h * 5) + 0xe6546b64) land m32

  (* the tagged [2n + 1], its two 32-bit halves folded *)
  let mix_int h n = mix h (((n asr 31) lxor (n asr 62) lxor ((n lsl 1) lor 1)) land m32)

  let final h =
    let h = h lxor (h lsr 16) in
    let h = (h * 0x85ebca6b) land m32 in
    let h = h lxor (h lsr 13) in
    let h = (h * 0xc2b2ae35) land m32 in
    (h lxor (h lsr 16)) land 0x3FFF_FFFF

  let int (n : int) : int = final (mix_int 0 n)
  let pair (a : int) (b : int) : int = final (mix_int (mix_int (mix 0 0x800) a) b)
end

(* ------------------------------------------------------------------ *)
(* The interval table                                                  *)
(* ------------------------------------------------------------------ *)

(* [String.compare] of two fields' names ({!Loc.fld_name}) without
   building them.  No interned name starts with '#', so "#" alone decides
   between a name and an element's "#<i>"; two elements compare as the
   decimal strings of their indices, which is their order once the
   shorter is scaled to the longer's digit count (on a tie the shorter, a
   prefix, is first).  Building the names instead allocates about 1% of
   generation's words on the solvercheck O1+O2 logs. *)
let rec digits (x : int) : int = if x < 10 then 1 else 1 + digits (x / 10)
let rec scale (x : int) (d : int) : int = if d <= 0 then x else scale (x * 10) (d - 1)

let compare_fld_names (a : int) (b : int) : int =
  let i = Loc.elem_index a and j = Loc.elem_index b in
  if a >= 0 && b >= 0 then String.compare (Lang.Intern.name a) (Lang.Intern.name b)
  else if a >= 0 then String.compare (Lang.Intern.name a) "#"
  else if b >= 0 then String.compare "#" (Lang.Intern.name b)
  else if i < 0 || j < 0 || i >= 1 lsl 40 || j >= 1 lsl 40 then
    String.compare (Loc.fld_name a) (Loc.fld_name b)
  else begin
    let di = digits i and dj = digits j in
    match Int.compare (scale i (dj - di)) (scale j (di - dj)) with
    | 0 -> Int.compare di dj
    | c -> c
  end

(* The rank in [Loc.Map] order (object, then field name) of the location
   of each recorded row of [log] (its deps, then its ranges), in an array
   of [size], and the distinct locations in that order.  Distinct
   locations never share an (obj, name) key: element fields print as
   "#<i>" and no interned name starts with '#'. *)
let loc_ranks (log : Log.t) (size : int) : int array * Loc.t array =
  let n_deps = Log.n_deps log in
  let n = n_deps + Log.n_ranges log in
  (* room for a location per four rows, about what recorded logs name *)
  let ids = Pair_index.create (16 + (n / 4)) in
  let rank = Array.make size 0 in
  (* every row starts with its location's object and field *)
  let col k j =
    if k < n_deps then log.deps.((k * Log.dep_width) + j)
    else log.ranges.(((k - n_deps) * Log.range_width) + j)
  in
  for k = 0 to n - 1 do
    rank.(k) <- Pair_index.index ids (col k 0) (col k 1)
  done;
  let nl = Pair_index.length ids in
  let obj = ids.fst and fld = ids.snd in
  let sorted = Array.init nl Fun.id in
  Array.sort
    (fun a b ->
      match Int.compare obj.(a) obj.(b) with
      | 0 -> compare_fld_names fld.(a) fld.(b)
      | c -> c)
    sorted;
  let locs = Array.map (fun g -> { Loc.obj = obj.(g); fld = fld.(g) }) sorted in
  (* the index's field column, read no more, takes each location's rank *)
  let rank_of = fld in
  Array.iteri (fun r g -> rank_of.(g) <- r) sorted;
  for k = 0 to n - 1 do
    rank.(k) <- rank_of.(rank.(k))
  done;
  (rank, locs)

let table_of_log ?(extra_events = []) (log : Log.t) : table =
  let open Log in
  let d = log.deps and r = log.ranges in
  let n_deps = n_deps log in
  let n_base = n_deps + n_ranges log in
  (* one singleton row per sourced recorded interval *)
  let n_cand = ref 0 in
  for k = 0 to n_deps - 1 do
    if d.((k * dep_width) + d_wt) >= 0 then incr n_cand
  done;
  for i = 0 to n_base - n_deps - 1 do
    let b = i * range_width in
    if r.(b + r_prefix) <> 0 && r.(b + r_wt) >= 0 then incr n_cand
  done;
  let m = n_base + !n_cand in
  let col () = Array.make m 0 in
  let tid = col () and lo = col () and hi = col () and obs = col () in
  let sv = col () and ev = col () in
  let flags = Bytes.make m '\000' in
  let src = Array.make n_base no_src in
  let loose = ref [] in
  (* row [k]: thread [t], counters [s..e], stamp [o], flags [fl] and
     source write [wt:wc] ([wt] -1: the initialization write).  The
     referenced source writes are write-only singleton rows, one per
     sourced interval, from [n_base] on in reverse log order: the last
     sourced interval's is row [n_base], the first's row [m - 1].  Until
     the variables are numbered, [src] holds the interval's singleton
     row *)
  let next = ref (m - 1) in
  let[@inline] row k t s e o fl wt wc =
    tid.(k) <- t;
    lo.(k) <- s;
    hi.(k) <- e;
    obs.(k) <- o;
    Bytes.unsafe_set flags k (Char.unsafe_chr fl);
    if fl land f_sourced <> 0 then begin
      if wt >= 0 then begin
        let w = !next in
        decr next;
        src.(k) <- w;
        tid.(w) <- wt;
        lo.(w) <- wc;
        hi.(w) <- wc;
        obs.(w) <- src_obs log k;
        Bytes.unsafe_set flags w (Char.unsafe_chr f_writes)
      end
      else src.(k) <- init_src
    end
    else if wt >= 0 then loose := (k, (wt, wc)) :: !loose
  in
  for k = 0 to n_deps - 1 do
    let b = k * dep_width in
    row k d.(b + d_rft) d.(b + d_rfc) d.(b + d_rl) d.(b + d_obs) (f_reads lor f_sourced)
      d.(b + d_wt) d.(b + d_wc)
  done;
  for i = 0 to n_base - n_deps - 1 do
    let b = i * range_width in
    (* only runs containing reads are recorded *)
    row (n_deps + i) r.(b + r_t) r.(b + r_lo) r.(b + r_hi) r.(b + r_obs)
      (f_reads
      lor (if r.(b + r_write) <> 0 then f_writes else 0)
      lor if r.(b + r_prefix) <> 0 then f_sourced else 0)
      r.(b + r_wt) r.(b + r_wc)
  done;
  (* every event a row names has a variable, numbered in order of first
     reference (each recorded interval's start, end and source, then the
     extra events) and kept at the event's position in the index *)
  let ix = Event_index.create ~tid ~lo ~hi m ~extra:extra_events ~counters:log.counters in
  let size = Event_index.size ix in
  let var = Array.make size (-1) in
  let nv = ref 0 in
  (* the variable of the event at position [p] *)
  let[@inline] number p =
    let v = Array.unsafe_get var p in
    if v >= 0 then v
    else begin
      let v = !nv in
      Array.unsafe_set var p v;
      nv := v + 1;
      v
    end
  in
  let grank, locs = loc_ranks log m in
  (* until the rows are sorted, [sv] holds each row's sort key: (location,
     thread, start) as one int, as its start's position in the index
     orders by thread, then counter *)
  for k = 0 to n_base - 1 do
    let s = Event_index.slot ix tid.(k) in
    let p = Event_index.pos_in ix s lo.(k) in
    ignore (number p);
    ev.(k) <- number (Event_index.pos_in ix s hi.(k));
    sv.(k) <- (grank.(k) * size) + p;
    let w = src.(k) in
    if w >= 0 then begin
      let p = Event_index.pos ix tid.(w) lo.(w) in
      let v = number p in
      src.(k) <- v;
      ev.(w) <- v;
      grank.(w) <- grank.(k);
      sv.(w) <- (grank.(k) * size) + p
    end
  done;
  List.iter (fun (t, c) -> ignore (number (Event_index.pos ix t c))) extra_events;
  let order = sort_by [ sv ] (Array.init m Fun.id) in
  for k = 0 to m - 1 do
    sv.(k) <- var.(sv.(k) - (grank.(k) * size))
  done;
  (* each variable's event, from its position *)
  let nv = !nv in
  let et = Array.make nv 0 and ec = Array.make nv 0 in
  for s = 0 to Array.length ix.tids - 1 do
    let b = ix.base.(s) in
    for p = b to ix.base.(s + 1) - 1 do
      let v = Array.unsafe_get var p in
      if v >= 0 then begin
        et.(v) <- ix.tids.(s);
        ec.(v) <- ix.cmin.(s) + p - b
      end
    done
  done;
  (* [order] has every row by (location, thread, start, row).  A
     singleton sorts after the recorded intervals starting at its write,
     so a running max of their ends says whether one of them covers it,
     and right after the singletons of the same write on the location:
     only the first of those (whose interval is the last to name the pair,
     providing its stamp) lives *)
  let reach = ref min_int in
  for x = 0 to m - 1 do
    let k = order.(x) in
    let k' = if x > 0 then order.(x - 1) else -1 in
    let same_run = k' >= 0 && grank.(k) = grank.(k') && tid.(k) = tid.(k') in
    if not same_run then reach := min_int;
    if k < n_base then begin
      if hi.(k) > !reach then reach := hi.(k)
    end
    else if !reach >= lo.(k) || (same_run && k' >= n_base && lo.(k) = lo.(k')) then
      Bytes.unsafe_set flags k '\000'
  done;
  {
    log; n_deps; n_base; locs; grank; tid; lo; hi; obs; flags; sv; ev; src; loose = !loose;
    ix; var; nv; et; ec; order;
  }

(* ------------------------------------------------------------------ *)
(* Rows by location                                                    *)
(* ------------------------------------------------------------------ *)

(** Each location's live rows, by location rank ([Loc.Map] order): its
    live singletons by row, then its recorded intervals from the last in
    the log to the first. *)
let location_rows (tb : table) : int list array =
  let rows = Array.make (Array.length tb.locs) [] in
  let add k = rows.(tb.grank.(k)) <- k :: rows.(tb.grank.(k)) in
  for k = 0 to tb.n_base - 1 do add k done;
  for k = Array.length tb.tid - 1 downto tb.n_base do
    if has tb k f_writes then add k
  done;
  rows

(* ------------------------------------------------------------------ *)
(* Variables by thread                                                 *)
(* ------------------------------------------------------------------ *)

(* each thread's slice of the index, in counter order *)
let threads_of (tb : table) : threads =
  let ix = tb.ix in
  let nt = Array.length ix.tids in
  let slot = Array.make tb.nv 0 and chains = Array.make tb.nv 0 in
  let chain_start = Array.make (nt + 1) 0 in
  let x = ref 0 in
  for s = 0 to nt - 1 do
    chain_start.(s) <- !x;
    for p = ix.base.(s) to ix.base.(s + 1) - 1 do
      let v = Array.unsafe_get tb.var p in
      if v >= 0 then begin
        slot.(v) <- s;
        chains.(!x) <- v;
        incr x
      end
    done
  done;
  chain_start.(nt) <- !x;
  { tids = ix.tids; slot; chains; chain_start }

(* the variable of event [(t, c)], or -1 *)
let find_var (tb : table) (t : int) (c : int) : int =
  match Event_index.pos tb.ix t c with -1 -> -1 | p -> tb.var.(p)

(* The order the thread chains are emitted in, which the pinned digests
   fix.  It was the iteration order of a tid table, filled with each
   thread at its first appearance in the iteration of a table of the
   variables filled in variable order (both generic [Hashtbl]s).  An
   iteration visits buckets in index order and each bucket newest first;
   [Hashtbl.create n] starts at the power of two >= max n 16 buckets and
   doubles when the size exceeds twice the bucket count.  So both orders
   follow from [Hashtbl.hash] and the final bucket counts. *)
let chain_order (tb : table) (th : threads) : int array =
  let buckets init n =
    let s = ref init in
    while n > 2 * !s do s := 2 * !s done;
    !s
  in
  let nt = Array.length th.tids in
  let mask = buckets 1024 tb.nv - 1 in
  (* each thread's first variable in that iteration: least bucket, then
     greatest variable *)
  let fb = Array.make nt max_int and fv = Array.make nt (-1) in
  for v = 0 to tb.nv - 1 do
    let s = th.slot.(v) and b = Stdhash.pair tb.et.(v) tb.ec.(v) land mask in
    if b < fb.(s) || (b = fb.(s) && v > fv.(s)) then begin
      fb.(s) <- b;
      fv.(s) <- v
    end
  done;
  let first = Array.init nt Fun.id in
  Array.sort
    (fun a b -> if fb.(a) <> fb.(b) then Int.compare fb.(a) fb.(b) else Int.compare fv.(b) fv.(a))
    first;
  let added = Array.make nt 0 in
  Array.iteri (fun r s -> added.(s) <- r) first;
  let tmask = buckets 16 nt - 1 in
  let bucket s = Stdhash.int th.tids.(s) land tmask in
  let out = Array.init nt Fun.id in
  Array.sort
    (fun a b ->
      if bucket a <> bucket b then Int.compare (bucket a) (bucket b)
      else Int.compare added.(b) added.(a))
    out;
  out

(* Per-variable global-time estimate from the log's access-clock anchors:
   deps stamp their last read and source write, ranges their endpoints and
   feeding write — every event appearing in a constraint atom is stamped
   exactly, so the topological tie-break reconstructs the recorded
   schedule at those events.  Counters between anchors interpolate
   linearly (scaled to keep integer precision) and counters outside the
   sampled span extrapolate by one unit per step.  A thread's anchors, in
   (counter, stamp) order, are forced monotone (a running max), so each
   counter's anchors reduce to their least and greatest stamp: the running
   max entering and leaving the counter.  Those are kept per variable; the
   few anchors on events without one (a range's feeding write that no
   interval sources) are sorted aside, and one forward walk per thread
   merges both into its chain. *)
let event_times (tb : table) (th : threads) : int array =
  let scale = 1024 in
  let amin = Array.make tb.nv max_int and amax = Array.make tb.nv min_int in
  let others = ref [] in
  let anchor v t c o =
    if v >= 0 then begin
      if o < amin.(v) then amin.(v) <- o;
      if o > amax.(v) then amax.(v) <- o
    end
    else
      (* a write on a thread with no variable places nothing *)
      let s = Event_index.slot tb.ix t in
      if s >= 0 then others := (s, c, o) :: !others
  in
  for k = 0 to tb.n_base - 1 do
    anchor tb.ev.(k) 0 0 tb.obs.(k);
    if k >= tb.n_deps then
      anchor tb.sv.(k) 0 0 tb.log.ranges.(((k - tb.n_deps) * Log.range_width) + Log.r_loobs);
    if tb.src.(k) >= 0 then anchor tb.src.(k) 0 0 (src_obs tb.log k)
  done;
  List.iter (fun (k, (t, c)) -> anchor (find_var tb t c) t c (src_obs tb.log k)) tb.loose;
  let others = Array.of_list (List.sort compare !others) in
  (* the estimates overwrite [amin] behind the walk, which reads ahead *)
  let prio = amin in
  let y = ref 0 in
  for s = 0 to Array.length th.tids - 1 do
    let ce = th.chain_start.(s + 1) in
    let px = ref th.chain_start.(s) and py = ref !y in
    while !y < Array.length others && (let s', _, _ = others.(!y) in s' = s) do incr y done;
    let ye = !y in
    (* the anchor groups in counter order: anchored variables at [px],
       other anchors at [py] *)
    let skip () =
      while !px < ce && amin.(th.chains.(!px)) > amax.(th.chains.(!px)) do incr px done
    in
    let other_c y = let _, c, _ = others.(y) in c and other_o y = let _, _, o = others.(y) in o in
    let has_next () = !px < ce || !py < ye in
    (* the next group's counter, when [has_next ()] *)
    let next_c () =
      if !py >= ye then tb.ec.(th.chains.(!px))
      else if !px >= ce then other_c !py
      else min tb.ec.(th.chains.(!px)) (other_c !py)
    in
    (* the next group's least stamp *)
    let next_min () =
      if !px < ce && tb.ec.(th.chains.(!px)) = next_c () then amin.(th.chains.(!px))
      else other_o !py
    in
    (* the last group taken: its counter and the running max leaving it *)
    let taken = ref false and cur_c = ref 0 and cur = ref min_int in
    let take () =
      let c = next_c () in
      if !px < ce && tb.ec.(th.chains.(!px)) = c then begin
        cur := max !cur amax.(th.chains.(!px));
        incr px;
        skip ()
      end
      else
        while !py < ye && other_c !py = c do
          cur := max !cur (other_o !py);
          incr py
        done;
      taken := true;
      cur_c := c
    in
    skip ();
    if has_next () then
      for x = th.chain_start.(s) to ce - 1 do
        let v = th.chains.(x) and c = tb.ec.(th.chains.(x)) in
        while has_next () && next_c () <= c do take () done;
        prio.(v) <-
          (if not !taken then (next_min () * scale) - (next_c () - c)
           else if (not (has_next ())) || c = !cur_c then (!cur * scale) + (c - !cur_c)
           else
             let f = max (next_min ()) !cur in
             (!cur * scale) + ((f - !cur) * scale * (c - !cur_c) / (next_c () - !cur_c)))
      done
    else
      for x = th.chain_start.(s) to ce - 1 do
        prio.(th.chains.(x)) <- 0
      done
  done;
  prio

(* ------------------------------------------------------------------ *)
(* The hard graph: reachability (vector clocks) and the hint           *)
(* ------------------------------------------------------------------ *)

(* A growable int column; edges and clauses push fixed-width records. *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create (cap : int) = { a = Array.make (max 16 cap) 0; n = 0 }

  let push (v : t) (x : int) : unit =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    Array.unsafe_set v.a v.n x;
    v.n <- v.n + 1
end

(* The hard constraint graph in compressed adjacency form: the successors
   of [v] are [dst.(off.(v)) .. dst.(off.(v+1) - 1)]. *)
type graph = { off : int array; dst : int array }

(* the first [m] edges of [hard], stored as [u; v; k] triples *)
let graph_of (nv : int) (hard : Vec.t) (m : int) : graph =
  let e = hard.a in
  (* out-degrees summed to each vertex's end, then each edge placed by
     stepping its source's bound back: the bounds end at the starts *)
  let off = Array.make (nv + 1) 0 in
  for i = 0 to m - 1 do
    off.(e.(3 * i)) <- off.(e.(3 * i)) + 1
  done;
  for v = 1 to nv do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let dst = Array.make m 0 in
  for i = 0 to m - 1 do
    let u = e.(3 * i) in
    off.(u) <- off.(u) - 1;
    dst.(off.(u)) <- e.((3 * i) + 1)
  done;
  { off; dst }

(* [indeg] set to the in-degrees of [g] *)
let indegrees (g : graph) (indeg : int array) : unit =
  Array.fill indeg 0 (Array.length indeg) 0;
  Array.iter (fun w -> indeg.(w) <- indeg.(w) + 1) g.dst

(* [vc.(v * nthreads + slot)] is the greatest counter of an event of the
   slot's thread known to hard-precede (or be) variable [v].  Since thread
   order chains every variable-bearing event of a thread, [(t, c)]
   hard-precedes [v] iff that entry is >= c (and the events differ).
   Computed by one topological pass over the hard edges (Kahn's algorithm;
   the join is order-independent); [None] when the hard graph is cyclic
   (the problem is then unsatisfiable whatever clauses we emit, so pruning
   soundness is moot and the caller emits without pruning). *)
let compute_reach (tb : table) (th : threads) (g : graph) ~(indeg : int array) ~(q : int array) :
    int array option =
  let nv = tb.nv in
  let nt = Array.length th.tids in
  indegrees g indeg;
  let vc = Array.make (nv * nt) min_int in
  (* every vertex enters the queue [q] once *)
  let tail = ref 0 in
  for v = 0 to nv - 1 do
    if indeg.(v) = 0 then (q.(!tail) <- v; incr tail)
  done;
  let head = ref 0 in
  while !head < !tail do
    let v = q.(!head) in
    incr head;
    let own = (v * nt) + th.slot.(v) in
    let c = tb.ec.(v) in
    if vc.(own) < c then vc.(own) <- c;
    for e = g.off.(v) to g.off.(v + 1) - 1 do
      let w = g.dst.(e) in
      let vo = v * nt and wo = w * nt in
      for s = 0 to nt - 1 do
        let x = Array.unsafe_get vc (vo + s) in
        if Array.unsafe_get vc (wo + s) < x then Array.unsafe_set vc (wo + s) x
      done;
      indeg.(w) <- indeg.(w) - 1;
      if indeg.(w) = 0 then (q.(!tail) <- w; incr tail)
    done
  done;
  if !head < nv then None else Some vc

(* Topological order of the hard constraint DAG: the returned array
   strictly increases along every edge, so it is a model of the hard atoms
   and doubles as a potential seed for the solver; [None] on a cycle.
   Ready vertices are released by ascending [(prio, vertex)] (the
   observation-stamp estimate of each event), so the order tracks the
   recorded schedule wherever the hard constraints leave slack — making it
   a good witness for the clauses too, not just the hard part — and does
   not depend on the order of the edges.  Positions are spread by a slack
   factor so that the relaxation cascades triggered by asserting clause
   literals against the seeded potentials die out quickly instead of
   rippling through zero-slack chains.  The edges are [g]'s and the
   [late] ones, [u; v] pairs sorted by [u]. *)
let topo_hint (nv : int) (prio : int array) (g : graph) (late : int array) ~(indeg : int array)
    ~(heap : int array) : int array option =
  indegrees g indeg;
  let n_late = Array.length late / 2 in
  for x = 0 to n_late - 1 do
    indeg.(late.((2 * x) + 1)) <- indeg.(late.((2 * x) + 1)) + 1
  done;
  (* [heap]: binary min-heap of the ready vertices, keyed by (prio,
     vertex) *)
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
  for v = 0 to nv - 1 do
    if indeg.(v) = 0 then push v
  done;
  let release w =
    indeg.(w) <- indeg.(w) - 1;
    if indeg.(w) = 0 then push w
  in
  let hint = Array.make (max 1 nv) 0 in
  let n = ref 0 in
  while !size > 0 do
    let v = pop () in
    hint.(v) <- 16 * !n;
    incr n;
    for e = g.off.(v) to g.off.(v + 1) - 1 do
      release g.dst.(e)
    done;
    if n_late > 0 then begin
      (* [v]'s late edges: a binary search for their run *)
      let l = ref 0 and h = ref n_late in
      while !l < !h do
        let mid = (!l + !h) lsr 1 in
        if late.(2 * mid) < v then l := mid + 1 else h := mid
      done;
      let x = ref !l in
      while !x < n_late && late.(2 * !x) = v do
        release late.((2 * !x) + 1);
        incr x
      done
    end
  done;
  if !n < nv then None else Some hint

(* ------------------------------------------------------------------ *)
(* Generation                                                          *)
(* ------------------------------------------------------------------ *)

(* whether event [(t, c)] lies inside one of the write rows
   [ws.(b) .. ws.(e-1)] (one location's, by (thread, start), with the
   running max [pmax] of their ends per thread): thread [t]'s rows
   starting at or before [c] end the run at the last position at or below
   [(t, c)], found by binary search, and one of them reaches [c] iff the
   running max there does *)
let covered (tb : table) (ws : int array) (pmax : int array) b e (t : int) (c : int) : bool =
  let lo = ref b and hi = ref e in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    let k = ws.(mid) in
    if tb.tid.(k) < t || (tb.tid.(k) = t && tb.lo.(k) <= c) then lo := mid + 1 else hi := mid
  done;
  !lo > b && tb.tid.(ws.(!lo - 1)) = t && pmax.(!lo - 1) >= c

let generate ?(naive = false) ?(free = []) ?(extra_events = []) (log : Log.t) : t =
  let t_start = Unix.gettimeofday () in
  let tb = table_of_log ~extra_events log in
  let nv = tb.nv and nl = Array.length tb.locs in
  let tid = tb.tid and lo = tb.lo and hi = tb.hi and sv = tb.sv and ev = tb.ev in
  let th = threads_of tb in
  (* freed interval starts: their source pin is dropped (exploration) *)
  let freed = Bytes.make nv '\000' in
  List.iter
    (fun (t, c) ->
      let v = find_var tb t c in
      if v >= 0 then Bytes.set freed v '\001')
    free;
  let is_freed k = Bytes.get freed sv.(k) <> '\000' in
  (* the effective source *)
  let esrc k = if k >= tb.n_base || is_freed k then no_src else tb.src.(k) in
  let reads k = has tb k f_reads and writes k = has tb k f_writes in
  (* per-vertex buffers of the graph passes *)
  let indeg = Array.make nv 0 and scratch = Array.make nv 0 in
  (* hard edges as the solver takes them, [u; v; -1] triples for [O(u) <
     O(v)]; thread order and the dependences take fewer than [nv +
     n_base], and a quarter of [n_base] more usually holds the
     initial-value edges and unit reductions *)
  let hard = Vec.create (3 * (nv + tb.n_base + (tb.n_base / 4) + 64)) in
  let add_hard a b =
    Vec.push hard a;
    Vec.push hard b;
    Vec.push hard (-1)
  in
  (* thread order, one chain per thread *)
  Array.iter
    (fun s ->
      for x = th.chain_start.(s) + 1 to th.chain_start.(s + 1) - 1 do
        add_hard th.chains.(x - 1) th.chains.(x)
      done)
    (chain_order tb th);
  (* the rows of each location by ascending row *)
  let members, mstart = group tb.grank (Array.length tid) nl in
  (* dependence edges, each location's rows in reverse *)
  for g = 0 to nl - 1 do
    for x = mstart.(g + 1) - 1 downto mstart.(g) do
      let k = members.(x) in
      if esrc k >= 0 then add_hard (esrc k) sv.(k)
    done
  done;
  (* the start of reader interval [i]'s protected zone: its source write,
     or its own start when it has none *)
  let zstart i = if esrc i >= 0 then esrc i else sv.(i) in
  (* clauses as [i; j] pairs: reader interval [i] and writer interval [j],
     for O(end i) < O(start j) \/ O(end j) < O(zstart i) *)
  let clauses = Vec.create 16 in
  let n_pairs = ref 0 and n_pruned = ref 0 and n_unit = ref 0 and n_dedup = ref 0 in
  (* event [(t, c)] lies inside interval [j] *)
  let inside t c j = tid.(j) = t && lo.(j) <= c && c <= hi.(j) in
  let emit_clause i j =
    Vec.push clauses i;
    Vec.push clauses j
  in
  (* the original pairwise generator, kept as the differential oracle for
     the pruning sweep below; each location's rows in the order the
     list-based generator held them ({!location_rows}), by stamp *)
  let naive_pairs () =
    Array.iter
      (fun rows ->
        let sorted = List.stable_sort (fun a b -> Int.compare tb.obs.(a) tb.obs.(b)) rows in
        List.iter
          (fun i ->
            if reads i then
              List.iter
                (fun j ->
                  if j <> i && writes j then begin
                    if esrc i = init_src then
                      (* initial-value reads precede every write on the loc *)
                      add_hard ev.(i) sv.(j)
                    else if esrc i >= 0 then begin
                      if not (inside tb.et.(esrc i) tb.ec.(esrc i) j) then begin
                        incr n_pairs;
                        emit_clause i j
                      end
                    end
                    else if tid.(i) <> tid.(j) && not (is_freed i) then begin
                      incr n_pairs;
                      emit_clause i j
                    end
                  end)
                sorted)
          sorted)
      (location_rows tb)
  in
  (* the pruned sweep; it returns the graph of the hard edges it reasoned
     from and their number *)
  let pruned_sweep () : graph * int =
    (* per location: the write-bearing rows by (thread, start) with their
       running max of ends per thread, and each thread's run of them *)
    let nw = Array.fold_left (fun n k -> if writes k then n + 1 else n) 0 tb.order in
    let ws = Array.make nw 0 in
    ignore
      (Array.fold_left
         (fun x k -> if writes k then (ws.(x) <- k; x + 1) else x)
         0 tb.order);
    let wstart = bounds tb.grank ws nl in
    let starts_run x =
      x = 0 || tb.grank.(ws.(x)) <> tb.grank.(ws.(x - 1)) || tid.(ws.(x)) <> tid.(ws.(x - 1))
    in
    let pmax = Array.make nw 0 and runs = ref [ nw ] in
    for x = nw - 1 downto 0 do
      if starts_run x then runs := x :: !runs
    done;
    for x = 0 to nw - 1 do
      pmax.(x) <- (if starts_run x then hi.(ws.(x)) else max pmax.(x - 1) hi.(ws.(x)))
    done;
    (* run [r] is [ws.(runs.(r)) .. ws.(runs.(r+1) - 1)]; location [g]'s
       runs are [rstart.(g) .. rstart.(g+1) - 1] *)
    let runs = Array.of_list !runs in
    let n_runs = Array.length runs - 1 in
    let rstart =
      bounds (Array.init n_runs (fun r -> tb.grank.(ws.(runs.(r))))) (Array.init n_runs Fun.id) nl
    in
    (* compressed initial-value constraints: one edge to the first write
       interval of each thread; thread order entails the edges to the rest *)
    for g = 0 to nl - 1 do
      for x = mstart.(g + 1) - 1 downto mstart.(g) do
        let i = members.(x) in
        if reads i && esrc i = init_src then begin
          for r = rstart.(g) to rstart.(g + 1) - 1 do
            let e = runs.(r + 1) in
            (* first writer that is not the reader itself: the edge to it
               entails (with thread order) the edges to every later writer
               of the thread, which is all the naive generator emits for
               them *)
            let k = ref runs.(r) in
            while !k < e && ws.(!k) = i do incr k done;
            if !k < e then add_hard ev.(i) sv.(ws.(!k))
          done
        end
      done
    done;
    (* reachability over the hard constraints accumulated so far; hard
       edges added later (unit reductions) only make pruning conservative *)
    let n_reach = hard.n / 3 in
    let g = graph_of nv hard n_reach in
    let reach = compute_reach tb th g ~indeg ~q:scratch in
    let nt = Array.length th.tids in
    (* [vc.((v * stride) + s)] is the greatest counter of an event of slot
       [s]'s thread hard-preceding (or equal to) var [v]; with no
       reachability every entry is [min_int] (one row, stride 0) *)
    let vc, stride =
      match reach with Some vc -> (vc, nt) | None -> (Array.make (max 1 nt) min_int, 0)
    in
    let seen_unit = Pair_index.create 16 in
    for g = 0 to nl - 1 do
      for x = mstart.(g + 1) - 1 downto mstart.(g) do
        let i = members.(x) in
        (* a freed interval is fully unpinned: its reads no longer claim a
           consistent source, so it emits no reader-side interference (it
           still interferes as a writer with other intervals' zones) *)
        if reads i && esrc i <> init_src && not (is_freed i) then begin
          let t1 = tid.(i) and s1 = th.slot.(sv.(i)) in
          let c_end_i = hi.(i) in
          let sourced = esrc i >= 0 in
          let v_zstart = zstart i in
          let w_t = tb.et.(v_zstart) and w_c = tb.ec.(v_zstart) in
          let w_inside = sourced && covered tb ws pmax wstart.(g) wstart.(g + 1) w_t w_c in
          for r = rstart.(g) to rstart.(g + 1) - 1 do
            let b0 = runs.(r) and e = runs.(r + 1) in
            let t2 = tid.(ws.(b0)) in
            if sourced || t2 <> t1 then begin
              (* candidate pairs the naive generator would emit *)
              let cands =
                let self = if writes i && t2 = t1 then 1 else 0 in
                let w_in = if w_inside && w_t = t2 then 1 else 0 in
                e - b0 - self - w_in
              in
              n_pairs := !n_pairs + cands;
              (* writers whose end (and every earlier one's) is
                 hard-ordered before the zone start: their zone exit is
                 implied by thread order *)
              let bound = vc.((v_zstart * stride) + th.slot.(sv.(ws.(b0)))) in
              let l = ref b0 and h = ref e in
              while !l < !h do
                let mid = (!l + !h) lsr 1 in
                if pmax.(mid) <= bound then l := mid + 1 else h := mid
              done;
              let pfx = !l in
              (* first writer from [pfx] on whose start is implied after
                 the reader's end (one before [pfx] leaves the window
                 empty all the same); the window is nearly always short,
                 so gallop from [pfx], then bisect *)
              let l = ref pfx and h = ref e and d = ref 1 in
              while !l + !d - 1 < !h do
                let x = !l + !d - 1 in
                (* the write at [ws.(x)] starts hard-after the reader's end *)
                if vc.((sv.(ws.(x)) * stride) + s1) >= c_end_i then h := x
                else (l := x + 1; d := 2 * !d)
              done;
              while !l < !h do
                let mid = (!l + !h) lsr 1 in
                if vc.((sv.(ws.(mid)) * stride) + s1) >= c_end_i then h := mid else l := mid + 1
              done;
              let sfx = l in
              (* a writer starting at the reader's own end event (possible
                 in synthetic logs with nested intervals) reaches [end I]
                 by the "or be" case of the vector clock, but O(end I) <
                 O(start J) is then false rather than entailed: keep such
                 boundary writers in the emission window *)
              while !sfx < e && sv.(ws.(!sfx)) = ev.(i) do incr sfx done;
              let handled = ref 0 in
              for jx = pfx to !sfx - 1 do
                let j = ws.(jx) in
                if not (j = i || (sourced && inside w_t w_c j)) then begin
                  incr handled;
                  if sourced && t2 = t1 && hi.(j) < lo.(i) then begin
                    (* thread order falsifies O(end i) < O(start j): the
                       clause reduces to the unit O(end j) < O(w) *)
                    let n = Pair_index.length seen_unit in
                    if Pair_index.index seen_unit ev.(j) v_zstart = n then
                      add_hard ev.(j) v_zstart;
                    incr n_unit
                  end
                  else emit_clause i j
                end
              done;
              n_pruned := !n_pruned + (cands - !handled)
            end
          done
        end
      done
    done;
    (g, n_reach)
  in
  let g, n_early =
    if naive then begin
      naive_pairs ();
      (graph_of nv hard (hard.n / 3), hard.n / 3)
    end
    else pruned_sweep ()
  in
  let n_hard = hard.n / 3 in
  (* the hint's graph: the sweep's, plus the unit reductions it added as
     late edges, by source *)
  let late =
    let m = n_hard - n_early in
    let src x = hard.a.(3 * (n_early + x)) in
    let by_src = sort_by [ Array.init m src ] (Array.init m Fun.id) in
    Array.init (2 * m) (fun y -> hard.a.((3 * (n_early + by_src.(y / 2))) + (y land 1)))
  in
  let hint = topo_hint nv (event_times tb th) g late ~indeg ~heap:scratch in
  let c = clauses.a in
  let ci x = c.(2 * x) and cj x = c.((2 * x) + 1) in
  (* the sweep's duplicates (the same two literals, in either order)
     leave only their first emission, compacted in place; the naive
     generator keeps them all *)
  if not naive then begin
    let n_emitted = clauses.n / 2 in
    let seen = Pair_index.create n_emitted in
    let y = ref 0 in
    for x = 0 to n_emitted - 1 do
      let i = ci x and j = cj x in
      let p1 = (ev.(i) * nv) + sv.(j) and p2 = (ev.(j) * nv) + zstart i in
      if Pair_index.index seen (min p1 p2) (max p1 p2) = !y then begin
        c.(2 * !y) <- i;
        c.((2 * !y) + 1) <- j;
        incr y
      end
    done;
    n_dedup := n_emitted - !y;
    clauses.n <- 2 * !y
  end;
  let nc = clauses.n / 2 in
  (* the clauses by stamp, the later of the two intervals' observations;
     among equal stamps the later-emitted first *)
  let stamp = Array.init nc (fun x -> max tb.obs.(ci x) tb.obs.(cj x)) in
  let by_stamp = sort_by [ stamp ] (Array.init nc (fun y -> nc - 1 - y)) in
  (* Literal placement, two [u; v; -1] triples a clause: a hint-true
     literal first, so the solver's first descent asserts literals the hint
     (a model of the hard atoms tracking the recorded schedule) satisfies;
     else the original order, the reader's literal first when the reader
     was observed before the writer. *)
  let lits = Array.make (6 * nc) (-1) in
  Array.iteri
    (fun y x ->
      let i = ci x and j = cj x in
      (* O(end i) < O(start j), and O(end j) < O(zstart i) *)
      let ru = ev.(i) and rv = sv.(j) and wu = ev.(j) and wv = zstart i in
      let w_first =
        match hint with
        | Some h when h.(ru) < h.(rv) && h.(wu) >= h.(wv) -> false
        | Some h when h.(wu) < h.(wv) && h.(ru) >= h.(rv) -> true
        | _ -> tb.obs.(i) > tb.obs.(j)
      in
      let b = 6 * y and o = if w_first then 3 else 0 in
      lits.(b + o) <- ru;
      lits.(b + o + 1) <- rv;
      lits.(b + 3 - o) <- wu;
      lits.(b + 4 - o) <- wv)
    by_stamp;
  {
    problem =
      { nvars = nv; n_hard; hard = hard.a; clause_start = Array.init (nc + 1) (( * ) 2); lits };
    table = tb;
    threads = th;
    n_hard;
    n_clauses = nc;
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

(** The variable of an event, [None] when the system never references it:
    its position in the table's {!Event_index}. *)
let var_of (cs : t) ((t, c) : Log.evt) : int option =
  match find_var cs.table t c with -1 -> None | v -> Some v
