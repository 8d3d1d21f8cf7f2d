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

    {b Cost.}  Generation is linear in the log apart from sorts, and works
    on flat int arrays.  The log's dep and range rows are read in place,
    once, into a struct-of-arrays {!table} whose rows are the intervals
    (no list or record copy of the log comes first); every distinct event
    gets its variable there, through one open-addressing table keyed by
    [(tid, c)].  One hash pass numbers the locations and one sort of the
    distinct locations by (object, field name) ranks them in [Loc.Map]
    order, without [Loc.compare]'s per-comparison name allocation.  One
    radix sort puts every row in (location, thread, start) order;
    singleton materialization, the init-value edges, the sweep and the
    replayer's interval tables all read that one order, where "is this
    event inside an interval of its thread" is a binary search with a
    running max of the ends ({!location_rows} groups the same rows for
    validation and exploration).  The per-thread chains come from a radix
    sort and the time estimates from one walk along them; reachability
    and the hint share one compressed adjacency of the hard graph.  The
    sweep does two binary searches per (reader, writer thread) and touches
    only the gap; one radix sort on the literals finds the duplicate
    clauses. *)

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
  src_obs : int array;
  lo_obs : int array; (** a range's stamp of its first access, by range *)
  loose : (int * Log.evt) list;
      (** the recorded rows with a write they do not read from (a range's
          [w_in] without prefix reads), with that write *)
  (* the variables *)
  nv : int;
  et : int array;     (** var -> thread *)
  ec : int array;     (** var -> counter *)
  order : int array;  (** live rows by (location rank, thread, start, row) *)
}

(* [flags] bits; a row is sourced when its first reads read from its
   source: a dep, or a range with prefix reads *)
let f_reads = 1
let f_writes = 2
let f_sourced = 4

let[@inline] has (tb : table) (k : int) (f : int) =
  Char.code (Bytes.unsafe_get tb.flags k) land f <> 0

(* [src] encoding of an interval's source *)
let no_src = -2  (* no incoming dependence, or freed *)
let init_src = -1  (* the virtual initialization write *)

(** The variables' threads in ascending order (a thread's index there is
    its {e slot}), each variable's slot, and the variables by (thread,
    counter): slot [s]'s thread-order chain is [chains.(chain_start.(s))
    .. chains.(chain_start.(s+1) - 1)]. *)
type threads = {
  tids : int array;
  slot : int array;
  chains : int array;
  chain_start : int array;
}

type t = {
  problem : Dlsolver.Idl.problem;
  evts : Log.evt array;  (** var index -> event *)
  table : table;
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
   min], 11 bits a pass, so the cost is linear in the number of indices.
   The passes alternate between [idx] and one other buffer; either may be
   the result. *)
let sort_by (keys : int array list) (idx : int array) : int array =
  let n = Array.length idx in
  let src = ref idx and dst = ref (Array.make n 0) in
  let count = Array.make 2049 0 in
  List.iter
    (fun key ->
      let lo = ref max_int and hi = ref min_int and s = !src in
      for x = 0 to n - 1 do
        let k = key.(s.(x)) in
        if k < !lo then lo := k;
        if k > !hi then hi := k
      done;
      let lo = !lo and range = !hi - !lo in
      let shift = ref 0 in
      while n > 0 && !shift < Sys.int_size && range lsr !shift > 0 do
        let sh = !shift and s = !src and d = !dst in
        Array.fill count 0 2049 0;
        for x = 0 to n - 1 do
          let g = ((key.(s.(x)) - lo) lsr sh) land 2047 in
          count.(g + 1) <- count.(g + 1) + 1
        done;
        for g = 1 to 2048 do
          count.(g) <- count.(g) + count.(g - 1)
        done;
        for x = 0 to n - 1 do
          let i = s.(x) in
          let g = ((key.(i) - lo) lsr sh) land 2047 in
          d.(count.(g)) <- i;
          count.(g) <- count.(g) + 1
        done;
        src := d;
        dst := s;
        shift := sh + 11
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

(* The rank in [Loc.Map] order (object, then field name) of the location
   of each recorded row of [log] (its deps, then its ranges), in an array
   of [size], and the distinct locations in that order.  Distinct
   locations never share an (obj, name) key: element fields print as
   "#<i>" and no interned name starts with '#'. *)
let loc_ranks (log : Log.t) (size : int) : int array * Loc.t array =
  let n_deps = Log.n_deps log in
  let ids = Pair_index.create 64 in
  let rank = Array.make size 0 in
  (* every row starts with its location's object and field *)
  let col k j =
    if k < n_deps then log.deps.((k * Log.dep_width) + j)
    else log.ranges.(((k - n_deps) * Log.range_width) + j)
  in
  for k = 0 to n_deps + Log.n_ranges log - 1 do
    rank.(k) <- Pair_index.index ids (col k 0) (col k 1)
  done;
  let n = Pair_index.length ids in
  let first = Array.init n (fun g -> { Loc.obj = ids.fst.(g); fld = ids.snd.(g) }) in
  let name = Array.map (fun (l : Loc.t) -> Loc.fld_name l.fld) first in
  let by_name = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match Int.compare first.(a).obj first.(b).obj with
      | 0 -> String.compare name.(a) name.(b)
      | c -> c)
    by_name;
  let rank_of = Array.make n 0 in
  Array.iteri (fun r g -> rank_of.(g) <- r) by_name;
  for k = 0 to n_deps + Log.n_ranges log - 1 do
    rank.(k) <- rank_of.(rank.(k))
  done;
  (rank, Array.map (fun g -> first.(g)) by_name)

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
  let src_obs = Array.make n_base 0 and lo_obs = Array.make (n_base - n_deps) 0 in
  let loose = ref [] in
  (* variables, numbered in order of first reference: each recorded
     interval's start, end and source, then the extra events; an interval
     names two or three events *)
  let n_extra = List.length extra_events in
  let vars = Pair_index.create ((2 * n_base) + (n_base - n_deps) + n_extra) in
  (* row [k]: thread [t], counters [s..e], stamps [o] and [so], flags
     [fl] and source write [wt:wc] ([wt] -1: the initialization write) *)
  let row k t s e o so fl wt wc =
    tid.(k) <- t;
    lo.(k) <- s;
    hi.(k) <- e;
    obs.(k) <- o;
    src_obs.(k) <- so;
    Bytes.unsafe_set flags k (Char.unsafe_chr fl);
    sv.(k) <- Pair_index.index vars t s;
    ev.(k) <- Pair_index.index vars t e;
    if fl land f_sourced <> 0 then
      src.(k) <- (if wt >= 0 then Pair_index.index vars wt wc else init_src)
    else if wt >= 0 then loose := (k, (wt, wc)) :: !loose
  in
  for k = 0 to n_deps - 1 do
    let b = k * dep_width in
    row k d.(b + d_rft) d.(b + d_rfc) d.(b + d_rl) d.(b + d_obs) d.(b + d_wobs)
      (f_reads lor f_sourced) d.(b + d_wt) d.(b + d_wc)
  done;
  for i = 0 to n_base - n_deps - 1 do
    let b = i * range_width in
    lo_obs.(i) <- r.(b + r_loobs);
    (* only runs containing reads are recorded *)
    row (n_deps + i) r.(b + r_t) r.(b + r_lo) r.(b + r_hi) r.(b + r_obs) r.(b + r_wobs)
      (f_reads
      lor (if r.(b + r_write) <> 0 then f_writes else 0)
      lor if r.(b + r_prefix) <> 0 then f_sourced else 0)
      r.(b + r_wt) r.(b + r_wc)
  done;
  List.iter (fun (t, c) -> ignore (Pair_index.index vars t c)) extra_events;
  let fl k = Char.code (Bytes.unsafe_get flags k) in
  (* the referenced source writes, as write-only singleton rows: one per
     sourced interval, the last in log order first *)
  let grank, locs = loc_ranks log m in
  let next = ref n_base in
  for k = n_base - 1 downto 0 do
    let w = src.(k) in
    if w >= 0 then begin
      let r = !next in
      incr next;
      grank.(r) <- grank.(k);
      tid.(r) <- vars.fst.(w);
      lo.(r) <- vars.snd.(w);
      hi.(r) <- vars.snd.(w);
      obs.(r) <- src_obs.(k);
      sv.(r) <- w;
      ev.(r) <- w;
      Bytes.unsafe_set flags r (Char.unsafe_chr f_writes)
    end
  done;
  (* every row by (location, thread, start, row).  A singleton sorts
     after the recorded intervals starting at its write, so a running max
     of their ends says whether one of them covers it, and right after the
     singletons of the same write on the location: only the first of those
     (whose interval is the last to name the pair, providing its stamp)
     lives *)
  let order = sort_by [ grank; tid; lo ] (Array.init m Fun.id) in
  let live = ref 0 and reach = ref min_int in
  Array.iteri
    (fun x k ->
      let k' = if x > 0 then order.(x - 1) else -1 in
      let same_run = k' >= 0 && grank.(k) = grank.(k') && tid.(k) = tid.(k') in
      if not same_run then reach := min_int;
      if k < n_base then begin
        if hi.(k) > !reach then reach := hi.(k)
      end
      else if !reach >= lo.(k) || (same_run && k' >= n_base && lo.(k) = lo.(k')) then
        Bytes.unsafe_set flags k '\000';
      if fl k <> 0 then begin
        order.(!live) <- k;
        incr live
      end)
    order;
  let order = Array.sub order 0 !live in
  {
    n_deps; n_base; locs; grank; tid; lo; hi; obs; flags; sv; ev; src;
    src_obs; lo_obs; loose = !loose; nv = Pair_index.length vars; et = vars.fst; ec = vars.snd;
    order;
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

let threads_of (tb : table) : threads =
  let chains = sort_by [ tb.et; tb.ec ] (Array.init tb.nv Fun.id) in
  let slot = Array.make tb.nv 0 and ts = ref [] and starts = ref [] and nt = ref 0 in
  Array.iteri
    (fun x v ->
      if x = 0 || tb.et.(chains.(x - 1)) <> tb.et.(v) then begin
        ts := tb.et.(v) :: !ts;
        starts := x :: !starts;
        incr nt
      end;
      slot.(v) <- !nt - 1)
    chains;
  {
    tids = Array.of_list (List.rev !ts);
    slot;
    chains;
    chain_start = Array.of_list (List.rev (tb.nv :: !starts));
  }

(* the slot of thread [t], or -1 *)
let find_slot (th : threads) (t : int) : int =
  let lo = ref 0 and hi = ref (Array.length th.tids) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if th.tids.(mid) < t then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length th.tids && th.tids.(!lo) = t then !lo else -1

(* the variable of event [(t, c)] — a binary search in its thread's
   chain — or -1 *)
let find_var (th : threads) (ec : int array) (t : int) (c : int) : int =
  let s = find_slot th t in
  if s < 0 then -1
  else begin
    let lo = ref th.chain_start.(s) and hi = ref th.chain_start.(s + 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if ec.(th.chains.(mid)) < c then lo := mid + 1 else hi := mid
    done;
    if !lo < th.chain_start.(s + 1) && ec.(th.chains.(!lo)) = c then th.chains.(!lo) else -1
  end

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
      let s = find_slot th t in
      if s >= 0 then others := (s, c, o) :: !others
  in
  for k = 0 to tb.n_base - 1 do
    anchor tb.ev.(k) 0 0 tb.obs.(k);
    if k >= tb.n_deps then anchor tb.sv.(k) 0 0 tb.lo_obs.(k - tb.n_deps);
    if tb.src.(k) >= 0 then anchor tb.src.(k) 0 0 tb.src_obs.(k)
  done;
  List.iter (fun (k, (t, c)) -> anchor (find_var th tb.ec t c) t c tb.src_obs.(k)) tb.loose;
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

(* the first [m] edges of [hard], stored as [u; v] pairs *)
let graph_of (nv : int) (hard : Vec.t) (m : int) : graph =
  let e = hard.a in
  (* out-degrees summed to each vertex's end, then each edge placed by
     stepping its source's bound back: the bounds end at the starts *)
  let off = Array.make (nv + 1) 0 in
  for i = 0 to m - 1 do
    off.(e.(2 * i)) <- off.(e.(2 * i)) + 1
  done;
  for v = 1 to nv do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let dst = Array.make m 0 in
  for i = 0 to m - 1 do
    let u = e.(2 * i) in
    off.(u) <- off.(u) - 1;
    dst.(off.(u)) <- e.((2 * i) + 1)
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
      let v = find_var th tb.ec t c in
      if v >= 0 then Bytes.set freed v '\001')
    free;
  let is_freed k = Bytes.get freed sv.(k) <> '\000' in
  (* the effective source *)
  let esrc k = if k >= tb.n_base || is_freed k then no_src else tb.src.(k) in
  let reads k = has tb k f_reads and writes k = has tb k f_writes in
  (* per-vertex buffers of the graph passes *)
  let indeg = Array.make nv 0 and scratch = Array.make nv 0 in
  (* hard edges as [u; v] pairs; thread order and the dependences take
     fewer than [nv + n_base], and a quarter of [n_base] more usually
     holds the initial-value edges and unit reductions *)
  let hard = Vec.create (2 * (nv + tb.n_base + (tb.n_base / 4) + 64)) in
  let add_hard a b =
    Vec.push hard a;
    Vec.push hard b
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
  (* clauses as [i; j; z] records: reader interval [i], writer interval
     [j] and the start [z] of [i]'s protected zone, for O(end i) < O(start
     j) \/ O(end j) < O(z) *)
  let clauses = Vec.create 1024 in
  let n_pairs = ref 0 and n_pruned = ref 0 and n_unit = ref 0 and n_dedup = ref 0 in
  (* event [(t, c)] lies inside interval [j] *)
  let inside t c j = tid.(j) = t && lo.(j) <= c && c <= hi.(j) in
  let emit_clause i j z =
    Vec.push clauses i;
    Vec.push clauses j;
    Vec.push clauses z
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
                        emit_clause i j (esrc i)
                      end
                    end
                    else if tid.(i) <> tid.(j) && not (is_freed i) then begin
                      incr n_pairs;
                      emit_clause i j sv.(i)
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
    let n_reach = hard.n / 2 in
    let g = graph_of nv hard n_reach in
    let reach = compute_reach tb th g ~indeg ~q:scratch in
    let nt = Array.length th.tids in
    (* greatest counter of an event of slot [s]'s thread hard-preceding
       (or equal to) var [v]; [min_int] when reachability is unavailable *)
    let entry v s = match reach with Some vc -> vc.((v * nt) + s) | None -> min_int in
    (* the write at [ws.(x)] starts hard-after counter [c] of slot [s] *)
    let after x s c = entry sv.(ws.(x)) s >= c in
    let seen_unit = Pair_index.create 256 in
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
          (* the protected zone starts at the source write, or at the
             interval's own start when it has none *)
          let v_zstart = if sourced then esrc i else sv.(i) in
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
              let bound = entry v_zstart th.slot.(sv.(ws.(b0))) in
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
                if after x s1 c_end_i then h := x else (l := x + 1; d := 2 * !d)
              done;
              while !l < !h do
                let mid = (!l + !h) lsr 1 in
                if after mid s1 c_end_i then h := mid else l := mid + 1
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
                  else emit_clause i j v_zstart
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
      (graph_of nv hard (hard.n / 2), hard.n / 2)
    end
    else pruned_sweep ()
  in
  let n_hard = hard.n / 2 in
  (* the hint's graph: the sweep's, plus the unit reductions it added as
     late edges, by source *)
  let late =
    let m = n_hard - n_early in
    let src x = hard.a.(2 * (n_early + x)) in
    let by_src = sort_by [ Array.init m src ] (Array.init m Fun.id) in
    Array.init (2 * m) (fun y -> hard.a.((2 * (n_early + by_src.(y / 2))) + (y land 1)))
  in
  let hint = topo_hint nv (event_times tb th) g late ~indeg ~heap:scratch in
  let n_emitted = clauses.n / 3 and c = clauses.a in
  let ci x = c.(3 * x) and cj x = c.((3 * x) + 1) and cz x = c.((3 * x) + 2) in
  (* the sweep's duplicates (the same two literals) leave only their
     first emission; the naive generator keeps them all *)
  let dup = Bytes.make n_emitted '\000' in
  if not naive then begin
    let p1 x = (ev.(ci x) * nv) + sv.(cj x) and p2 x = (ev.(cj x) * nv) + cz x in
    let k1 = Array.init n_emitted (fun x -> min (p1 x) (p2 x))
    and k2 = Array.init n_emitted (fun x -> max (p1 x) (p2 x)) in
    let by_key = sort_by [ k1; k2 ] (Array.init n_emitted Fun.id) in
    for y = 1 to n_emitted - 1 do
      let x = by_key.(y) and x' = by_key.(y - 1) in
      if k1.(x) = k1.(x') && k2.(x) = k2.(x') then begin
        Bytes.set dup x '\001';
        incr n_dedup
      end
    done
  end;
  (* the clauses by stamp, the later of the two intervals' observations;
     among equal stamps the later-emitted first *)
  let nc = n_emitted - !n_dedup in
  let later_first = Array.make nc 0 in
  let y = ref 0 in
  for x = n_emitted - 1 downto 0 do
    if Bytes.get dup x = '\000' then begin
      later_first.(!y) <- x;
      incr y
    end
  done;
  let stamps = Array.init n_emitted (fun x -> max tb.obs.(ci x) tb.obs.(cj x)) in
  let by_stamp = sort_by [ stamps ] later_first in
  (* Literal ordering: the first literal matches the original order when
     the reader was observed before the writer.  Then the hint, a model of
     the hard atoms that tracks the recorded schedule, reorders: placing a
     hint-true literal first makes the solver's first descent assert a set
     of literals that the hint itself satisfies — conflicts can only come
     from clauses whose both literals the hint falsifies.  The stamp order
     stays as the tie-break. *)
  let clause_arr =
    Array.map
      (fun x ->
        let i = ci x and j = cj x in
        let r = Dlsolver.Idl.lt ev.(i) sv.(j) and w = Dlsolver.Idl.lt ev.(j) (cz x) in
        let swap = tb.obs.(i) > tb.obs.(j) in
        let a1 = if swap then w else r and a2 = if swap then r else w in
        match hint with
        | Some h when h.(a1.u) >= h.(a1.v) && h.(a2.u) < h.(a2.v) -> [| a2; a1 |]
        | _ -> [| a1; a2 |])
      by_stamp
  in
  let hard_atoms = ref [] in
  for e = n_hard - 1 downto 0 do
    hard_atoms := Dlsolver.Idl.lt hard.a.(2 * e) hard.a.((2 * e) + 1) :: !hard_atoms
  done;
  {
    problem = { Dlsolver.Idl.nvars = nv; hard = !hard_atoms; clauses = clause_arr };
    evts = Array.init nv (fun v -> (tb.et.(v), tb.ec.(v)));
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
    a binary search in the event's thread chain. *)
let var_of (cs : t) ((t, c) : Log.evt) : int option =
  match find_var cs.threads cs.table.ec t c with -1 -> None | v -> Some v
