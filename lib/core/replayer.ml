(** The replayer: turns a solved constraint system into interpreter hooks
    that steer the replay run (Section 4.2).

    The IDL model assigns integers to the constrained events; sorting yields
    a total rank order over them.  The replay gate then:

    - lets a {e constrained} access (tid, c) proceed only when every
      lower-ranked constrained event has executed (exact-rank turn-taking);
    - lets an {e unconstrained} access proceed once all constrained events
      up to its thread-order predecessor have executed — interior accesses
      of a recorded interval thereby execute inside their endpoints, which
      together with the noninterference clauses preserves every inferred
      flow dependence;
    - suppresses blind writes: a write that is neither constrained, nor
      interior to a recorded interval of its thread, nor at a lock-guarded
      site, took part in no flow dependence, and executing it could corrupt
      a read (ghost writes are never suppressed — they carry the lock
      semantics);
    - substitutes recorded syscall values and steers [notify] wakeups to the
      recorded waiter.

    The gate's tables are flat arrays laid out as the constraint system's
    {!Event_index}, so a gate decision looks a thread's slot up in a
    direct table and reads one position; no table is keyed by a hash. *)

open Runtime

type schedule = {
  order : Log.evt array;  (** rank -> event *)
  ix : Event_index.t;  (** the system's events: each thread's slot and span *)
  var : int array;
      (** index position -> the event's variable, or -1: every variable
          is constrained (the system's {!Constraints.table}) *)
  wait : int array;
      (** index position -> the rank the cursor must reach before the
          event runs: its own rank when it is constrained, else one past
          the rank of its thread's last constrained event with a smaller
          counter (0 when there is none) *)
  after : int array;
      (** slot -> one past the rank of its last constrained event by
          counter: the wait of every counter past its span *)
  ivs : int array array array;
      (** slot -> the recorded intervals of the thread on each location,
          by the location's number in [iv_locs] ([[||]] past the end or
          for none), as [lo; reach] pairs sorted by [lo], where [reach] is
          the largest [hi] among this pair and the ones before it *)
  iv_locs : Pair_index.t;
      (** the locations some thread has an interval with an interior on,
          numbered: [(obj, fld)] -> the index into a slot's [ivs] *)
  syscall_values : (int * int, Value.t) Hashtbl.t;
  notify_pairs : (Log.evt, int) Hashtbl.t;  (** notify write event -> waiter tid *)
}

type solve_result_kind = Solved | Unsatisfiable | SolverAborted

type solve_report = {
  schedule : schedule option;
  result_kind : solve_result_kind;
  solver_stats : Dlsolver.Idl.stats;
  gen_stats : Constraints.gen_stats;
      (** clause counts before/after pruning and generation time *)
  n_vars : int;
  n_hard : int;
  n_clauses : int;
  solve_time_s : float;
  max_model : int;
      (** largest model value assigned (0 when unsolved) — epoch chaining
          shifts the next epoch's hint above this watermark *)
  exhausted : Dlsolver.Idl.bound option;  (** the budget bound an abort hit *)
}

(* The variables ordered by model value, ties by event [(et.(v), ec.(v))]:
   a linear-time radix sort by model value, then each run of equal model
   values sorted by event (the solver's values are almost always
   distinct). *)
let rank_order ~(et : int array) ~(ec : int array) (model : int array) : int array =
  let n = Array.length model in
  let idx = Constraints.sort_by [ model ] (Array.init n Fun.id) in
  let i = ref 0 in
  while !i < n do
    let j = ref (!i + 1) in
    while !j < n && model.(idx.(!j)) = model.(idx.(!i)) do incr j done;
    if !j - !i > 1 then begin
      let run = Array.sub idx !i (!j - !i) in
      Array.sort
        (fun a b -> match Int.compare et.(a) et.(b) with 0 -> Int.compare ec.(a) ec.(b) | c -> c)
        run;
      Array.blit run 0 idx !i (!j - !i)
    end;
    i := !j
  done;
  idx

let build_schedule (log : Log.t) (cs : Constraints.t) (model : int array) : schedule =
  let tb = cs.table in
  let et = tb.et and ec = tb.ec and ix = tb.ix in
  let by_model = rank_order ~et ~ec model in
  let order = Array.map (fun v -> (et.(v), ec.(v))) by_model in
  (* each variable's rank at its event's position, then the other
     positions' waits by one ascending scan of each slot *)
  let nt = Array.length ix.tids in
  let wait = Array.make (Event_index.size ix) 0 and after = Array.make nt 0 in
  let slot = cs.threads.slot in
  Array.iteri (fun k v -> wait.(Event_index.pos_in ix slot.(v) ec.(v)) <- k) by_model;
  for s = 0 to nt - 1 do
    let next = ref 0 in
    for p = ix.base.(s) to ix.base.(s + 1) - 1 do
      if Array.unsafe_get tb.var p >= 0 then next := wait.(p) + 1 else wait.(p) <- !next
    done;
    after.(s) <- !next
  done;
  (* intervals, read in the table's (location, thread, start) order: one
     [lo; reach] array per location and thread.  Only those with a counter
     strictly inside are kept: both endpoints are constrained events (so
     their thread has a slot), and a constrained write is never
     suppressed. *)
  let ivs = Array.make nt [||] in
  let iv_locs = Pair_index.create 16 in
  let rows = tb.order in
  let n = Array.length rows in
  let x = ref 0 in
  while !x < n do
    let k0 = rows.(!x) in
    let e = ref !x and kept = ref 0 in
    while !e < n && tb.grank.(rows.(!e)) = tb.grank.(k0) && tb.tid.(rows.(!e)) = tb.tid.(k0) do
      let k = rows.(!e) in
      if tb.hi.(k) - tb.lo.(k) >= 2 then incr kept;
      incr e
    done;
    if !kept > 0 then begin
      let a = Array.make (2 * !kept) 0 in
      let j = ref 0 and reach = ref min_int in
      for y = !x to !e - 1 do
        let k = rows.(y) in
        if tb.hi.(k) - tb.lo.(k) >= 2 then begin
          reach := max !reach tb.hi.(k);
          a.(2 * !j) <- tb.lo.(k);
          a.((2 * !j) + 1) <- !reach;
          incr j
        end
      done;
      let l = tb.locs.(tb.grank.(k0)) and s = slot.(tb.sv.(k0)) in
      let g = Pair_index.index iv_locs l.obj l.fld in
      if g >= Array.length ivs.(s) then begin
        let b = Array.make (max (g + 1) (2 * Array.length ivs.(s))) [||] in
        Array.blit ivs.(s) 0 b 0 (Array.length ivs.(s));
        ivs.(s) <- b
      end;
      ivs.(s).(g) <- a
    end;
    x := !e
  done;
  let syscall_values = Hashtbl.create 64 in
  List.iter (fun (t, i, _, v) -> Hashtbl.replace syscall_values (t, i) v) log.syscalls;
  (* notify -> waiter pairing from condition-ghost records: each row's
     source write, read by its reading thread *)
  let notify_pairs = Hashtbl.create 16 in
  let pair (a : int array) width ~wt ~wc ~rt =
    for k = 0 to (Array.length a / width) - 1 do
      let b = k * width in
      if a.(b + 1) = Loc.cond_fld && a.(b + wt) >= 0 then
        Hashtbl.replace notify_pairs (a.(b + wt), a.(b + wc)) a.(b + rt)
    done
  in
  pair log.deps Log.dep_width ~wt:Log.d_wt ~wc:Log.d_wc ~rt:Log.d_rft;
  pair log.ranges Log.range_width ~wt:Log.r_wt ~wc:Log.r_wc ~rt:Log.r_t;
  { order; ix; var = tb.var; wait; after; ivs; iv_locs; syscall_values; notify_pairs }

(** Generate constraints, solve, and build the schedule.  [budget] bounds
    the solver's work so a pathological constraint system aborts with
    honest statistics instead of hanging.  A log whose rows pass its
    counters, or span more events than they vouch for and a default
    replay steps, raises {!Log.Inconsistent} ({!Event_index.create}). *)
let solve ?budget ?(hint_shift = 0) (log : Log.t) : solve_report =
  let cs = Constraints.generate log in
  let hint =
    (* IDL is translation-invariant, so shifting the witness hint by a
       constant preserves satisfaction; epoch chaining shifts each epoch's
       hint above the previous epoch's solved ranks so the concatenated
       per-epoch orders stay globally consistent. *)
    match cs.hint with
    | Some h when hint_shift <> 0 -> Some (Array.map (fun v -> v + hint_shift) h)
    | h -> h
  in
  let t0 = Unix.gettimeofday () in
  let result = Dlsolver.Idl.solve ?budget ?hint cs.problem in
  let dt = Unix.gettimeofday () -. t0 in
  let mk kind stats schedule max_model exhausted =
    {
      schedule;
      result_kind = kind;
      solver_stats = stats;
      gen_stats = cs.gen_stats;
      n_vars = cs.problem.nvars;
      n_hard = cs.n_hard;
      n_clauses = cs.n_clauses;
      solve_time_s = dt;
      max_model;
      exhausted;
    }
  in
  match result with
  | Sat (model, stats) ->
    mk Solved stats
      (Some (build_schedule log cs model))
      (Array.fold_left max 0 model) None
  | Unsat stats -> mk Unsatisfiable stats None 0 None
  | Aborted (stats, b) -> mk SolverAborted stats None 0 (Some b)

(** Why a solve was aborted, naming the bound it hit, e.g.
    ["solver budget exhausted: 2000000 backtracks"]. *)
let budget_exhausted (b : Dlsolver.Idl.bound) : string =
  "solver budget exhausted: "
  ^
  match b with
  | Backtracks n -> Printf.sprintf "%d backtracks" n
  | Conflicts n -> Printf.sprintf "%d conflicts" n
  | Seconds s -> Printf.sprintf "%g CPU seconds" s

(* ------------------------------------------------------------------ *)
(* Replay-run driver                                                   *)
(* ------------------------------------------------------------------ *)

(** The rank the replay cursor must reach before thread [tid] may take its
    access with counter [c]: the event's own rank if it is constrained
    (exact-rank turn-taking), else one past the rank of the thread's last
    constrained event before it (0 for a thread with none).  Pure, so the
    VM asks it once per counter. *)
let wait_rank (sch : schedule) ~(tid : int) ~(c : int) : int =
  let ix = sch.ix in
  let s = Event_index.slot ix tid in
  if s < 0 then 0
  else
    let i = c - Array.unsafe_get ix.cmin s and b = Array.unsafe_get ix.base s in
    if i < 0 then 0
    else if i >= Array.unsafe_get ix.base (s + 1) - b then Array.unsafe_get sch.after s
    else Array.unsafe_get sch.wait (b + i)

(* the rank of the event at index position [p] (-1 for none), or -1 when
   it is unconstrained *)
let[@inline] rank_at (sch : schedule) (p : int) : int =
  if p >= 0 && Array.unsafe_get sch.var p >= 0 then Array.unsafe_get sch.wait p else -1

(** What a thread of a stalled replay waits for, as one line: its pending
    counter [c] (one past its final counter), the rank the cursor must
    reach, and the event at that rank. *)
let describe_wait (sch : schedule) ~(tid : int) ~(c : int) : string =
  let k = wait_rank sch ~tid ~c in
  if k < Array.length sch.order then
    let t', c' = sch.order.(k) in
    Printf.sprintf "thread %d waits at counter %d for rank %d: event (%d,%d)" tid c k t' c'
  else Printf.sprintf "thread %d waits at counter %d for rank %d: the end of the schedule" tid c k

(** What holds the cursor of a stalled replay, as one line: the lowest
    rank whose event [(t, c)] never ran — [c] is past [t]'s final counter
    in [counters] (0 for a thread absent from them) — and that counter.
    [None] when every event of the schedule ran. *)
let describe_cursor (sch : schedule) ~(counters : (int * int) list) : string option =
  let final t = Option.value (List.assoc_opt t counters) ~default:0 in
  Array.find_index (fun (t, c) -> c > final t) sch.order
  |> Option.map (fun k ->
         let t, c = sch.order.(k) in
         Printf.sprintf
           "cursor held at rank %d by event (%d,%d): thread %d stopped at counter %d" k t c t
           (final t))

(** The rank of a constrained event, [None] for an unconstrained one. *)
let rank (sch : schedule) ((t, c) : Log.evt) : int option =
  let k = rank_at sch (Event_index.pos sch.ix t c) in
  if k < 0 then None else Some k

(* is counter [c] inside a recorded interval of slot [s]'s thread (-1:
   a thread with none) on [(obj, fld)]?  The greatest [lo <= c] is found by binary search; its [reach]
   covers [c] iff some interval starting at or before [c] ends at or after
   it *)
let interior (sch : schedule) (s : int) ~(obj : int) ~(fld : int) (c : int) : bool =
  s >= 0
  &&
  let g = Pair_index.find sch.iv_locs obj fld in
  g >= 0
  && g < Array.length sch.ivs.(s)
  &&
  let a = sch.ivs.(s).(g) in
  let lo = ref 0 and hi = ref ((Array.length a / 2) - 1) and best = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(2 * mid) <= c then (best := mid; lo := mid + 1) else hi := mid - 1
  done;
  !best >= 0 && a.((2 * !best) + 1) >= c

(* The O2 "guarded" bit per site as one byte per site id, in the style of
   [Plan.modes], filled on first use ('\002' = not asked yet): the driver
   does not know the program's largest site id. *)
let guarded_bits (plan : Plan.t) : int -> bool =
  let bits = ref (Bytes.make 64 '\002') in
  fun site ->
    if site < 0 then plan.guarded_site site
    else begin
      let b = !bits in
      if site >= Bytes.length b then begin
        let b' = Bytes.make (max (site + 1) (2 * Bytes.length b)) '\002' in
        Bytes.blit b 0 b' 0 (Bytes.length b);
        bits := b'
      end;
      match Bytes.unsafe_get !bits site with
      | '\000' -> false
      | '\001' -> true
      | _ ->
        let g = plan.guarded_site site in
        Bytes.unsafe_set !bits site (if g then '\001' else '\000');
        g
    end

(** [?suppress:false] turns off blind-write suppression — the exploration
    mode: every executed step is then a legal program step, so any crash a
    flipped schedule reaches is a genuine interleaving of the program, not
    an artifact of replay-time write elision.  Replay of the {e recorded}
    schedule keeps the default ([true]); see the module doc. *)
let driver ?(suppress = true) (sch : schedule) ~(plan : Plan.t) : Interp.hooks =
  let n = Array.length sch.order in
  let next_rank = ref 0 in
  let executed = Bytes.make n '\000' in
  let guarded_site = guarded_bits plan in
  (* positions for wakeup choice *)
  let last_notify : Log.evt option ref = ref None in
  let on_shared ~tid ~c ~obj:_ ~fld:_ ~kind:_ ~site:_ ~ghost =
    let k = rank_at sch (Event_index.pos sch.ix tid c) in
    if k >= 0 && Bytes.unsafe_get executed k = '\000' then begin
      Bytes.unsafe_set executed k '\001';
      while !next_rank < n && Bytes.unsafe_get executed !next_rank <> '\000' do
        incr next_rank
      done
    end;
    if ghost = Event.NotifyWrite then last_notify := Some (tid, c)
  in
  let suppress_write ~tid ~c ~obj ~fld ~site : bool =
    suppress
    &&
    let s = Event_index.slot sch.ix tid in
    rank_at sch (if s < 0 then -1 else Event_index.pos_in sch.ix s c) < 0
    && (not (guarded_site site))
    && not (interior sch s ~obj ~fld c)
  in
  let syscall_override ~tid ~idx ~name:_ =
    Hashtbl.find_opt sch.syscall_values (tid, idx)
  in
  let choose_wakeup ~lock:_ ~waiters =
    match !last_notify with
    | Some n -> (
      match Hashtbl.find_opt sch.notify_pairs n with
      | Some w when List.mem w waiters -> w
      | _ -> List.hd waiters)
    | None -> List.hd waiters
  in
  {
    Interp.gate = Some (Rank { wait = wait_rank sch; cursor = next_rank });
    observe = None;
    on_shared = Some on_shared;
    syscall_override = Some syscall_override;
    choose_wakeup = Some choose_wakeup;
    suppress_write = Some suppress_write;
    on_branch = None;
  }

(** Execute the replay run on the register VM.  The driver hooks
    constrain shared accesses only, which the VM presents exactly as the
    tree walker that recorded them does. *)
let replay ?(max_steps = 10_000_000) ?suppress (program : Lang.Ast.program)
    ~(plan : Plan.t) (sch : schedule) : Interp.outcome =
  Vm.run ~hooks:(driver ?suppress sch ~plan) ~plan ~max_steps
    ~sched:(Sched.round_robin ()) program
