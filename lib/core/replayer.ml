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
      recorded waiter. *)

open Runtime

module Tid = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash t = t land max_int
end)

(* One thread's slice of the schedule, as dense tables indexed by
   [c - base] so every gate decision is two array reads.  [base] is the
   thread's smallest constrained counter; past the table's end no event is
   constrained and [last] stands in for [pred]. *)
type thread_tables = {
  base : int;
  rank : int array;  (** rank of the event at counter c, -1 when unconstrained *)
  pred : int array;
      (** rank of the thread's last constrained event with counter < c, -1
          when there is none *)
  mutable last : int;  (** rank of the thread's last constrained event by counter *)
  ivs : int array Loc.Tbl.t;
      (** recorded intervals on each location, as [lo; reach] pairs sorted by
          [lo], where [reach] is the largest [hi] among this pair and the
          ones before it *)
}

type schedule = {
  order : Log.evt array;  (** rank -> event *)
  threads : thread_tables Tid.t;
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
}

let no_tables =
  { base = 0; rank = [||]; pred = [||]; last = -1; ivs = Loc.Tbl.create 1 }

type span = { mutable lo : int; mutable hi : int }

(* The event indices ordered by model value, ties by event: a linear-time
   radix sort by model value, then each run of equal model values sorted
   by event (the solver's values are almost always distinct). *)
let rank_order (evts : Log.evt array) (model : int array) : int array =
  let n = Array.length model in
  let idx = Constraints.radix_sort model (Array.init n Fun.id) in
  let i = ref 0 in
  while !i < n do
    let j = ref (!i + 1) in
    while !j < n && model.(idx.(!j)) = model.(idx.(!i)) do incr j done;
    if !j - !i > 1 then begin
      let run = Array.sub idx !i (!j - !i) in
      Array.sort (fun a b -> compare evts.(a) evts.(b)) run;
      Array.blit run 0 idx !i (!j - !i)
    end;
    i := !j
  done;
  idx

let build_schedule (log : Log.t) (cs : Constraints.t) (model : int array) : schedule =
  let by_model = rank_order cs.evts model in
  let order = Array.map (fun i -> cs.evts.(i)) by_model in
  (* per thread: counter span, then the rank table, then [pred] and [last]
     by one ascending scan of it *)
  let spans = Tid.create 16 in
  Array.iter
    (fun (t, c) ->
      match Tid.find spans t with
      | sp ->
        if c < sp.lo then sp.lo <- c;
        if c > sp.hi then sp.hi <- c
      | exception Not_found -> Tid.replace spans t { lo = c; hi = c })
    order;
  let threads = Tid.create 16 in
  Tid.iter
    (fun t sp ->
      let len = sp.hi - sp.lo + 1 in
      Tid.replace threads t
        {
          base = sp.lo;
          rank = Array.make len (-1);
          pred = Array.make len (-1);
          last = -1;
          ivs = Loc.Tbl.create 8;
        })
    spans;
  Array.iteri (fun k (t, c) -> let th = Tid.find threads t in th.rank.(c - th.base) <- k) order;
  Tid.iter
    (fun _ th ->
      Array.iteri
        (fun i k ->
          th.pred.(i) <- th.last;
          if k >= 0 then th.last <- k)
        th.rank)
    threads;
  (* intervals, gathered per thread and location, then flattened.  Only
     those with a counter strictly inside are kept: both endpoints are
     constrained events (so their thread has tables), and a constrained
     write is never suppressed. *)
  let pending : (int * int) list Loc.Tbl.t Tid.t = Tid.create 16 in
  List.iter
    (fun (iv : Constraints.interval) ->
      let t = fst iv.start_e and lo = snd iv.start_e and hi = snd iv.end_e in
      if hi - lo >= 2 then begin
        let per =
          match Tid.find pending t with
          | per -> per
          | exception Not_found ->
            let per = Loc.Tbl.create 64 in
            Tid.replace pending t per;
            per
        in
        let prev = match Loc.Tbl.find per iv.iv_loc with l -> l | exception Not_found -> [] in
        Loc.Tbl.replace per iv.iv_loc ((lo, hi) :: prev)
      end)
    cs.intervals;
  Tid.iter
    (fun t per ->
      let th = Tid.find threads t in
      Loc.Tbl.iter
        (fun loc l ->
          let a = Array.make (2 * List.length l) 0 in
          let reach = ref min_int in
          List.iteri
            (fun j (lo, hi) ->
              reach := max !reach hi;
              a.(2 * j) <- lo;
              a.((2 * j) + 1) <- !reach)
            (List.sort (fun (a, _) (b, _) -> Int.compare a b) l);
          Loc.Tbl.replace th.ivs loc a)
        per)
    pending;
  let syscall_values = Hashtbl.create 64 in
  List.iter (fun (t, i, _, v) -> Hashtbl.replace syscall_values (t, i) v) log.syscalls;
  (* notify -> waiter pairing from condition-ghost records *)
  let notify_pairs = Hashtbl.create 16 in
  List.iter
    (fun (d : Log.dep) ->
      if d.loc.fld = Loc.cond_fld then
        match d.w with Some w -> Hashtbl.replace notify_pairs w (fst d.rf) | None -> ())
    log.deps;
  List.iter
    (fun (r : Log.range) ->
      if r.loc.fld = Loc.cond_fld then
        match r.w_in with Some w -> Hashtbl.replace notify_pairs w r.rt | None -> ())
    log.ranges;
  { order; threads; syscall_values; notify_pairs }

(** Generate constraints, solve, and build the schedule.  [budget] bounds
    the solver's work so a pathological constraint system aborts with
    honest statistics instead of hanging; [naive] switches to the
    unpruned quadratic generator (differential oracle). *)
let solve ?(naive = false) ?budget ?(hint_shift = 0) (log : Log.t) : solve_report =
  let cs = Constraints.generate ~naive log in
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
  let mk kind stats schedule max_model =
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
    }
  in
  match result with
  | Sat (model, stats) ->
    mk Solved stats
      (Some (build_schedule log cs model))
      (Array.fold_left max 0 model)
  | Unsat stats -> mk Unsatisfiable stats None 0
  | Aborted stats -> mk SolverAborted stats None 0

(* ------------------------------------------------------------------ *)
(* Replay-run driver                                                   *)
(* ------------------------------------------------------------------ *)

let tables (sch : schedule) (t : int) : thread_tables =
  match Tid.find sch.threads t with th -> th | exception Not_found -> no_tables

let rank_at (th : thread_tables) (c : int) : int =
  let i = c - th.base in
  if i >= 0 && i < Array.length th.rank then Array.unsafe_get th.rank i else -1

(** The rank of a constrained event, [None] for an unconstrained one. *)
let rank (sch : schedule) ((t, c) : Log.evt) : int option =
  let k = rank_at (tables sch t) c in
  if k < 0 then None else Some k

(* is counter [c] inside a recorded interval of the thread on [loc]?  The
   greatest [lo <= c] is found by binary search; its [reach] covers [c]
   iff some interval starting at or before [c] ends at or after it *)
let interior (th : thread_tables) (loc : Loc.t) (c : int) : bool =
  match Loc.Tbl.find th.ivs loc with
  | exception Not_found -> false
  | a ->
    let lo = ref 0 and hi = ref ((Array.length a / 2) - 1) and best = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(2 * mid) <= c then (best := mid; lo := mid + 1) else hi := mid - 1
    done;
    !best >= 0 && a.((2 * !best) + 1) >= c

(** [?suppress:false] turns off blind-write suppression — the exploration
    mode: every executed step is then a legal program step, so any crash a
    flipped schedule reaches is a genuine interleaving of the program, not
    an artifact of replay-time write elision.  Replay of the {e recorded}
    schedule keeps the default ([true]); see the module doc. *)
let driver ?(suppress = true) (sch : schedule) ~(plan : Plan.t) : Interp.hooks =
  let n = Array.length sch.order in
  let next_rank = ref 0 in
  let executed = Bytes.make n '\000' in
  (* positions for wakeup choice *)
  let last_notify : Log.evt option ref = ref None in
  let gate (pre : Event.pre) : bool =
    let th = tables sch pre.tid in
    let i = pre.c - th.base in
    if i < 0 then true
    else if i >= Array.length th.rank then !next_rank > th.last
    else
      let k = Array.unsafe_get th.rank i in
      if k >= 0 then k = !next_rank else !next_rank > Array.unsafe_get th.pred i
  in
  let on_shared ~tid ~c ~loc:_ ~kind:_ ~site:_ ~ghost =
    let k = rank_at (tables sch tid) c in
    if k >= 0 && Bytes.unsafe_get executed k = '\000' then begin
      Bytes.unsafe_set executed k '\001';
      while !next_rank < n && Bytes.unsafe_get executed !next_rank <> '\000' do
        incr next_rank
      done
    end;
    if ghost = Event.NotifyWrite then last_notify := Some (tid, c)
  in
  let suppress_write (pre : Event.pre) : bool =
    suppress
    && pre.ghost = Event.NotGhost
    &&
    let th = tables sch pre.tid in
    rank_at th pre.c < 0
    && (not (interior th pre.loc pre.c))
    && not (plan.guarded_site pre.site)
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
    Interp.gate = Some gate;
    observe = None;
    on_shared = Some on_shared;
    syscall_override = Some syscall_override;
    choose_wakeup = Some choose_wakeup;
    suppress_write = Some suppress_write;
    on_branch = None;
  }

(** Execute the replay run, by default on the register VM
    ([Vm.Bytecode]); [~engine:Vm.Tree] runs it on the tree walker.  The
    driver hooks are engine-agnostic: the schedule constrains shared
    accesses, which both engines present identically, so both give the
    same replay step for step. *)
let replay ?(max_steps = 10_000_000) ?suppress ?(engine = Vm.Bytecode)
    (program : Lang.Ast.program) ~(plan : Plan.t) (sch : schedule) :
    Interp.outcome =
  let hooks = driver ?suppress sch ~plan in
  let run =
    match engine with Vm.Tree -> Interp.run | Vm.Bytecode -> Vm.run
  in
  run ~hooks ~plan ~max_steps ~sched:(Sched.round_robin ()) program
