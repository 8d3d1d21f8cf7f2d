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

(* Thread tables by tid, for the gate's per-call lookup: open addressing
   with linear probing over a power-of-two table at most half full, so a
   probe is a multiply and an array read or two; [-1] marks a free slot
   (tids are positive). *)
type by_tid = { keys : int array; vals : thread_tables array; mask : int }

type schedule = {
  order : Log.evt array;  (** rank -> event *)
  threads : by_tid;
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

let no_tables =
  { base = 0; rank = [||]; pred = [||]; last = -1; ivs = Loc.Tbl.create 1 }

let[@inline] tid_slot (t : int) (mask : int) : int =
  let x = t * 0x9E3779B1 in
  (x lxor (x lsr 17)) land mask

let by_tid_of (tbl : thread_tables Tid.t) : by_tid =
  let cap = ref 8 in
  while !cap < 2 * Tid.length tbl do cap := 2 * !cap done;
  let keys = Array.make !cap (-1) and vals = Array.make !cap no_tables in
  let mask = !cap - 1 in
  Tid.iter
    (fun t th ->
      let i = ref (tid_slot t mask) in
      while keys.(!i) >= 0 do i := (!i + 1) land mask done;
      keys.(!i) <- t;
      vals.(!i) <- th)
    tbl;
  { keys; vals; mask }

type span = { mutable lo : int; mutable hi : int }

(* The event indices ordered by model value, ties by event: a linear-time
   radix sort by model value, then each run of equal model values sorted
   by event (the solver's values are almost always distinct). *)
let rank_order (evts : Log.evt array) (model : int array) : int array =
  let n = Array.length model in
  let idx = Constraints.sort_by [ model ] (Array.init n Fun.id) in
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
  (* intervals, read in the table's (location, thread, start) order: one
     [lo; reach] array per location and thread.  Only those with a counter
     strictly inside are kept: both endpoints are constrained events (so
     their thread has tables), and a constrained write is never
     suppressed. *)
  let iv = cs.table in
  let rows = iv.order in
  let n = Array.length rows in
  let x = ref 0 in
  while !x < n do
    let k0 = rows.(!x) in
    let e = ref !x and kept = ref 0 in
    while !e < n && iv.grank.(rows.(!e)) = iv.grank.(k0) && iv.tid.(rows.(!e)) = iv.tid.(k0) do
      let k = rows.(!e) in
      if iv.hi.(k) - iv.lo.(k) >= 2 then incr kept;
      incr e
    done;
    if !kept > 0 then begin
      let a = Array.make (2 * !kept) 0 in
      let j = ref 0 and reach = ref min_int in
      for y = !x to !e - 1 do
        let k = rows.(y) in
        if iv.hi.(k) - iv.lo.(k) >= 2 then begin
          reach := max !reach iv.hi.(k);
          a.(2 * !j) <- iv.lo.(k);
          a.((2 * !j) + 1) <- !reach;
          incr j
        end
      done;
      Loc.Tbl.replace (Tid.find threads iv.tid.(k0)).ivs iv.locs.(iv.grank.(k0)) a
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
  { order; threads = by_tid_of threads; syscall_values; notify_pairs }

(** Generate constraints, solve, and build the schedule.  [budget] bounds
    the solver's work so a pathological constraint system aborts with
    honest statistics instead of hanging. *)
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

let tables (sch : schedule) (t : int) : thread_tables =
  let ts = sch.threads in
  let i = ref (tid_slot t ts.mask) in
  while Array.unsafe_get ts.keys !i <> t && Array.unsafe_get ts.keys !i >= 0 do
    i := (!i + 1) land ts.mask
  done;
  if Array.unsafe_get ts.keys !i = t then Array.unsafe_get ts.vals !i else no_tables

let rank_at (th : thread_tables) (c : int) : int =
  let i = c - th.base in
  if i >= 0 && i < Array.length th.rank then Array.unsafe_get th.rank i else -1

(** The rank the replay cursor must reach before thread [tid] may take its
    access with counter [c]: the event's own rank if it is constrained
    (exact-rank turn-taking), else one past the rank of the thread's last
    constrained event before it ([pred + 1]; [last + 1] past the thread's
    table, 0 for a thread with none).  Pure, so the VM asks it once per
    counter. *)
let wait_rank (sch : schedule) ~(tid : int) ~(c : int) : int =
  let th = tables sch tid in
  let i = c - th.base in
  if i < 0 then 0
  else if i >= Array.length th.rank then th.last + 1
  else
    let k = Array.unsafe_get th.rank i in
    if k >= 0 then k else Array.unsafe_get th.pred i + 1

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
    let k = rank_at (tables sch tid) c in
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
    let th = tables sch tid in
    rank_at th c < 0 && (not (guarded_site site)) && not (interior th { Loc.obj; fld } c)
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
