(** The interleaved-semantics interpreter (Section 3.1 of the paper).

    One [step] executes one transition of one thread, chosen by a
    {!Sched.t}.  Shared accesses at instrumented sites tick the thread-local
    counter [D(t)] and are reported to the installed hooks; synchronization
    primitives are additionally modeled as ghost-field accesses exactly as in
    Section 4.3 (lock acquire = ghost read + ghost write, release = ghost
    write, spawn/join/exit and wait/notify via thread and condition ghosts).

    Programs are executed in slot-resolved form ({!Lang.Resolve}): locals
    live in a [Value.t array] frame indexed by compile-time slots, field and
    global names are pre-interned integers, and [Loc.t] is a pair of
    immediates — no string hashing or per-access allocation on the hot path.
    Hooks are optional: a native run (all hooks absent) never computes
    pre-events or event records at all.

    Object ids are thread-deterministic: [objid = tid * 1_000_000 + k] where
    [k] is the allocating thread's allocation index, so Assumption 1 (thread
    determinism) covers reference values. *)

open Lang

type crash = {
  tid : int;
  site : int;
  line : int;
  msg : string;
  c : int;  (** D(tid) when the crash occurred *)
}

type status_summary =
  | AllFinished
  | Deadlock of int list   (** blocked thread ids *)
  | GateStuck of int list  (** runnable but denied by the replay gate *)
  | StepLimit

type outcome = {
  status : status_summary;
  steps : int;
  crashes : crash list;
  reads : (int * (int * Value.t) list) list;
      (** per thread: (counter, value) of every non-ghost shared read, in
          program order — the observable of Theorem 1 *)
  outputs : (int * string list) list;  (** per thread: printed lines *)
  counters : (int * int) list;         (** final D(t) per thread *)
  syscalls : (int * int * string * Value.t) list;
      (** (tid, idx, name, value) in per-thread order *)
  final_heap : (Value.objid * (string * Value.t) list) list;
      (** the heap at termination: per object (ascending id), fields sorted
          by name (field ids are rendered back to their original names, so
          this is directly comparable with the reference interpreter).
          Object ids are thread-deterministic, so two runs of the same
          program are comparable.  Used by the differential tests; not a
          Theorem-1 observable (replay may suppress blind writes). *)
  trace : Event.access list;           (** full access trace if requested *)
}

(** How a replay tool admits a thread's next shared access (on the first
    ghost access for compound sync transitions); a denied thread waits. *)
type gate =
  | Rank of { wait : tid:int -> c:int -> int; cursor : int ref }
      (** the pending access [(tid, c)] is admitted once [!cursor >= wait
          ~tid ~c].  [wait] must be pure and [cursor] must only grow (the
          replayer's is the lowest rank not yet executed), so the VM asks
          [wait] once per counter.  A rank-gated run picks round-robin
          among the admitted threads ({!Sched.round_robin_pick}: the first
          admitted thread above the last one picked, else the first
          admitted) and never asks the run's scheduler, so both engines
          replay one interleaving whatever scheduler is passed.  The VM
          picks in one walk of its enabled set.  Runs on both engines. *)
  | Pred of (Event.pre -> bool)
      (** [false] delays the thread: a predicate over the whole pending
          access, asked about every enabled thread at every step.  Tree
          walker only; the VM rejects it with [Invalid_argument]. *)

(** All hooks are optional; [None] lets the interpreter skip the
    corresponding bookkeeping entirely (no pre-event or event-record
    construction on native runs). *)
type hooks = {
  gate : gate option;
  observe : (Event.t -> unit) option;
  on_shared : (tid:int -> c:int -> obj:int -> fld:int -> kind:Event.akind -> site:int
               -> ghost:Event.ghost_kind -> unit) option;
      (** allocation-free variant of [observe] for shared accesses only: the
          arguments arrive as ints and constants (no [Loc.t], no
          [Event.access] record, no [Event.t] constructor, no value), so
          neither engine allocates to call it and a recorder on this hook
          pays zero allocation per access.  Fired on every instrumented
          access, including ghosts, before [observe]. *)
  syscall_override : (tid:int -> idx:int -> name:string -> Value.t option) option;
      (** replay-run substitution of recorded syscall values (Section 3.2) *)
  choose_wakeup : (lock:Value.objid -> waiters:int list -> int) option;
      (** pick which waiter a [notify] wakes; default FIFO *)
  suppress_write : (tid:int -> c:int -> obj:int -> fld:int -> site:int -> bool) option;
      (** replay-run blind-write suppression (Section 4.2): asked about a
          non-ghost write [(tid, c)] to [obj.fld] at [site] before it
          executes; [true] skips the heap update *)
  on_branch : (tid:int -> taken:bool -> unit) option;
      (** every if/while condition evaluation (used by path-recording tools
          such as Clap); may raise to abort the run *)
}

let default_hooks : hooks =
  {
    gate = None;
    observe = None;
    on_shared = None;
    syscall_override = None;
    choose_wakeup = None;
    suppress_write = None;
    on_branch = None;
  }

(* ------------------------------------------------------------------ *)
(* Runtime state                                                       *)
(* ------------------------------------------------------------------ *)

(* Fields are keyed by interned field id (see Loc); names are restored only
   when building [final_heap]. *)
type obj = { cls : string; fields : (int, Value.t) Hashtbl.t }

(* The continuation is a chain of statement sequences rather than a flat
   list: entering a block (if/while/sync body) pushes one [CSeq] node in
   O(1) instead of map-and-appending the whole body.  [todo] walks the
   resolved statement list in place; the invariant (restored by [norm])
   is that an active continuation never starts with an empty [CSeq]. *)
type cont =
  | CDone
  | CSeq of { mutable todo : Resolve.rstmt list; next : cont }
  | CUnlock of Value.objid * int * cont
      (* end of a sync block; sid for attribution *)

let rec norm (c : cont) : cont =
  match c with CSeq { todo = []; next } -> norm next | c -> c

type frame = {
  mutable cont : cont;
  slots : Value.t array;
  ret_to : int option;  (* caller slot receiving the return value *)
}

type tstatus =
  | Runnable
  | BlockedLock of Value.objid
  | BlockedJoin of int
  | InWait of Value.objid
  | Notified of Value.objid     (* woken: must read the condition ghost *)
  | Reacquiring of Value.objid  (* condition read done: must retake the lock *)
  | Finished
  | Crashed

type thread = {
  tid : int;
  mutable frames : frame list;
  mutable status : tstatus;
  mutable held : (Value.objid * int) list;  (* lock -> reentrancy count *)
  mutable wait_restore : int;               (* count to restore after wait *)
  mutable alloc : int;
  mutable d : int;                          (* D(t) *)
  mutable sys_idx : int;
  mutable spawn_idx : int;
  mutable started : bool;
  mutable reads_rev : (int * Value.t) list;
  mutable outputs_rev : string list;
  mutable pre_cache : Event.pre option;
      (* the next shared access, for the replay gate; valid while
         [pre_valid], i.e. until the thread steps or another thread changes
         its status *)
  mutable pre_valid : bool;
}

exception Rt_crash of int * int * string  (* site, line, message *)

(* Reading this sentinel from a slot means the local was never assigned.
   Compared physically, so no program value can collide with it. *)
let unbound : Value.t = VStr "\000unbound\000"

type state = {
  program : Resolve.compiled;
  hooks : hooks;
  shared : bool array;  (* plan.shared_site, pre-queried per sid *)
  heap : (Value.objid, obj) Hashtbl.t;
  threads : (int, thread) Hashtbl.t;
  mutable order : thread array;  (* creation order, for stable iteration *)
  mutable n_threads : int;
  locks : (Value.objid, int * int) Hashtbl.t;  (* lock -> owner tid, count *)
  waitsets : (Value.objid, int Queue.t) Hashtbl.t;  (* FIFO: oldest first *)
  mutable steps : int;
  mutable crashes : crash list;
  mutable syscalls_rev : (int * int * string * Value.t) list;
  mutable trace_rev : Event.access list;
  collect_trace : bool;
  rng : Random.State.t;  (* backs the @rand syscall *)
}

let shared_site st (sid : int) : bool =
  sid >= 0 && sid < Array.length st.shared && Array.unsafe_get st.shared sid

let push_thread st (t : thread) : unit =
  Hashtbl.replace st.threads t.tid t;
  let n = st.n_threads in
  if n = Array.length st.order then begin
    let bigger = Array.make (max 8 (2 * n)) t in
    Array.blit st.order 0 bigger 0 n;
    st.order <- bigger
  end;
  st.order.(n) <- t;
  st.n_threads <- n + 1

(* ------------------------------------------------------------------ *)
(* Heap helpers                                                        *)
(* ------------------------------------------------------------------ *)

let new_obj st (t : thread) (cls : string) : Value.objid =
  t.alloc <- t.alloc + 1;
  let id = (t.tid * 1_000_000) + t.alloc in
  Hashtbl.replace st.heap id { cls; fields = Hashtbl.create 8 };
  id

let heap_read st (l : Loc.t) : Value.t =
  match Hashtbl.find st.heap l.obj with
  | o -> ( match Hashtbl.find o.fields l.fld with v -> v | exception Not_found -> VNull)
  | exception Not_found -> VNull

let heap_write st (l : Loc.t) (v : Value.t) : unit =
  match Hashtbl.find st.heap l.obj with
  | o -> Hashtbl.replace o.fields l.fld v
  | exception Not_found ->
    (* ghost objects (negative ids) are materialized on first write *)
    let o = { cls = "$ghost"; fields = Hashtbl.create 4 } in
    Hashtbl.replace o.fields l.fld v;
    Hashtbl.replace st.heap l.obj o

(* ------------------------------------------------------------------ *)
(* Expression evaluation (pure: slots and constants only)              *)
(* ------------------------------------------------------------------ *)

let crash site line fmt = Printf.ksprintf (fun m -> raise (Rt_crash (site, line, m))) fmt

open Resolve

let rec eval (s : rstmt) (slots : Value.t array) (e : rexpr) : Value.t =
  match e with
  | RInt n -> VInt n
  | RBool b -> VBool b
  | RNull -> VNull
  | RStr str -> VStr str
  | RVar (i, x) ->
    let v = Array.unsafe_get slots i in
    if v == unbound then crash s.rsid s.rline "unbound local variable %s" x else v
  | RUnop (Not, a) -> (
    match eval s slots a with
    | VBool b -> VBool (not b)
    | v -> crash s.rsid s.rline "! applied to %s" (Value.to_string v))
  | RUnop (Neg, a) -> (
    match eval s slots a with
    | VInt n -> VInt (-n)
    | v -> crash s.rsid s.rline "unary - applied to %s" (Value.to_string v))
  | RBinop (op, a, b) -> eval_binop s slots op a b

and eval_binop s slots op a b : Value.t =
  let open Value in
  match op with
  | Ast.And -> (
    match eval s slots a with
    | VBool false -> VBool false
    | VBool true -> (
      match eval s slots b with
      | VBool v -> VBool v
      | v -> crash s.rsid s.rline "&& applied to %s" (to_string v))
    | v -> crash s.rsid s.rline "&& applied to %s" (to_string v))
  | Or -> (
    match eval s slots a with
    | VBool true -> VBool true
    | VBool false -> (
      match eval s slots b with
      | VBool v -> VBool v
      | v -> crash s.rsid s.rline "|| applied to %s" (to_string v))
    | v -> crash s.rsid s.rline "|| applied to %s" (to_string v))
  | Eq -> VBool (Value.equal (eval s slots a) (eval s slots b))
  | Ne -> VBool (not (Value.equal (eval s slots a) (eval s slots b)))
  | _ -> (
    let va = eval s slots a and vb = eval s slots b in
    match op, va, vb with
    | Add, VInt x, VInt y -> VInt (x + y)
    | Add, VStr x, VStr y -> VStr (x ^ y)
    | Sub, VInt x, VInt y -> VInt (x - y)
    | Mul, VInt x, VInt y -> VInt (x * y)
    | Div, VInt _, VInt 0 -> crash s.rsid s.rline "division by zero"
    | Div, VInt x, VInt y -> VInt (x / y)
    | Mod, VInt _, VInt 0 -> crash s.rsid s.rline "modulo by zero"
    | Mod, VInt x, VInt y -> VInt (x mod y)
    | Lt, VInt x, VInt y -> VBool (x < y)
    | Le, VInt x, VInt y -> VBool (x <= y)
    | Gt, VInt x, VInt y -> VBool (x > y)
    | Ge, VInt x, VInt y -> VBool (x >= y)
    | _ ->
      crash s.rsid s.rline "type error: %s %s %s" (to_string va)
        (Pp.binop_str op) (to_string vb))

let eval_bool (s : rstmt) slots e : bool =
  match eval s slots e with
  | VBool b -> b
  | v -> crash s.rsid s.rline "expected boolean, got %s" (Value.to_string v)

let eval_ref (s : rstmt) slots e : Value.objid =
  match eval s slots e with
  | VRef o -> o
  | VNull -> crash s.rsid s.rline "null dereference"
  | v -> crash s.rsid s.rline "expected object reference, got %s" (Value.to_string v)

(* ------------------------------------------------------------------ *)
(* Shared-access bookkeeping                                           *)
(* ------------------------------------------------------------------ *)

(* Tick D(t); build the access record only if someone will look at it. *)
let access st (t : thread) ~(loc : Loc.t) ~(kind : Event.akind) ~(site : int)
    ~(ghost : Event.ghost_kind) (value : Value.t) : unit =
  t.d <- t.d + 1;
  (match kind, ghost with
  | Read, NotGhost -> t.reads_rev <- (t.d, value) :: t.reads_rev
  | _ -> ());
  if st.collect_trace then
    st.trace_rev <- { Event.tid = t.tid; c = t.d; loc; kind; site; ghost } :: st.trace_rev;
  (match st.hooks.on_shared with
  | None -> ()
  | Some f -> f ~tid:t.tid ~c:t.d ~obj:loc.obj ~fld:loc.fld ~kind ~site ~ghost);
  match st.hooks.observe with
  | None -> ()
  | Some f -> f (Access ({ Event.tid = t.tid; c = t.d; loc; kind; site; ghost }, value))

(* The pre-event of the next shared access the thread will perform, for the
   gate.  Counter value is what the access *will* get. *)
let pre_of (t : thread) ~loc ~kind ~site ~ghost : Event.pre =
  { Event.tid = t.tid; c = t.d + 1; loc; kind; site; ghost }

(* ------------------------------------------------------------------ *)
(* Lock primitives                                                     *)
(* ------------------------------------------------------------------ *)

let lock_free_or_mine st (t : thread) (m : Value.objid) : bool =
  match Hashtbl.find_opt st.locks m with
  | None -> true
  | Some (owner, _) -> owner = t.tid

let do_acquire st (t : thread) (m : Value.objid) ~(site : int) : unit =
  (match Hashtbl.find_opt st.locks m with
  | None -> Hashtbl.replace st.locks m (t.tid, 1)
  | Some (owner, n) ->
    assert (owner = t.tid);
    Hashtbl.replace st.locks m (t.tid, n + 1));
  (match List.assoc_opt m t.held with
  | None -> t.held <- (m, 1) :: t.held
  | Some n -> t.held <- (m, n + 1) :: List.remove_assoc m t.held);
  let l = Loc.lock_ghost m in
  access st t ~loc:l ~kind:Read ~site ~ghost:LockAcqRead (heap_read st l);
  let v = Value.VInt t.tid in
  heap_write st l v;
  access st t ~loc:l ~kind:Write ~site ~ghost:LockAcqWrite v

let do_release st (t : thread) (m : Value.objid) ~(site : int) ~(ghost : Event.ghost_kind)
    ~(full : bool) : unit =
  match Hashtbl.find_opt st.locks m with
  | Some (owner, n) when owner = t.tid ->
    let remaining = if full then 0 else n - 1 in
    if remaining = 0 then Hashtbl.remove st.locks m
    else Hashtbl.replace st.locks m (t.tid, remaining);
    (if full || remaining = 0 then t.held <- List.remove_assoc m t.held
     else t.held <- (m, remaining) :: List.remove_assoc m t.held);
    let l = Loc.lock_ghost m in
    let v = Value.VInt (-t.tid - 1) in
    heap_write st l v;
    access st t ~loc:l ~kind:Write ~site ~ghost v
  | _ -> raise (Rt_crash (site, 0, "unlock of a lock not held"))

(* ------------------------------------------------------------------ *)
(* Enabledness                                                         *)
(* ------------------------------------------------------------------ *)

(* What shared access (if any) does the thread perform next?  Only
   computed for a [Pred] gate (the baselines' replays).  Pure evaluation
   may crash; in that case we report no access so the thread runs and
   crashes properly. *)
let next_pre st (t : thread) : Event.pre option =
  let shared site = shared_site st site in
  match t.status with
  | Notified m ->
    Some (pre_of t ~loc:(Loc.cond_ghost m) ~kind:Read ~site:0 ~ghost:WaitCondRead)
  | Reacquiring m ->
    Some (pre_of t ~loc:(Loc.lock_ghost m) ~kind:Read ~site:0 ~ghost:WaitReacqRead)
  | Runnable | BlockedLock _ | BlockedJoin _ -> (
    if not t.started then
      Some
        (pre_of t ~loc:(Loc.thread_ghost t.tid) ~kind:Read ~site:0 ~ghost:ThreadFirstRead)
    else
      match t.frames with
      | [] -> (* next transition is the exit ghost write *)
        Some
          (pre_of t ~loc:(Loc.thread_ghost t.tid) ~kind:Write ~site:0 ~ghost:ThreadExitWrite)
      | { cont = CDone; _ } :: _ | { cont = CSeq { todo = []; _ }; _ } :: _ -> None
      | { cont = CUnlock (m, sid, _); _ } :: _ ->
        Some (pre_of t ~loc:(Loc.lock_ghost m) ~kind:Write ~site:sid ~ghost:LockRelWrite)
      | ({ cont = CSeq { todo = s :: _; _ }; slots; _ } :: _) -> (
        let e x = eval s slots x in
        try
          match s.rnode with
          | RLoad (_, o, f) when shared s.rsid ->
            Some (pre_of t ~loc:(Loc.field_id (eval_ref s slots o) f) ~kind:Read ~site:s.rsid ~ghost:NotGhost)
          | RStore (o, f, _) when shared s.rsid ->
            Some (pre_of t ~loc:(Loc.field_id (eval_ref s slots o) f) ~kind:Write ~site:s.rsid ~ghost:NotGhost)
          | RLoadIdx (_, a, i) when shared s.rsid -> (
            match e a, e i with
            | VRef o, VInt n -> Some (pre_of t ~loc:(Loc.elem o n) ~kind:Read ~site:s.rsid ~ghost:NotGhost)
            | _ -> None)
          | RStoreIdx (a, i, _) when shared s.rsid -> (
            match e a, e i with
            | VRef o, VInt n -> Some (pre_of t ~loc:(Loc.elem o n) ~kind:Write ~site:s.rsid ~ghost:NotGhost)
            | _ -> None)
          | RGlobalLoad (_, g) when shared s.rsid ->
            Some (pre_of t ~loc:(Loc.global_id g) ~kind:Read ~site:s.rsid ~ghost:NotGhost)
          | RGlobalStore (g, _) when shared s.rsid ->
            Some (pre_of t ~loc:(Loc.global_id g) ~kind:Write ~site:s.rsid ~ghost:NotGhost)
          | RMapGet (_, m, k) when shared s.rsid ->
            Some (pre_of t ~loc:(Loc.mapkey (eval_ref s slots m) (e k)) ~kind:Read ~site:s.rsid ~ghost:NotGhost)
          | RMapHas (_, m, k) when shared s.rsid ->
            Some (pre_of t ~loc:(Loc.mapkey (eval_ref s slots m) (e k)) ~kind:Read ~site:s.rsid ~ghost:NotGhost)
          | RMapPut (m, k, _) when shared s.rsid ->
            Some (pre_of t ~loc:(Loc.mapkey (eval_ref s slots m) (e k)) ~kind:Write ~site:s.rsid ~ghost:NotGhost)
          | RSync (m, _) | RLock m ->
            Some (pre_of t ~loc:(Loc.lock_ghost (eval_ref s slots m)) ~kind:Read ~site:s.rsid ~ghost:LockAcqRead)
          | RUnlock m ->
            Some (pre_of t ~loc:(Loc.lock_ghost (eval_ref s slots m)) ~kind:Write ~site:s.rsid ~ghost:LockRelWrite)
          | RWait m ->
            Some (pre_of t ~loc:(Loc.lock_ghost (eval_ref s slots m)) ~kind:Write ~site:s.rsid ~ghost:WaitRelWrite)
          | RNotify m | RNotifyAll m ->
            Some (pre_of t ~loc:(Loc.cond_ghost (eval_ref s slots m)) ~kind:Write ~site:s.rsid ~ghost:NotifyWrite)
          | RSpawn _ ->
            (* the child's ghost id depends on the fresh tid *)
            let child = (t.tid * 100) + t.spawn_idx + 1 in
            Some (pre_of t ~loc:(Loc.thread_ghost child) ~kind:Write ~site:s.rsid ~ghost:SpawnWrite)
          | RJoin h -> (
            match e h with
            | VThread target ->
              Some (pre_of t ~loc:(Loc.thread_ghost target) ~kind:Read ~site:s.rsid ~ghost:JoinRead)
            | _ -> None)
          | _ -> None
        with Rt_crash _ -> None))
  | InWait _ | Finished | Crashed -> None

(* Is the thread able to take a transition right now (ignoring the gate)? *)
let semantically_enabled st (t : thread) : bool =
  match t.status with
  | Finished | Crashed | InWait _ -> false
  | Notified _ -> true  (* the condition-ghost read can always proceed *)
  | Reacquiring m -> lock_free_or_mine st t m
  | BlockedLock m -> lock_free_or_mine st t m
  | BlockedJoin target -> (
    match Hashtbl.find_opt st.threads target with
    | Some tt -> tt.status = Finished || tt.status = Crashed
    | None -> true)
  | Runnable -> (
    (* peek for blocking statements; only the sync/join head expressions can
       crash, so the handler is set up only on those branches *)
    if not t.started then true
    else
      match t.frames with
      | ({ cont = CSeq { todo = s :: _; _ }; slots; _ } :: _) -> (
        match s.rnode with
        | RSync (m, _) | RLock m -> (
          try lock_free_or_mine st t (eval_ref s slots m) with Rt_crash _ -> true)
        | RJoin h -> (
          try
            match eval s slots h with
            | VThread target -> (
              match Hashtbl.find_opt st.threads target with
              | Some tt -> tt.status = Finished || tt.status = Crashed
              | None -> true)
            | _ -> true (* will crash when stepped *)
          with Rt_crash _ -> true)
        | _ -> true)
      | _ -> true)

(* Does the thread's next transition make a shared access?  The VM's
   [access_at] rule, so a rank gate admits the same threads on both
   engines: a statement whose address does not evaluate waits too (it
   crashes when stepped, and the crash's exit write is its access). *)
let makes_access st (t : thread) : bool =
  match t.status with
  | Notified _ | Reacquiring _ -> true
  | Runnable | BlockedLock _ | BlockedJoin _ -> (
    (not t.started)
    ||
    match t.frames with
    | [] | { cont = CUnlock _; _ } :: _ -> true
    | { cont = CSeq { todo = s :: _; _ }; _ } :: _ -> (
      match s.rnode with
      | RLoad _ | RStore _ | RLoadIdx _ | RStoreIdx _ | RGlobalLoad _ | RGlobalStore _
      | RMapGet _ | RMapHas _ | RMapPut _ ->
        shared_site st s.rsid
      | RSync _ | RLock _ | RUnlock _ | RWait _ | RNotify _ | RNotifyAll _ | RSpawn _
      | RJoin _ ->
        true
      | _ -> false)
    | _ -> false)
  | InWait _ | Finished | Crashed -> false

(* [next_pre] reads only the thread's own frames, slots, counters and
   status, so its answer is cached until one of them changes. *)
let gate_allows st (t : thread) : bool =
  match st.hooks.gate with
  | None -> true
  | Some (Rank { wait; cursor }) ->
    (not (makes_access st t)) || !cursor >= wait ~tid:t.tid ~c:(t.d + 1)
  | Some (Pred p) -> (
    if not t.pre_valid then begin
      t.pre_cache <- next_pre st t;
      t.pre_valid <- true
    end;
    match t.pre_cache with None -> true | Some pre -> p pre)

(* ------------------------------------------------------------------ *)
(* Stepping                                                            *)
(* ------------------------------------------------------------------ *)

let current_frame (t : thread) : frame = List.hd t.frames

let set_local (t : thread) (slot : int) (v : Value.t) : unit =
  (current_frame t).slots.(slot) <- v

(* Advance past the current statement.  Mutates the head [CSeq] in place;
   no allocation unless the sequence is exhausted. *)
let pop_stmt (t : thread) : unit =
  let f = current_frame t in
  match f.cont with
  | CSeq r -> (
    match r.todo with
    | _ :: ((_ :: _) as rest) -> r.todo <- rest
    | _ -> f.cont <- norm r.next)
  | _ -> assert false

(* Perform a shared or local heap read; instrumented sites tick and emit. *)
let do_read st (t : thread) (s : rstmt) (loc : Loc.t) : Value.t =
  let v = heap_read st loc in
  if shared_site st s.rsid then
    access st t ~loc ~kind:Read ~site:s.rsid ~ghost:NotGhost v;
  v

let do_write st (t : thread) (s : rstmt) (loc : Loc.t) (v : Value.t) : unit =
  if shared_site st s.rsid then begin
    (match st.hooks.suppress_write with
    | None -> heap_write st loc v
    | Some suppress ->
      if not (suppress ~tid:t.tid ~c:(t.d + 1) ~obj:loc.obj ~fld:loc.fld ~site:s.rsid) then
        heap_write st loc v);
    access st t ~loc ~kind:Write ~site:s.rsid ~ghost:NotGhost v
  end
  else heap_write st loc v

(* Site/line-parameterized (rather than taking the statement record) so
   the bytecode VM shares these semantics verbatim. *)
let opaque_op ~(site : int) ~(line : int) (name : string) (args : Value.t list) :
    Value.t =
  let module V = Value in
  let int1 = function [ V.VInt n ] -> n | _ -> crash site line "#%s: expected int" name in
  if String.length name >= 2 && String.sub name 0 2 = "__" then V.VNull
    (* woven instrumentation pseudo-hooks are no-ops when executed directly *)
  else
  match name, args with
  | "hash", [ v ] ->
    let s = V.map_key v in
    let h = ref 17 in
    String.iter (fun ch -> h := (!h * 31) + Char.code ch) s;
    VInt (!h land 0x3FFFFFFF)
  | "strlen", [ V.VStr s ] -> VInt (String.length s)
  | "strcat", [ V.VStr a; V.VStr b ] -> VStr (a ^ b)
  | "str_index", [ V.VStr s; V.VStr sub ] ->
    let n = String.length s and m = String.length sub in
    let rec find i = if i + m > n then -1 else if String.sub s i m = sub then i else find (i + 1) in
    VInt (if m = 0 then 0 else find 0)
  | "to_str", [ v ] -> VStr (V.to_string v)
  | "crc", _ ->
    let n = int1 args in
    let x = n lxor (n lsl 13) in
    let x = x lxor (x asr 7) in
    VInt ((x lxor (x lsl 17)) land 0x3FFFFFFF)
  | "mix", [ V.VInt a; V.VInt b ] -> VInt (((a * a) + (b * b) + (a * b)) land 0x3FFFFFFF)
  | "floor_sqrt", _ ->
    let n = int1 args in
    if n < 0 then crash site line "#floor_sqrt of negative"
    else VInt (int_of_float (sqrt (float_of_int n)))
  | _ -> crash site line "unknown opaque operation #%s" name

let syscall_builtin ~(override : (tid:int -> idx:int -> name:string -> Value.t option) option)
    ~(steps : int) ~(tid : int) ~(sys_idx : int) ~(rng : Random.State.t) ~(site : int)
    ~(line : int) (name : string) (args : Value.t list) : Value.t =
  let overridden =
    match override with None -> None | Some f -> f ~tid ~idx:sys_idx ~name
  in
  match overridden with
  | Some v -> v
  | None -> (
    match name, args with
    | "time", [] -> VInt (steps / 10)
    | "nanotime", [] -> VInt ((steps * 1000) + (tid * 7))
    | "rand", [ VInt n ] when n > 0 -> VInt (Random.State.int rng n)
    | "rand", [] -> VInt (Random.State.int rng 1_000_000)
    | "read_input", [] -> VInt (Random.State.int rng 100)
    | _ -> crash site line "bad syscall @%s" name)

let syscall_value st (t : thread) (s : rstmt) (name : string) (args : Value.t list) :
    Value.t =
  syscall_builtin ~override:st.hooks.syscall_override ~steps:st.steps ~tid:t.tid
    ~sys_idx:t.sys_idx ~rng:st.rng ~site:s.rsid ~line:s.rline name args

let fifo_pop st (m : Value.objid) : int option =
  match Hashtbl.find_opt st.waitsets m with
  | None -> None
  | Some q -> if Queue.is_empty q then None else Some (Queue.pop q)

let pick_wakeup st (m : Value.objid) : int option =
  match st.hooks.choose_wakeup with
  | None -> fifo_pop st m
  | Some f -> (
    match Hashtbl.find_opt st.waitsets m with
    | None -> None
    | Some q when Queue.is_empty q -> None
    | Some q ->
      let waiters = List.rev (Queue.fold (fun acc x -> x :: acc) [] q) in
      let w = f ~lock:m ~waiters in
      Queue.clear q;
      List.iter (fun x -> if x <> w then Queue.push x q) waiters;
      Some w)

let wake st (w : int) (m : Value.objid) : unit =
  let wt = Hashtbl.find st.threads w in
  wt.status <- Notified m;
  wt.pre_valid <- false

let observe_event st (ev : Event.t) : unit =
  match st.hooks.observe with None -> () | Some f -> f ev

(* Thread exit: emit the exit ghost write and release any held locks. *)
let finish_thread st (t : thread) ~(crashed : bool) : unit =
  List.iter (fun (m, _) -> do_release st t m ~site:0 ~ghost:LockRelWrite ~full:true) t.held;
  let l = Loc.thread_ghost t.tid in
  let v = Value.VInt t.tid in
  heap_write st l v;
  access st t ~loc:l ~kind:Write ~site:0 ~ghost:ThreadExitWrite v;
  t.status <- (if crashed then Crashed else Finished);
  observe_event st (ThreadFinished { tid = t.tid })

let make_thread ~tid ~frames : thread =
  {
    tid;
    frames;
    status = Runnable;
    held = [];
    wait_restore = 0;
    alloc = 0;
    d = 0;
    sys_idx = 0;
    spawn_idx = 0;
    started = false;
    reads_rev = [];
    outputs_rev = [];
    pre_cache = None;
    pre_valid = false;
  }

let new_frame (fn : rfn) ~(ret_to : int option) : frame =
  {
    cont =
      (match fn.rf_body with
      | [] -> CDone
      | body -> CSeq { todo = body; next = CDone });
    slots = Array.make fn.rf_frame unbound;
    ret_to;
  }

(* Bind call arguments into parameter slots 0..n-1.  Arity mismatches are a
   static error; unvalidated programs fail here the same way the seed's
   [List.iter2] binding did. *)
let bind_args (fn : rfn) (vals : Value.t list) (slots : Value.t array) : unit =
  if List.length vals <> fn.rf_nparams then invalid_arg "List.iter2";
  List.iteri (fun i v -> slots.(i) <- v) vals

let spawn_thread st (parent : thread) (s : rstmt) (fidx : int) (fname : string)
    (args : Value.t list) : int =
  if fidx < 0 then crash s.rsid s.rline "spawn of undefined function %s" fname;
  let fd = st.program.cp_fns.(fidx) in
  parent.spawn_idx <- parent.spawn_idx + 1;
  if parent.spawn_idx > 99 then crash s.rsid s.rline "spawn limit (99 per thread) exceeded";
  let tid = (parent.tid * 100) + parent.spawn_idx in
  let f = new_frame fd ~ret_to:None in
  bind_args fd args f.slots;
  let th = make_thread ~tid ~frames:[ f ] in
  push_thread st th;
  (* parent writes the child's thread ghost (Section 4.3) *)
  let l = Loc.thread_ghost tid in
  let v = Value.VThread tid in
  heap_write st l v;
  access st parent ~loc:l ~kind:Write ~site:s.rsid ~ghost:SpawnWrite v;
  observe_event st (ThreadSpawned { parent = parent.tid; child = tid });
  tid

(* Execute one transition of thread [t].  Assumes semantically enabled and
   gate-approved. *)
let rec step_thread st (t : thread) : unit =
  if not t.started then begin
    t.started <- true;
    let l = Loc.thread_ghost t.tid in
    access st t ~loc:l ~kind:Read ~site:0 ~ghost:ThreadFirstRead (heap_read st l)
  end
  else
    match t.status with
    | Notified m ->
      (* wait_after, part 1: read the condition ghost (pairing the notify) *)
      let cl = Loc.cond_ghost m in
      access st t ~loc:cl ~kind:Read ~site:0 ~ghost:WaitCondRead (heap_read st cl);
      t.status <- Reacquiring m
    | Reacquiring m ->
      (* wait_after, part 2: retake the monitor *)
      let ll = Loc.lock_ghost m in
      access st t ~loc:ll ~kind:Read ~site:0 ~ghost:WaitReacqRead (heap_read st ll);
      Hashtbl.replace st.locks m (t.tid, t.wait_restore);
      t.held <- (m, t.wait_restore) :: t.held;
      t.wait_restore <- 0;
      let v = Value.VInt t.tid in
      heap_write st ll v;
      access st t ~loc:ll ~kind:Write ~site:0 ~ghost:WaitReacqWrite v;
      t.status <- Runnable
    | BlockedLock _ | BlockedJoin _ | Runnable -> (
      t.status <- Runnable;
      match t.frames with
      | [] -> finish_thread st t ~crashed:false
      | ({ cont = CDone; ret_to; _ } :: rest | { cont = CSeq { todo = []; _ }; ret_to; _ } :: rest)
        ->
        (* implicit return *)
        t.frames <- rest;
        (match rest, ret_to with
        | caller :: _, Some x -> caller.slots.(x) <- VNull
        | _ -> ())
      | ({ cont = CUnlock (m, sid, k); _ } as f) :: _ ->
        f.cont <- k;
        do_release st t m ~site:sid ~ghost:LockRelWrite ~full:false
      | ({ cont = CSeq { todo = s :: _; _ }; slots; _ } :: _) -> exec_stmt st t s slots)
    | InWait _ | Finished | Crashed -> assert false

and exec_stmt st (t : thread) (s : rstmt) (slots : Value.t array) : unit =
  match s.rnode with
  | RNop | RYield -> pop_stmt t
  | RAssign (x, v) ->
    let v = eval s slots v in
    pop_stmt t;
    set_local t x v
  | RLoad (x, o, f) ->
    let loc = Loc.field_id (eval_ref s slots o) f in
    pop_stmt t;
    set_local t x (do_read st t s loc)
  | RStore (o, f, v) ->
    let loc = Loc.field_id (eval_ref s slots o) f in
    let v = eval s slots v in
    pop_stmt t;
    do_write st t s loc v
  | RLoadIdx (x, a, i) -> (
    match eval s slots a, eval s slots i with
    | VRef o, VInt n ->
      let len =
        match heap_read st (Loc.field_id o Loc.len_fld) with VInt l -> l | _ -> 0
      in
      if n < 0 || n >= len then crash s.rsid s.rline "array index %d out of bounds (len %d)" n len;
      pop_stmt t;
      set_local t x (do_read st t s (Loc.elem o n))
    | VNull, _ -> crash s.rsid s.rline "null dereference"
    | va, vi ->
      crash s.rsid s.rline "bad array access %s[%s]" (Value.to_string va) (Value.to_string vi))
  | RStoreIdx (a, i, v) -> (
    match eval s slots a, eval s slots i with
    | VRef o, VInt n ->
      let len =
        match heap_read st (Loc.field_id o Loc.len_fld) with VInt l -> l | _ -> 0
      in
      if n < 0 || n >= len then crash s.rsid s.rline "array index %d out of bounds (len %d)" n len;
      let v = eval s slots v in
      pop_stmt t;
      do_write st t s (Loc.elem o n) v
    | VNull, _ -> crash s.rsid s.rline "null dereference"
    | va, _ -> crash s.rsid s.rline "bad array store into %s" (Value.to_string va))
  | RGlobalLoad (x, g) ->
    pop_stmt t;
    set_local t x (do_read st t s (Loc.global_id g))
  | RGlobalStore (g, v) ->
    let v = eval s slots v in
    pop_stmt t;
    do_write st t s (Loc.global_id g) v
  | RNew (x, cls, fids) ->
    pop_stmt t;
    let id = new_obj st t cls in
    (* initialize declared fields to null: Java-like default initialization;
       these writes are thread-local (the object is unescaped) *)
    Array.iter (fun f -> heap_write st (Loc.field_id id f) VNull) fids;
    set_local t x (VRef id)
  | RNewArray (x, n) -> (
    match eval s slots n with
    | VInt len when len >= 0 ->
      pop_stmt t;
      let id = new_obj st t "[]" in
      heap_write st (Loc.field_id id Loc.len_fld) (VInt len);
      for i = 0 to len - 1 do
        heap_write st (Loc.elem id i) (VInt 0)
      done;
      set_local t x (VRef id)
    | v -> crash s.rsid s.rline "bad array length %s" (Value.to_string v))
  | RNewMap x ->
    pop_stmt t;
    let id = new_obj st t "map" in
    set_local t x (VRef id)
  | RMapGet (x, m, k) ->
    let loc = Loc.mapkey (eval_ref s slots m) (eval s slots k) in
    pop_stmt t;
    set_local t x (do_read st t s loc)
  | RMapPut (m, k, v) ->
    let loc = Loc.mapkey (eval_ref s slots m) (eval s slots k) in
    let v = eval s slots v in
    pop_stmt t;
    do_write st t s loc v
  | RMapHas (x, m, k) ->
    let loc = Loc.mapkey (eval_ref s slots m) (eval s slots k) in
    pop_stmt t;
    let v = do_read st t s loc in
    set_local t x (VBool (v <> VNull))
  | RIf (c, b1, b2) ->
    let cond = eval_bool s slots c in
    (match st.hooks.on_branch with None -> () | Some f -> f ~tid:t.tid ~taken:cond);
    pop_stmt t;
    let f = current_frame t in
    (match if cond then b1 else b2 with
    | [] -> ()
    | body -> f.cont <- CSeq { todo = body; next = f.cont })
  | RWhile (c, b) ->
    let cond = eval_bool s slots c in
    (match st.hooks.on_branch with None -> () | Some f -> f ~tid:t.tid ~taken:cond);
    let f = current_frame t in
    if cond then (
      (* the RWhile stays at the head of the outer sequence: after the body
         runs, control falls back to the condition (empty bodies respin on
         the condition itself, as the flat-list semantics did) *)
      match b with
      | [] -> ()
      | body -> f.cont <- CSeq { todo = body; next = f.cont })
    else pop_stmt t
  | RCall (ret, fidx, fname, args) ->
    if fidx < 0 then crash s.rsid s.rline "call to undefined function %s" fname;
    let fd = st.program.cp_fns.(fidx) in
    let vals = List.map (eval s slots) args in
    pop_stmt t;
    let f = new_frame fd ~ret_to:ret in
    bind_args fd vals f.slots;
    t.frames <- f :: t.frames
  | RReturn v -> (
    let rv = match v with Some x -> eval s slots x | None -> VNull in
    match t.frames with
    | { ret_to; _ } :: rest ->
      t.frames <- rest;
      (match rest, ret_to with
      | caller :: _, Some x -> caller.slots.(x) <- rv
      | _ -> ())
    | [] -> assert false)
  | RSpawn (h, fidx, fname, args) ->
    let vals = List.map (eval s slots) args in
    pop_stmt t;
    let tid = spawn_thread st t s fidx fname vals in
    set_local t h (VThread tid)
  | RJoin hexpr -> (
    match eval s slots hexpr with
    | VThread target -> (
      match Hashtbl.find_opt st.threads target with
      | Some tt when tt.status = Finished || tt.status = Crashed ->
        pop_stmt t;
        let l = Loc.thread_ghost target in
        access st t ~loc:l ~kind:Read ~site:s.rsid ~ghost:JoinRead (heap_read st l)
      | Some _ -> t.status <- BlockedJoin target
      | None -> crash s.rsid s.rline "join of unknown thread %d" target)
    | v -> crash s.rsid s.rline "join of non-thread %s" (Value.to_string v))
  | RSync (m, body) ->
    let mo = eval_ref s slots m in
    if lock_free_or_mine st t mo then begin
      pop_stmt t;
      let f = current_frame t in
      let after = CUnlock (mo, s.rsid, f.cont) in
      (f.cont <-
         (match body with [] -> after | body -> CSeq { todo = body; next = after }));
      do_acquire st t mo ~site:s.rsid
    end
    else t.status <- BlockedLock mo
  | RLock m ->
    let mo = eval_ref s slots m in
    if lock_free_or_mine st t mo then begin
      pop_stmt t;
      do_acquire st t mo ~site:s.rsid
    end
    else t.status <- BlockedLock mo
  | RUnlock m ->
    let mo = eval_ref s slots m in
    pop_stmt t;
    (match Hashtbl.find_opt st.locks mo with
    | Some (owner, _) when owner = t.tid ->
      do_release st t mo ~site:s.rsid ~ghost:LockRelWrite ~full:false
    | _ -> crash s.rsid s.rline "unlock of a lock not held")
  | RWait m -> (
    let mo = eval_ref s slots m in
    match Hashtbl.find_opt st.locks mo with
    | Some (owner, n) when owner = t.tid ->
      pop_stmt t;
      (* wait_before: fully release the monitor *)
      t.wait_restore <- n;
      do_release st t mo ~site:s.rsid ~ghost:WaitRelWrite ~full:true;
      t.status <- InWait mo;
      let q =
        match Hashtbl.find_opt st.waitsets mo with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.replace st.waitsets mo q;
          q
      in
      Queue.push t.tid q
    | _ -> crash s.rsid s.rline "wait without holding the monitor")
  | RNotify m -> (
    let mo = eval_ref s slots m in
    match Hashtbl.find_opt st.locks mo with
    | Some (owner, _) when owner = t.tid ->
      pop_stmt t;
      let cl = Loc.cond_ghost mo in
      let v = Value.VInt t.tid in
      heap_write st cl v;
      access st t ~loc:cl ~kind:Write ~site:s.rsid ~ghost:NotifyWrite v;
      (match pick_wakeup st mo with Some w -> wake st w mo | None -> ())
    | _ -> crash s.rsid s.rline "notify without holding the monitor")
  | RNotifyAll m -> (
    let mo = eval_ref s slots m in
    match Hashtbl.find_opt st.locks mo with
    | Some (owner, _) when owner = t.tid ->
      pop_stmt t;
      let cl = Loc.cond_ghost mo in
      let v = Value.VInt t.tid in
      heap_write st cl v;
      access st t ~loc:cl ~kind:Write ~site:s.rsid ~ghost:NotifyWrite v;
      let rec drain () =
        match fifo_pop st mo with
        | Some w -> wake st w mo; drain ()
        | None -> ()
      in
      drain ()
    | _ -> crash s.rsid s.rline "notifyAll without holding the monitor")
  | RAssert c ->
    let v = eval_bool s slots c in
    if not v then crash s.rsid s.rline "assertion failed";
    pop_stmt t
  | RPrint v ->
    let str = Value.to_string (eval s slots v) in
    pop_stmt t;
    t.outputs_rev <- str :: t.outputs_rev
  | RSyscall (x, name, args) ->
    let vals = List.map (eval s slots) args in
    let v = syscall_value st t s name vals in
    st.syscalls_rev <- (t.tid, t.sys_idx, name, v) :: st.syscalls_rev;
    observe_event st (SyscallEvent { tid = t.tid; idx = t.sys_idx; name; value = v });
    t.sys_idx <- t.sys_idx + 1;
    pop_stmt t;
    set_local t x v
  | ROpaque (x, name, args) ->
    let vals = List.map (eval s slots) args in
    let v = opaque_op ~site:s.rsid ~line:s.rline name vals in
    pop_stmt t;
    set_local t x v

(* ------------------------------------------------------------------ *)
(* Run loop                                                            *)
(* ------------------------------------------------------------------ *)

type compiled = Resolve.compiled

let compile : Ast.program -> compiled = Resolve.compile

(* Assemble the outcome record from a finished state. *)
let outcome_of_state (st : state) (status : status_summary) : outcome =
  let per_thread f = List.init st.n_threads (fun i -> (st.order.(i).tid, f st.order.(i))) in
  {
    status;
    steps = st.steps;
    crashes = List.rev st.crashes;
    reads = per_thread (fun t -> List.rev t.reads_rev);
    outputs = per_thread (fun t -> List.rev t.outputs_rev);
    counters = per_thread (fun t -> t.d);
    syscalls = List.rev st.syscalls_rev;
    final_heap =
      Hashtbl.fold (fun id (o : obj) acc -> (id, o) :: acc) st.heap []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      |> List.map (fun (id, o) ->
             ( id,
               Hashtbl.fold (fun f v acc -> (Loc.fld_name f, v) :: acc) o.fields []
               |> List.sort compare ));
    trace = List.rev st.trace_rev;
  }

(** Run [cp] from its initial state (globals object, main thread, seeded
    RNG) until termination or [max_steps].  Pausing, checkpointing and
    resuming a run (epoch recording) are the VM's job ({!Vm.run_state}). *)
let run_compiled ?(hooks = default_hooks) ?(plan = Plan.all_shared) ?(max_steps = 5_000_000)
    ?(collect_trace = false) ?(seed = 0) ~(sched : Sched.t) (cp : compiled) : outcome =
  let shared = Array.init (cp.cp_max_sid + 1) (fun sid -> plan.Plan.shared_site sid) in
  let st =
    {
      program = cp;
      hooks;
      shared;
      heap = Hashtbl.create 1024;
      threads = Hashtbl.create 16;
      order = [||];
      n_threads = 0;
      locks = Hashtbl.create 16;
      waitsets = Hashtbl.create 16;
      steps = 0;
      crashes = [];
      syscalls_rev = [];
      trace_rev = [];
      collect_trace;
      rng = Random.State.make [| seed; 0x5EED |];
    }
  in
  (* the globals root object *)
  Hashtbl.replace st.heap 0 { cls = "$globals"; fields = Hashtbl.create 16 };
  Array.iter (fun g -> heap_write st (Loc.global_id g) VNull) cp.cp_globals;
  let main_thread = make_thread ~tid:1 ~frames:[ new_frame cp.cp_main ~ret_to:None ] in
  main_thread.started <- true;  (* main has no spawn ghost to read *)
  push_thread st main_thread;
  let gated = st.hooks.gate <> None in
  let ranked = match st.hooks.gate with Some (Rank _) -> true | _ -> false in
  let last_pick = ref (-1) in  (* a rank-gated run's previous pick *)
  let finished = ref false in
  let status = ref AllFinished in
  while not !finished do
    (* one backwards walk of the creation-order vector: the accumulated list
       comes out in creation order, exactly as the seed's list-filter
       construction did.  The [live] list is only needed to report a
       deadlock, so it is built on that (cold) path alone. *)
    let sem_enabled = ref [] and any_live = ref false in
    for i = st.n_threads - 1 downto 0 do
      let t = st.order.(i) in
      if t.status <> Finished && t.status <> Crashed then begin
        any_live := true;
        if semantically_enabled st t then sem_enabled := t.tid :: !sem_enabled
      end
    done;
    if not !any_live then (finished := true; status := AllFinished)
    else begin
      let sem_enabled = !sem_enabled in
      let runnable =
        if not gated then sem_enabled
        else
          List.filter (fun tid -> gate_allows st (Hashtbl.find st.threads tid)) sem_enabled
      in
      if runnable = [] then begin
        finished := true;
        status :=
          (if sem_enabled = [] then begin
             let live = ref [] in
             for i = st.n_threads - 1 downto 0 do
               let t = st.order.(i) in
               if t.status <> Finished && t.status <> Crashed then live := t.tid :: !live
             done;
             Deadlock !live
           end
           else GateStuck sem_enabled)
      end
      else if st.steps >= max_steps then (finished := true; status := StepLimit)
      else begin
        let tid =
          if ranked then begin
            (* the VM's pick: round-robin among the admitted threads *)
            let tid = Sched.round_robin_pick ~last:!last_pick runnable in
            last_pick := tid;
            tid
          end
          else
            let tid = sched.pick ~step:st.steps ~runnable in
            if List.mem tid runnable then tid else List.hd runnable
        in
        let t = Hashtbl.find st.threads tid in
        st.steps <- st.steps + 1;
        (try step_thread st t with
        | Rt_crash (site, line, msg) ->
          st.crashes <- { tid; site; line; msg; c = t.d } :: st.crashes;
          finish_thread st t ~crashed:true);
        t.pre_valid <- false
      end
    end
  done;
  outcome_of_state st !status

let run ?hooks ?plan ?max_steps ?collect_trace ?seed ~(sched : Sched.t)
    (program : Ast.program) : outcome =
  run_compiled ?hooks ?plan ?max_steps ?collect_trace ?seed ~sched (compile program)

(* ------------------------------------------------------------------ *)
(* Determinism oracle (Theorem 1 observables)                           *)
(* ------------------------------------------------------------------ *)

type mismatch = string

(** Compare the Theorem-1 observables of two runs: per-thread sequences of
    shared-read values, per-thread outputs, and crashes (site + counter).
    A crash mismatch names the first crash, as [(tid, site, counter,
    msg)], that only one side has. *)
let replay_matches ~(original : outcome) ~(replay : outcome) : mismatch list =
  let ms = ref [] in
  let add fmt = Printf.ksprintf (fun m -> ms := m :: !ms) fmt in
  let cmp_assoc name a b pp_v =
    List.iter
      (fun (tid, xs) ->
        match List.assoc_opt tid b with
        | None -> add "%s: thread %d missing in replay" name tid
        | Some ys ->
          if xs <> ys then
            add "%s: thread %d differs (original %d items, replay %d items%s)" name tid
              (List.length xs) (List.length ys)
              (match
                 List.find_opt (fun (x, y) -> x <> y)
                   (List.combine
                      (List.filteri (fun i _ -> i < min (List.length xs) (List.length ys)) xs)
                      (List.filteri (fun i _ -> i < min (List.length xs) (List.length ys)) ys))
               with
              | Some (x, y) -> Printf.sprintf "; first diff: %s vs %s" (pp_v x) (pp_v y)
              | None -> ""))
      a
  in
  cmp_assoc "reads" original.reads replay.reads (fun (c, v) ->
      Printf.sprintf "(%d,%s)" c (Value.to_string v));
  cmp_assoc "outputs" original.outputs replay.outputs (fun s -> s);
  let crash_key (c : crash) = (c.tid, c.site, c.c, c.msg) in
  let ok = List.map crash_key original.crashes in
  let rk = List.map crash_key replay.crashes in
  (* the first crash of [xs], in its own order, that [ys] lacks, counting
     repeats *)
  let rec unmatched xs ys =
    match xs with
    | [] -> None
    | x :: rest -> (
      let rec drop = function
        | [] -> None
        | y :: ys -> if y = x then Some ys else Option.map (List.cons y) (drop ys)
      in
      match drop ys with Some ys -> unmatched rest ys | None -> Some x)
  in
  if List.sort compare ok <> List.sort compare rk then begin
    let side, (tid, site, c, msg) =
      match unmatched ok rk with
      | Some k -> ("original", k)
      | None -> ("replay", Option.get (unmatched rk ok))
    in
    add "crashes differ: original %d, replay %d; first only in %s: (%d, %d, %d, %S)"
      (List.length original.crashes) (List.length replay.crashes) side tid site c msg
  end;
  List.rev !ms
