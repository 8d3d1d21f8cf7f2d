(** The register-bytecode VM: a dispatch-loop interpreter over
    {!Lang.Bytecode} programs ({!Lang.Compile.lower}).

    Semantically this module is a drop-in replacement for {!Interp}: same
    crash messages and attribution, same D(t) counter stream.  The
    differential suite (test_vm) holds ungated VM runs byte-identical to
    the tree interpreter on logs and observables.  It is the one engine
    that takes every hook: the tree walker takes [on_shared] only, so the
    baselines' recordings ([observe], [on_branch]), the HB detector,
    trace collection and syscall substitution run here, and test_baselines
    pins the streams those hooks see.  It is the one engine that gates a
    run ([Interp.Rank] for Light's replay, [Interp.Pred] for the
    baselines'), and the one that pauses a run
    ([run_state ~stop_at]) and writes and restores epoch checkpoints
    ({!snapshot}, {!restore_state}): a checkpoint is produced from PC +
    register frames via the compile-time continuation templates, and its
    types live here, next to those two functions.

    Where the speed comes from:
    - flat instruction array, no continuation-chain allocation and no
      closure probes: the inner loop runs instructions of one statement
      until the next boundary pc;
    - baked site ids: the record decision is [shared.(sid)] on an
      immediate, taken straight from the instruction word;
    - open-addressing scalar heap (parallel [obj]/[fld]/[value] arrays,
      linear probing, no deletions) instead of nested hashtables, with a
      separate object registry for classes;
    - pre-boxed constant pool: literals never allocate at runtime;
    - a cached enabled set: the per-step enabledness walk is skipped
      while no transition changed lock/status/thread structure and the
      stepped thread did not stop on a possibly-blocking statement head.
      An ungated run picks straight from the cached tid list;
    - rank admission: a gated run admits a thread once the driver's
      monotone cursor reaches the wait rank of its next shared access
      ([Interp.Rank]).  Whether the next transition makes a shared access
      is the per-pc [access_at] bit plus the thread's status, so no access
      is peeked or built; the wait is asked once per counter and cached.
      A gated step picks round-robin among the admitted threads in one
      walk of the enabled set ([rank_pick]): no tid list, no scheduler
      call, no scan for the picked thread;
    - predicate admission ([Interp.Pred], the Leap, Stride and Chimera
      replays): each step describes every enabled thread's next access
      ([next_access]) and asks the predicate, uncached, and the run's
      scheduler picks among the admitted tids.

    Thread/frame bookkeeping mirrors {!Interp} field for field; shared
    pieces (expression evaluation for enabledness peeking, syscall and
    opaque builtins, the [Rt_crash] exception, the [unbound] sentinel and
    the outcome and status types) are {e reused} from it, not
    duplicated. *)

open Lang
open Bytecode

type vframe = {
  mutable pc : int;
  regs : Value.t array;  (** [0 .. nslots-1] = source slots, rest temps *)
  nslots : int;
  ret_to : int option;
  mutable sync_stack : Value.objid list;  (** innermost first *)
}

type vthread = {
  tid : int;
  mutable frames : vframe list;
  mutable status : Interp.tstatus;
  mutable held : (Value.objid * int) list;
  mutable wait_restore : int;
  mutable alloc : int;
  mutable d : int;
  mutable sys_idx : int;
  mutable spawn_idx : int;
  mutable started : bool;
  mutable reads_rev : (int * Value.t) list;
  mutable outputs_rev : string list;
  mutable wait_c : int;  (** the counter [wait] was asked for, -1 for none *)
  mutable wait : int;  (** the wait rank of the access [(tid, wait_c)] *)
}

(* ------------------------------------------------------------------ *)
(* Flat heap: open addressing over (obj, fld) with linear probing      *)
(* ------------------------------------------------------------------ *)

let h_empty = min_int

type heap = {
  mutable hobj : int array;
  mutable hfld : int array;
  mutable hval : Value.t array;
  mutable hn : int;
  mutable hmask : int;
}

let heap_make () : heap =
  let cap = 1024 in
  {
    hobj = Array.make cap h_empty;
    hfld = Array.make cap 0;
    hval = Array.make cap Value.VNull;
    hn = 0;
    hmask = cap - 1;
  }

let[@inline] hhash (obj : int) (fld : int) : int =
  let x = (obj * 0x9E3779B1) + (fld * 0x85EBCA77) in
  x lxor (x lsr 17)

let heap_get (h : heap) (obj : int) (fld : int) : Value.t =
  let mask = h.hmask in
  let i = ref (hhash obj fld land mask) in
  let v = ref Value.VNull in
  let go = ref true in
  while !go do
    let o = Array.unsafe_get h.hobj !i in
    if o = h_empty then go := false
    else if o = obj && Array.unsafe_get h.hfld !i = fld then begin
      v := Array.unsafe_get h.hval !i;
      go := false
    end
    else i := (!i + 1) land mask
  done;
  !v

let rec heap_set (h : heap) (obj : int) (fld : int) (v : Value.t) : unit =
  let mask = h.hmask in
  let i = ref (hhash obj fld land mask) in
  let go = ref true in
  while !go do
    let o = Array.unsafe_get h.hobj !i in
    if o = h_empty then begin
      go := false;
      if 4 * (h.hn + 1) > 3 * (mask + 1) then begin
        heap_grow h;
        heap_set h obj fld v
      end
      else begin
        Array.unsafe_set h.hobj !i obj;
        Array.unsafe_set h.hfld !i fld;
        Array.unsafe_set h.hval !i v;
        h.hn <- h.hn + 1
      end
    end
    else if o = obj && Array.unsafe_get h.hfld !i = fld then begin
      Array.unsafe_set h.hval !i v;
      go := false
    end
    else i := (!i + 1) land mask
  done

and heap_grow (h : heap) : unit =
  let old_obj = h.hobj and old_fld = h.hfld and old_val = h.hval in
  let cap = 2 * (h.hmask + 1) in
  h.hobj <- Array.make cap h_empty;
  h.hfld <- Array.make cap 0;
  h.hval <- Array.make cap Value.VNull;
  h.hmask <- cap - 1;
  h.hn <- 0;
  Array.iteri
    (fun i o -> if o <> h_empty then heap_set h o old_fld.(i) old_val.(i))
    old_obj

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type state = {
  prog : Bytecode.program;
  hooks : Interp.hooks;
  shared : bool array;
  heap : heap;
  objs : (Value.objid, string) Hashtbl.t;  (* object id -> class *)
  threads : (int, vthread) Hashtbl.t;
  mutable order : vthread array;
  mutable n_threads : int;
  locks : (Value.objid, int * int) Hashtbl.t;
  waitsets : (Value.objid, int Queue.t) Hashtbl.t;
  mutable steps : int;
  mutable crashes : Interp.crash list;
  mutable syscalls_rev : (int * int * string * Value.t) list;
  mutable trace_rev : Event.access list;
  collect_trace : bool;
  rng : Random.State.t;
  consts : Value.t array;  (* pre-boxed constant pool *)
  maybe_blocking : bool array;
      (* per pc: boundary whose statement head can block (sync/lock/join);
         resting there invalidates the enabled-set cache *)
  access_at : bool array;
      (* per pc: the transition starting there makes a shared access (a
         shared site, or a sync ghost), so the gate must admit it *)
  mutable enabled : vthread array;
      (* [0 .. n_enabled-1]: the semantically enabled threads, in reverse
         thread order; valid while [cache_ok] *)
  mutable n_enabled : int;
  mutable cached_runnable : int list;
      (* the tids the scheduler picks from, in thread order: an ungated
         run's enabled ones, cached with [enabled]; a [Pred]-gated run's
         admitted ones, refilled every step (a [Rank]-gated run picks from
         [enabled] directly) *)
  mutable cache_ok : bool;
  mutable dirty : bool;  (* set by any transition that can change enabledness *)
  mutable last_pick : int;
      (* gated runs: the tid of the last thread stepped, -1 before the
         first step (the round-robin position of [rank_pick]) *)
}

let shared_site st (sid : int) : bool =
  sid >= 0 && sid < Array.length st.shared && Array.unsafe_get st.shared sid

let push_thread st (t : vthread) : unit =
  Hashtbl.replace st.threads t.tid t;
  let n = st.n_threads in
  if n = Array.length st.order then begin
    let bigger = Array.make (max 8 (2 * n)) t in
    Array.blit st.order 0 bigger 0 n;
    st.order <- bigger
  end;
  st.order.(n) <- t;
  st.n_threads <- n + 1;
  st.dirty <- true

let new_obj st (t : vthread) (cls : string) : Value.objid =
  t.alloc <- t.alloc + 1;
  let id = (t.tid * 1_000_000) + t.alloc in
  Hashtbl.replace st.objs id cls;
  id

(* Ghost-object materialization: the only writes that can target an
   unregistered object are thread ghosts (negative ids) — every other
   object id flows out of [new_obj] or a restored snapshot. *)
let ghost_write st (obj : int) (fld : int) (v : Value.t) : unit =
  if obj < 0 && not (Hashtbl.mem st.objs obj) then Hashtbl.replace st.objs obj "$ghost";
  heap_set st.heap obj fld v

(* ------------------------------------------------------------------ *)
(* Crash + operand access                                              *)
(* ------------------------------------------------------------------ *)

let vcrash st (pc : int) fmt =
  Printf.ksprintf
    (fun m ->
      raise (Interp.Rt_crash (st.prog.bc_sid_at.(pc), st.prog.bc_line_at.(pc), m)))
    fmt

let reg_name st (pc : int) (r : int) : string =
  let fi = st.prog.bc_fns.(st.prog.bc_fn_of_pc.(pc)) in
  if r < Array.length fi.fi_reg_names then fi.fi_reg_names.(r)
  else Printf.sprintf "$r%d" r

let[@inline] read_op st (f : vframe) (pc : int) (o : operand) : Value.t =
  if o >= 0 then begin
    let v = Array.unsafe_get f.regs o in
    if v == Interp.unbound then
      vcrash st pc "unbound local variable %s" (reg_name st pc o)
    else v
  end
  else Array.unsafe_get st.consts (-1 - o)

let[@inline] as_ref st (pc : int) (v : Value.t) : Value.objid =
  match v with
  | VRef o -> o
  | VNull -> vcrash st pc "null dereference"
  | v -> vcrash st pc "expected object reference, got %s" (Value.to_string v)

let[@inline] as_bool st (pc : int) (v : Value.t) : bool =
  match v with
  | VBool b -> b
  | v -> vcrash st pc "expected boolean, got %s" (Value.to_string v)

(* ------------------------------------------------------------------ *)
(* Shared-access bookkeeping (mirrors Interp.access / do_read/do_write) *)
(* ------------------------------------------------------------------ *)

let access st (t : vthread) ~(obj : int) ~(fld : int) ~(kind : Event.akind)
    ~(site : int) ~(ghost : Event.ghost_kind) (value : Value.t) : unit =
  t.d <- t.d + 1;
  (match kind, ghost with
  | Event.Read, Event.NotGhost -> t.reads_rev <- (t.d, value) :: t.reads_rev
  | _ -> ());
  if st.collect_trace then
    st.trace_rev <-
      { Event.tid = t.tid; c = t.d; loc = { Loc.obj; fld }; kind; site; ghost }
      :: st.trace_rev;
  (match st.hooks.on_shared with
  | None -> ()
  | Some f -> f ~tid:t.tid ~c:t.d ~obj ~fld ~kind ~site ~ghost);
  match st.hooks.observe with
  | None -> ()
  | Some f ->
    f (Access ({ Event.tid = t.tid; c = t.d; loc = { Loc.obj; fld }; kind; site; ghost }, value))

let[@inline] do_read st (t : vthread) ~(obj : int) ~(fld : int) ~(sid : int) : Value.t =
  let v = heap_get st.heap obj fld in
  if shared_site st sid then access st t ~obj ~fld ~kind:Read ~site:sid ~ghost:NotGhost v;
  v

let[@inline] do_write st (t : vthread) ~(obj : int) ~(fld : int) ~(sid : int)
    (v : Value.t) : unit =
  if shared_site st sid then begin
    (match st.hooks.suppress_write with
    | None -> heap_set st.heap obj fld v
    | Some suppress ->
      if not (suppress ~tid:t.tid ~c:(t.d + 1) ~obj ~fld ~site:sid) then
        heap_set st.heap obj fld v);
    access st t ~obj ~fld ~kind:Write ~site:sid ~ghost:NotGhost v
  end
  else heap_set st.heap obj fld v

(* ------------------------------------------------------------------ *)
(* Lock primitives (ghost protocol of Section 4.3, as in Interp)       *)
(* ------------------------------------------------------------------ *)

let lock_free_or_mine st (t : vthread) (m : Value.objid) : bool =
  match Hashtbl.find_opt st.locks m with
  | None -> true
  | Some (owner, _) -> owner = t.tid

let do_acquire st (t : vthread) (m : Value.objid) ~(site : int) : unit =
  st.dirty <- true;
  (match Hashtbl.find_opt st.locks m with
  | None -> Hashtbl.replace st.locks m (t.tid, 1)
  | Some (owner, n) ->
    assert (owner = t.tid);
    Hashtbl.replace st.locks m (t.tid, n + 1));
  (match List.assoc_opt m t.held with
  | None -> t.held <- (m, 1) :: t.held
  | Some n -> t.held <- (m, n + 1) :: List.remove_assoc m t.held);
  access st t ~obj:m ~fld:Loc.lock_fld ~kind:Read ~site ~ghost:LockAcqRead
    (heap_get st.heap m Loc.lock_fld);
  let v = Value.VInt t.tid in
  heap_set st.heap m Loc.lock_fld v;
  access st t ~obj:m ~fld:Loc.lock_fld ~kind:Write ~site ~ghost:LockAcqWrite v

let do_release st (t : vthread) (m : Value.objid) ~(site : int)
    ~(ghost : Event.ghost_kind) ~(full : bool) : unit =
  match Hashtbl.find_opt st.locks m with
  | Some (owner, n) when owner = t.tid ->
    st.dirty <- true;
    let remaining = if full then 0 else n - 1 in
    if remaining = 0 then Hashtbl.remove st.locks m
    else Hashtbl.replace st.locks m (t.tid, remaining);
    (if full || remaining = 0 then t.held <- List.remove_assoc m t.held
     else t.held <- (m, remaining) :: List.remove_assoc m t.held);
    let v = Value.VInt (-t.tid - 1) in
    heap_set st.heap m Loc.lock_fld v;
    access st t ~obj:m ~fld:Loc.lock_fld ~kind:Write ~site ~ghost v
  | _ -> raise (Interp.Rt_crash (site, 0, "unlock of a lock not held"))

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
  st.dirty <- true

let observe_event st (ev : Event.t) : unit =
  match st.hooks.observe with None -> () | Some f -> f ev

let finish_thread st (t : vthread) ~(crashed : bool) : unit =
  st.dirty <- true;
  List.iter
    (fun (m, _) -> do_release st t m ~site:0 ~ghost:LockRelWrite ~full:true)
    t.held;
  let obj = -(t.tid + 1) in
  let v = Value.VInt t.tid in
  ghost_write st obj Loc.thread_fld v;
  access st t ~obj ~fld:Loc.thread_fld ~kind:Write ~site:0 ~ghost:ThreadExitWrite v;
  t.status <- (if crashed then Crashed else Finished);
  observe_event st (ThreadFinished { tid = t.tid })

let make_thread ~tid ~frames : vthread =
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
    wait_c = -1;
    wait = 0;
  }

let new_vframe (fi : fninfo) ~(ret_to : int option) : vframe =
  {
    pc = fi.fi_entry;
    regs = Array.make fi.fi_nregs Interp.unbound;
    nslots = fi.fi_nslots;
    ret_to;
    sync_stack = [];
  }

(* ------------------------------------------------------------------ *)
(* Instruction dispatch                                                *)
(* ------------------------------------------------------------------ *)

let ast_binop = function
  | BAdd -> Ast.Add | BSub -> Ast.Sub | BMul -> Ast.Mul | BDiv -> Ast.Div
  | BMod -> Ast.Mod | BLt -> Ast.Lt | BLe -> Ast.Le | BGt -> Ast.Gt | BGe -> Ast.Ge

(* The full array-access pre-check, shared by loads, stores and
   [ICheckIdx]: null/type, then bounds against the (uninstrumented)
   length field.  Crash messages and order replicate [Interp.exec_stmt]. *)
let arr_check st (pc : int) ~(store : bool) (va : Value.t) (vi : Value.t) :
    Value.objid * int =
  match va, vi with
  | Value.VRef o, Value.VInt n ->
    let len = match heap_get st.heap o Loc.len_fld with Value.VInt l -> l | _ -> 0 in
    if n < 0 || n >= len then
      vcrash st pc "array index %d out of bounds (len %d)" n len;
    (o, n)
  | VNull, _ -> vcrash st pc "null dereference"
  | va, vi ->
    if store then vcrash st pc "bad array store into %s" (Value.to_string va)
    else
      vcrash st pc "bad array access %s[%s]" (Value.to_string va)
        (Value.to_string vi)

(* Pop the head frame, writing [rv] to the caller's return slot. *)
let pop_frame (t : vthread) (rv : Value.t) : unit =
  match t.frames with
  | fr :: rest -> (
    t.frames <- rest;
    match rest, fr.ret_to with
    | caller :: _, Some x -> caller.regs.(x) <- rv
    | _ -> ())
  | [] -> assert false

(* Execute one instruction.  Returns [true] when the transition is
   complete regardless of where the pc landed (frame push/pop, blocking,
   wait, or an instruction that is a whole transition by itself);
   [false] lets the statement loop continue to the next boundary.

   pc discipline: [f.pc] stays on the instruction while it can still
   crash "un-popped" (crash rewinds attribution to the statement entry
   via [bc_stmt_start]); instructions whose crashes happen {e after} the
   tree interpreter popped the statement (unlock owner check, sync-exit
   release, spawn resolution) advance [f.pc] to the jump-threaded next
   statement first, exactly reproducing the interpreter's continuation
   position in crash snapshots. *)
let exec_instr st (t : vthread) (f : vframe) (pc : int) (ins : instr) : bool =
  match ins with
  | IHalt ->
    (* implicit return: a frame resting at pc 0 is a CDone continuation *)
    pop_frame t Value.VNull;
    true
  | INop ->
    f.pc <- pc + 1;
    false
  | IMove (dst, src) ->
    Array.unsafe_set f.regs dst (read_op st f pc src);
    f.pc <- pc + 1;
    false
  | IBin (k, dst, a, b) ->
    let va = read_op st f pc a in
    let vb = read_op st f pc b in
    let v : Value.t =
      match k, va, vb with
      | BAdd, VInt x, VInt y -> VInt (x + y)
      | BAdd, VStr x, VStr y -> VStr (x ^ y)
      | BSub, VInt x, VInt y -> VInt (x - y)
      | BMul, VInt x, VInt y -> VInt (x * y)
      | BDiv, VInt _, VInt 0 -> vcrash st pc "division by zero"
      | BDiv, VInt x, VInt y -> VInt (x / y)
      | BMod, VInt _, VInt 0 -> vcrash st pc "modulo by zero"
      | BMod, VInt x, VInt y -> VInt (x mod y)
      | BLt, VInt x, VInt y -> VBool (x < y)
      | BLe, VInt x, VInt y -> VBool (x <= y)
      | BGt, VInt x, VInt y -> VBool (x > y)
      | BGe, VInt x, VInt y -> VBool (x >= y)
      | _ ->
        vcrash st pc "type error: %s %s %s" (Value.to_string va)
          (Pp.binop_str (ast_binop k)) (Value.to_string vb)
    in
    Array.unsafe_set f.regs dst v;
    f.pc <- pc + 1;
    false
  | IEq (dst, a, b) ->
    (* OCaml application order: b evaluates (and unbound-checks) first *)
    let vb = read_op st f pc b in
    let va = read_op st f pc a in
    Array.unsafe_set f.regs dst (VBool (Value.equal va vb));
    f.pc <- pc + 1;
    false
  | INe (dst, a, b) ->
    let vb = read_op st f pc b in
    let va = read_op st f pc a in
    Array.unsafe_set f.regs dst (VBool (not (Value.equal va vb)));
    f.pc <- pc + 1;
    false
  | INot (dst, a) ->
    (match read_op st f pc a with
    | VBool b -> f.regs.(dst) <- VBool (not b)
    | v -> vcrash st pc "! applied to %s" (Value.to_string v));
    f.pc <- pc + 1;
    false
  | INeg (dst, a) ->
    (match read_op st f pc a with
    | VInt n -> f.regs.(dst) <- VInt (-n)
    | v -> vcrash st pc "unary - applied to %s" (Value.to_string v));
    f.pc <- pc + 1;
    false
  | IBoolJmp (dst, a, target, is_and) ->
    (match read_op st f pc a with
    | VBool b ->
      if b = is_and then f.pc <- pc + 1 (* fall through to the right operand *)
      else begin
        f.regs.(dst) <- VBool b;
        f.pc <- target
      end
    | v -> vcrash st pc "%s applied to %s" (if is_and then "&&" else "||")
             (Value.to_string v));
    false
  | IBoolMove (dst, src, is_and) ->
    (match read_op st f pc src with
    | VBool _ as v -> f.regs.(dst) <- v
    | v -> vcrash st pc "%s applied to %s" (if is_and then "&&" else "||")
             (Value.to_string v));
    f.pc <- pc + 1;
    false
  | IJmp target ->
    f.pc <- target;
    false
  | IJmpIfNot (c, target) ->
    let b = as_bool st pc (read_op st f pc c) in
    (match st.hooks.on_branch with None -> () | Some fn -> fn ~tid:t.tid ~taken:b);
    f.pc <- (if b then pc + 1 else target);
    false
  | ICheckRef o ->
    ignore (as_ref st pc (read_op st f pc o));
    f.pc <- pc + 1;
    false
  | ICheckIdx (a, i) ->
    let va = read_op st f pc a in
    let vi = read_op st f pc i in
    ignore (arr_check st pc ~store:true va vi);
    f.pc <- pc + 1;
    false
  | ILoad (dst, o, fld, sid) ->
    let obj = as_ref st pc (read_op st f pc o) in
    Array.unsafe_set f.regs dst (do_read st t ~obj ~fld ~sid);
    f.pc <- pc + 1;
    false
  | IStore (o, fld, v, sid) ->
    let obj = as_ref st pc (read_op st f pc o) in
    let v = read_op st f pc v in
    do_write st t ~obj ~fld ~sid v;
    f.pc <- pc + 1;
    false
  | ILoadIdx (dst, a, i, sid) ->
    let va = read_op st f pc a in
    let vi = read_op st f pc i in
    let obj, n = arr_check st pc ~store:false va vi in
    Array.unsafe_set f.regs dst (do_read st t ~obj ~fld:(Loc.fld_of_elem n) ~sid);
    f.pc <- pc + 1;
    false
  | IStoreIdx (a, i, v, sid) ->
    let va = read_op st f pc a in
    let vi = read_op st f pc i in
    let obj, n = arr_check st pc ~store:true va vi in
    let v = read_op st f pc v in
    do_write st t ~obj ~fld:(Loc.fld_of_elem n) ~sid v;
    f.pc <- pc + 1;
    false
  | IGLoad (dst, g, sid) ->
    Array.unsafe_set f.regs dst (do_read st t ~obj:0 ~fld:g ~sid);
    f.pc <- pc + 1;
    false
  | IGStore (g, v, sid) ->
    let v = read_op st f pc v in
    do_write st t ~obj:0 ~fld:g ~sid v;
    f.pc <- pc + 1;
    false
  | INew (dst, cls, fids) ->
    let id = new_obj st t cls in
    Array.iter (fun fld -> heap_set st.heap id fld Value.VNull) fids;
    f.regs.(dst) <- VRef id;
    f.pc <- pc + 1;
    false
  | INewArray (dst, n) ->
    (match read_op st f pc n with
    | VInt len when len >= 0 ->
      let id = new_obj st t "[]" in
      heap_set st.heap id Loc.len_fld (VInt len);
      for i = 0 to len - 1 do
        heap_set st.heap id (Loc.fld_of_elem i) (VInt 0)
      done;
      f.regs.(dst) <- VRef id
    | v -> vcrash st pc "bad array length %s" (Value.to_string v));
    f.pc <- pc + 1;
    false
  | INewMap dst ->
    f.regs.(dst) <- VRef (new_obj st t "map");
    f.pc <- pc + 1;
    false
  | IMapGet (dst, m, k, sid) ->
    (* application order: key evaluates first, then the map *)
    let vk = read_op st f pc k in
    let obj = as_ref st pc (read_op st f pc m) in
    Array.unsafe_set f.regs dst (do_read st t ~obj ~fld:(Loc.mapkey_fld vk) ~sid);
    f.pc <- pc + 1;
    false
  | IMapPut (m, k, v, sid) ->
    let vk = read_op st f pc k in
    let obj = as_ref st pc (read_op st f pc m) in
    let v = read_op st f pc v in
    do_write st t ~obj ~fld:(Loc.mapkey_fld vk) ~sid v;
    f.pc <- pc + 1;
    false
  | IMapHas (dst, m, k, sid) ->
    let vk = read_op st f pc k in
    let obj = as_ref st pc (read_op st f pc m) in
    let v = do_read st t ~obj ~fld:(Loc.mapkey_fld vk) ~sid in
    f.regs.(dst) <- VBool (v <> Value.VNull);
    f.pc <- pc + 1;
    false
  | ICall (ret, fidx, args) ->
    let fi = st.prog.bc_fns.(fidx) in
    let n = Array.length args in
    let vals = Array.make (max n 1) Value.VNull in
    for j = 0 to n - 1 do
      vals.(j) <- read_op st f pc args.(j)
    done;
    f.pc <- st.prog.bc_threaded.(pc + 1);
    if n <> fi.fi_nparams then invalid_arg "List.iter2";
    let callee = new_vframe fi ~ret_to:(if ret < 0 then None else Some ret) in
    Array.blit vals 0 callee.regs 0 n;
    t.frames <- callee :: t.frames;
    true
  | ICallUndef fname -> vcrash st pc "call to undefined function %s" fname
  | IRet v ->
    let rv = read_op st f pc v in
    (* early return abandons any open sync blocks, as the tree
       interpreter's dropped CUnlock nodes did: the locks stay held *)
    pop_frame t rv;
    true
  | ISpawn (dst, fidx, fname, args) ->
    let n = Array.length args in
    let vals = Array.make (max n 1) Value.VNull in
    for j = 0 to n - 1 do
      vals.(j) <- read_op st f pc args.(j)
    done;
    (* the statement is popped before resolution: these crashes snapshot
       with the spawn already consumed, as in Interp.spawn_thread *)
    f.pc <- st.prog.bc_threaded.(pc + 1);
    if fidx < 0 then vcrash st pc "spawn of undefined function %s" fname;
    let fi = st.prog.bc_fns.(fidx) in
    t.spawn_idx <- t.spawn_idx + 1;
    if t.spawn_idx > 99 then vcrash st pc "spawn limit (99 per thread) exceeded";
    let tid = (t.tid * 100) + t.spawn_idx in
    let callee = new_vframe fi ~ret_to:None in
    if n <> fi.fi_nparams then invalid_arg "List.iter2";
    Array.blit vals 0 callee.regs 0 n;
    push_thread st (make_thread ~tid ~frames:[ callee ]);
    let obj = -(tid + 1) in
    let v = Value.VThread tid in
    ghost_write st obj Loc.thread_fld v;
    access st t ~obj ~fld:Loc.thread_fld ~kind:Write ~site:st.prog.bc_sid_at.(pc)
      ~ghost:SpawnWrite v;
    observe_event st (ThreadSpawned { parent = t.tid; child = tid });
    f.regs.(dst) <- VThread tid;
    true
  | IJoin (h, sid) ->
    (match read_op st f pc h with
    | VThread target -> (
      match Hashtbl.find_opt st.threads target with
      | Some tt when tt.status = Interp.Finished || tt.status = Interp.Crashed ->
        f.pc <- st.prog.bc_threaded.(pc + 1);
        let obj = -(target + 1) in
        access st t ~obj ~fld:Loc.thread_fld ~kind:Read ~site:sid ~ghost:JoinRead
          (heap_get st.heap obj Loc.thread_fld)
      | Some _ ->
        t.status <- BlockedJoin target;
        f.pc <- st.prog.bc_stmt_start.(pc);
        st.dirty <- true
      | None -> vcrash st pc "join of unknown thread %d" target)
    | v -> vcrash st pc "join of non-thread %s" (Value.to_string v));
    true
  | IEnterSync (m, sid) ->
    let mo = as_ref st pc (read_op st f pc m) in
    if lock_free_or_mine st t mo then begin
      f.pc <- pc + 1;  (* body entry or the IExitSync, both boundaries *)
      f.sync_stack <- mo :: f.sync_stack;
      do_acquire st t mo ~site:sid
    end
    else begin
      t.status <- BlockedLock mo;
      f.pc <- st.prog.bc_stmt_start.(pc);
      st.dirty <- true
    end;
    true
  | IExitSync sid ->
    (* its own transition (the CUnlock); pc and sync stack advance
       before the release so a not-held crash matches Interp's
       already-advanced continuation *)
    (match f.sync_stack with
    | mo :: rest ->
      f.sync_stack <- rest;
      f.pc <- st.prog.bc_threaded.(pc + 1);
      do_release st t mo ~site:sid ~ghost:LockRelWrite ~full:false
    | [] -> assert false);
    true
  | ILock (m, sid) ->
    let mo = as_ref st pc (read_op st f pc m) in
    if lock_free_or_mine st t mo then begin
      f.pc <- pc + 1;
      do_acquire st t mo ~site:sid
    end
    else begin
      t.status <- BlockedLock mo;
      f.pc <- st.prog.bc_stmt_start.(pc);
      st.dirty <- true
    end;
    true
  | IUnlock (m, sid) ->
    let mo = as_ref st pc (read_op st f pc m) in
    f.pc <- st.prog.bc_threaded.(pc + 1);  (* popped before the owner check *)
    (match Hashtbl.find_opt st.locks mo with
    | Some (owner, _) when owner = t.tid ->
      do_release st t mo ~site:sid ~ghost:LockRelWrite ~full:false
    | _ -> vcrash st pc "unlock of a lock not held");
    true
  | IWait (m, sid) ->
    let mo = as_ref st pc (read_op st f pc m) in
    (match Hashtbl.find_opt st.locks mo with
    | Some (owner, n) when owner = t.tid ->
      f.pc <- st.prog.bc_threaded.(pc + 1);
      t.wait_restore <- n;
      do_release st t mo ~site:sid ~ghost:WaitRelWrite ~full:true;
      t.status <- InWait mo;
      st.dirty <- true;
      let q =
        match Hashtbl.find_opt st.waitsets mo with
        | Some q -> q
        | None ->
          let q = Queue.create () in
          Hashtbl.replace st.waitsets mo q;
          q
      in
      Queue.push t.tid q
    | _ -> vcrash st pc "wait without holding the monitor");
    true
  | INotify (m, sid, all) ->
    let mo = as_ref st pc (read_op st f pc m) in
    (match Hashtbl.find_opt st.locks mo with
    | Some (owner, _) when owner = t.tid ->
      f.pc <- st.prog.bc_threaded.(pc + 1);
      let v = Value.VInt t.tid in
      heap_set st.heap mo Loc.cond_fld v;
      access st t ~obj:mo ~fld:Loc.cond_fld ~kind:Write ~site:sid ~ghost:NotifyWrite v;
      if all then begin
        let rec drain () =
          match fifo_pop st mo with
          | Some w ->
            wake st w mo;
            drain ()
          | None -> ()
        in
        drain ()
      end
      else (match pick_wakeup st mo with Some w -> wake st w mo | None -> ())
    | _ ->
      vcrash st pc "%s without holding the monitor"
        (if all then "notifyAll" else "notify"));
    true
  | IAssert c ->
    if not (as_bool st pc (read_op st f pc c)) then vcrash st pc "assertion failed";
    f.pc <- pc + 1;
    false
  | IPrint v ->
    let s = Value.to_string (read_op st f pc v) in
    f.pc <- pc + 1;
    t.outputs_rev <- s :: t.outputs_rev;
    false
  | ISyscall (dst, name, args) ->
    let vals = List.map (fun o -> read_op st f pc o) (Array.to_list args) in
    let recorded =
      Option.bind st.hooks.syscall_override (fun over -> over ~tid:t.tid ~idx:t.sys_idx ~name)
    in
    let v =
      match recorded with
      | Some v -> v
      | None ->
        Interp.syscall_builtin ~steps:st.steps ~tid:t.tid ~rng:st.rng
          ~site:st.prog.bc_sid_at.(pc) ~line:st.prog.bc_line_at.(pc) name vals
    in
    st.syscalls_rev <- (t.tid, t.sys_idx, name, v) :: st.syscalls_rev;
    observe_event st (SyscallEvent { tid = t.tid; idx = t.sys_idx; name; value = v });
    t.sys_idx <- t.sys_idx + 1;
    f.regs.(dst) <- v;
    f.pc <- pc + 1;
    false
  | IOpaque (dst, name, args) ->
    let vals = List.map (fun o -> read_op st f pc o) (Array.to_list args) in
    let v =
      Interp.opaque_op ~site:st.prog.bc_sid_at.(pc) ~line:st.prog.bc_line_at.(pc)
        name vals
    in
    f.regs.(dst) <- v;
    f.pc <- pc + 1;
    false

(* Run instructions of the current statement until the transition
   completes or the pc rests on the next statement boundary.  [code] and
   [starts] arrive as locals so the loop re-reads neither [st.prog] nor its
   fields per instruction. *)
let rec exec_loop st (t : vthread) (f : vframe) (code : instr array)
    (starts : bool array) : unit =
  let pc = f.pc in
  if exec_instr st t f pc (Array.unsafe_get code pc) then ()
  else if Array.unsafe_get starts f.pc then ()
  else exec_loop st t f code starts

let[@inline] exec_until_boundary st (t : vthread) (f : vframe) : unit =
  exec_loop st t f st.prog.bc_code st.prog.bc_starts

(* One scheduler transition of thread [t]: mirrors Interp.step_thread. *)
let step_thread st (t : vthread) : unit =
  if not t.started then begin
    t.started <- true;
    let obj = -(t.tid + 1) in
    access st t ~obj ~fld:Loc.thread_fld ~kind:Read ~site:0 ~ghost:ThreadFirstRead
      (heap_get st.heap obj Loc.thread_fld)
  end
  else
    match t.status with
    | Notified m ->
      access st t ~obj:m ~fld:Loc.cond_fld ~kind:Read ~site:0 ~ghost:WaitCondRead
        (heap_get st.heap m Loc.cond_fld);
      t.status <- Reacquiring m;
      st.dirty <- true
    | Reacquiring m ->
      access st t ~obj:m ~fld:Loc.lock_fld ~kind:Read ~site:0 ~ghost:WaitReacqRead
        (heap_get st.heap m Loc.lock_fld);
      Hashtbl.replace st.locks m (t.tid, t.wait_restore);
      t.held <- (m, t.wait_restore) :: t.held;
      t.wait_restore <- 0;
      let v = Value.VInt t.tid in
      heap_set st.heap m Loc.lock_fld v;
      access st t ~obj:m ~fld:Loc.lock_fld ~kind:Write ~site:0 ~ghost:WaitReacqWrite v;
      t.status <- Runnable;
      st.dirty <- true
    | BlockedLock _ | BlockedJoin _ | Runnable -> (
      t.status <- Runnable;
      match t.frames with
      | [] -> finish_thread st t ~crashed:false
      | f :: _ -> exec_until_boundary st t f)
    | InWait _ | Finished | Crashed -> assert false

(* ------------------------------------------------------------------ *)
(* Enabledness + the replay gates                                      *)
(* ------------------------------------------------------------------ *)

(* Does the thread's next transition make a shared access?  Its first
   (the spawn ghost read), a woken waiter's two, the exit write, and any
   statement whose [access_at] bit is set.  A statement whose address does
   not evaluate is gated too: it crashes when stepped, and the crash's
   exit write is the access it waits for. *)
let makes_access st (t : vthread) : bool =
  match t.status with
  | Interp.Notified _ | Reacquiring _ -> true
  | Runnable | BlockedLock _ | BlockedJoin _ -> (
    (not t.started)
    || match t.frames with [] -> true | f :: _ -> Array.unsafe_get st.access_at f.pc)
  | InWait _ | Finished | Crashed -> false

(* The access a [Pred] gate is asked about: the one [t]'s next transition
   makes, which [makes_access] says it does, as the event it will be.
   [None] when its address does not evaluate: the thread is admitted and
   crashes when stepped. *)
let next_access st (t : vthread) : Event.pre option =
  let pre ?(site = 0) ~kind ~ghost (loc : Loc.t) : Event.pre option =
    Some { Event.tid = t.tid; c = t.d + 1; loc; kind; site; ghost }
  in
  match t.status, t.frames with
  | Interp.Notified m, _ -> pre ~kind:Read ~ghost:WaitCondRead (Loc.cond_ghost m)
  | Reacquiring m, _ -> pre ~kind:Read ~ghost:WaitReacqRead (Loc.lock_ghost m)
  | _ when not t.started -> pre ~kind:Read ~ghost:ThreadFirstRead (Loc.thread_ghost t.tid)
  | _, [] -> pre ~kind:Write ~ghost:ThreadExitWrite (Loc.thread_ghost t.tid)
  | _, f :: _ -> (
    match st.prog.bc_code.(f.pc), st.prog.bc_stmt_at.(f.pc) with
    | IExitSync site, _ ->
      pre ~site ~kind:Write ~ghost:LockRelWrite (Loc.lock_ghost (List.hd f.sync_stack))
    | _, None -> None
    | _, Some s -> (
      let site = s.rsid in
      let e x = Interp.eval s f.regs x and r x = Interp.eval_ref s f.regs x in
      let data kind loc = pre ~site ~kind ~ghost:NotGhost loc in
      let sync kind ghost loc = pre ~site ~kind ~ghost loc in
      let elem kind a i =
        match e a, e i with VRef o, VInt n -> data kind (Loc.elem o n) | _ -> None
      in
      try
        match s.rnode with
        | RLoad (_, o, fl) -> data Read (Loc.field_id (r o) fl)
        | RStore (o, fl, _) -> data Write (Loc.field_id (r o) fl)
        | RLoadIdx (_, a, i) -> elem Read a i
        | RStoreIdx (a, i, _) -> elem Write a i
        | RGlobalLoad (_, g) -> data Read (Loc.global_id g)
        | RGlobalStore (g, _) -> data Write (Loc.global_id g)
        | RMapGet (_, m, k) | RMapHas (_, m, k) -> data Read (Loc.mapkey (r m) (e k))
        | RMapPut (m, k, _) -> data Write (Loc.mapkey (r m) (e k))
        | RSync (m, _) | RLock m -> sync Read LockAcqRead (Loc.lock_ghost (r m))
        | RUnlock m -> sync Write LockRelWrite (Loc.lock_ghost (r m))
        | RWait m -> sync Write WaitRelWrite (Loc.lock_ghost (r m))
        | RNotify m | RNotifyAll m -> sync Write NotifyWrite (Loc.cond_ghost (r m))
        | RSpawn _ ->
          (* the child's ghost: the tid the spawn will give it *)
          sync Write SpawnWrite (Loc.thread_ghost ((t.tid * 100) + t.spawn_idx + 1))
        | RJoin h -> (
          match e h with VThread target -> sync Read JoinRead (Loc.thread_ghost target) | _ -> None)
        | _ -> None
      with Interp.Rt_crash _ -> None))

let semantically_enabled st (t : vthread) : bool =
  match t.status with
  | Interp.Finished | Crashed | InWait _ -> false
  | Notified _ -> true
  | Reacquiring m -> lock_free_or_mine st t m
  | BlockedLock m -> lock_free_or_mine st t m
  | BlockedJoin target -> (
    match Hashtbl.find_opt st.threads target with
    | Some tt -> tt.status = Interp.Finished || tt.status = Interp.Crashed
    | None -> true)
  | Runnable -> (
    if not t.started then true
    else
      match t.frames with
      | f :: _ when Array.unsafe_get st.maybe_blocking f.pc -> (
        match st.prog.bc_stmt_at.(f.pc) with
        | Some s -> (
          match s.rnode with
          | Resolve.RSync (m, _) | Resolve.RLock m -> (
            try lock_free_or_mine st t (Interp.eval_ref s f.regs m)
            with Interp.Rt_crash _ -> true)
          | RJoin h -> (
            try
              match Interp.eval s f.regs h with
              | VThread target -> (
                match Hashtbl.find_opt st.threads target with
                | Some tt -> tt.status = Interp.Finished || tt.status = Interp.Crashed
                | None -> true)
              | _ -> true (* will crash when stepped *)
            with Interp.Rt_crash _ -> true)
          | _ -> true)
        | None -> true)
      | _ -> true)

(* ------------------------------------------------------------------ *)
(* State construction                                                  *)
(* ------------------------------------------------------------------ *)

let value_of_const : const -> Value.t = function
  | KInt n -> VInt n
  | KBool b -> VBool b
  | KNull -> VNull
  | KStr s -> VStr s

let make_state ~(hooks : Interp.hooks) ~plan ~collect_trace ~rng ~steps ~crashes
    (bp : Bytecode.program) : state =
  let cp = bp.bc_src in
  let shared =
    Array.init (cp.Resolve.cp_max_sid + 1) (fun sid -> plan.Plan.shared_site sid)
  in
  let maybe_blocking =
    Array.init (Array.length bp.bc_code) (fun pc ->
        match bp.bc_stmt_at.(pc) with
        | Some s -> (
          match s.Resolve.rnode with
          | Resolve.RSync _ | Resolve.RLock _ | Resolve.RJoin _ -> true
          | _ -> false)
        | None -> false)
  in
  let access_at =
    Array.init (Array.length bp.bc_code) (fun pc ->
        match bp.bc_code.(pc), bp.bc_stmt_at.(pc) with
        | IExitSync _, _ -> true
        | IHalt, _ | _, None -> false
        | _, Some s -> (
          match s.Resolve.rnode with
          | RLoad _ | RStore _ | RLoadIdx _ | RStoreIdx _ | RGlobalLoad _ | RGlobalStore _
          | RMapGet _ | RMapHas _ | RMapPut _ ->
            s.rsid >= 0 && s.rsid < Array.length shared && shared.(s.rsid)
          | RSync _ | RLock _ | RUnlock _ | RWait _ | RNotify _ | RNotifyAll _ | RSpawn _
          | RJoin _ ->
            true
          | _ -> false))
  in
  {
    prog = bp;
    hooks;
    shared;
    heap = heap_make ();
    objs = Hashtbl.create 256;
    threads = Hashtbl.create 16;
    order = [||];
    n_threads = 0;
    locks = Hashtbl.create 16;
    waitsets = Hashtbl.create 16;
    steps;
    crashes;
    syscalls_rev = [];
    trace_rev = [];
    collect_trace;
    rng;
    consts = Array.map value_of_const bp.bc_consts;
    maybe_blocking;
    access_at;
    enabled = [||];
    n_enabled = 0;
    cached_runnable = [];
    cache_ok = false;
    dirty = false;
    last_pick = -1;
  }

let init_state ?(hooks = Interp.default_hooks) ?(plan = Plan.all_shared)
    ?(collect_trace = false) ?(seed = 0) (bp : Bytecode.program) : state =
  let st =
    make_state ~hooks ~plan ~collect_trace
      ~rng:(Random.State.make [| seed; 0x5EED |])
      ~steps:0 ~crashes:[] bp
  in
  Hashtbl.replace st.objs 0 "$globals";
  Array.iter (fun g -> heap_set st.heap 0 g Value.VNull) bp.bc_src.Resolve.cp_globals;
  let main_fi = bp.bc_fns.(main_index bp) in
  let main_thread = make_thread ~tid:1 ~frames:[ new_vframe main_fi ~ret_to:None ] in
  main_thread.started <- true;  (* main has no spawn ghost to read *)
  push_thread st main_thread;
  st.dirty <- false;
  st

(* ------------------------------------------------------------------ *)
(* Run loop (mirrors Interp.run_compiled, plus the enabled-set cache)  *)
(* ------------------------------------------------------------------ *)

(* Recompute the enabled set into [st.enabled] (and [st.cached_runnable]
   when ungated); false when no thread is live. *)
let refresh_enabled st : bool =
  if Array.length st.enabled < st.n_threads then
    st.enabled <- Array.make (Array.length st.order) st.order.(0);
  let gated = st.hooks.gate <> None in
  let tids = ref [] and n = ref 0 and any_live = ref false in
  for i = st.n_threads - 1 downto 0 do
    let t = st.order.(i) in
    if t.status <> Interp.Finished && t.status <> Interp.Crashed then begin
      any_live := true;
      if semantically_enabled st t then begin
        if not gated then tids := t.tid :: !tids;
        st.enabled.(!n) <- t;
        incr n
      end
    end
  done;
  st.n_enabled <- !n;
  st.cached_runnable <- !tids;
  !any_live

(* the tids of the enabled threads, in thread order *)
let enabled_tids st : int list =
  let acc = ref [] in
  for i = 0 to st.n_enabled - 1 do
    acc := (Array.unsafe_get st.enabled i).tid :: !acc
  done;
  !acc

(* the picked thread: [tid] is enabled, so a scan of the enabled set finds
   it without hashing *)
let enabled_thread st (tid : int) : vthread =
  let i = ref 0 in
  while !i < st.n_enabled && (Array.unsafe_get st.enabled !i).tid <> tid do incr i done;
  if !i < st.n_enabled then Array.unsafe_get st.enabled !i else Hashtbl.find st.threads tid

(* The tids of the enabled threads a [Pred] gate admits, in thread order:
   those whose next transition makes no access, or whose access [p]
   accepts. *)
let admitted_tids st (p : Event.pre -> bool) : int list =
  let acc = ref [] in
  for i = 0 to st.n_enabled - 1 do
    let t = Array.unsafe_get st.enabled i in
    if (not (makes_access st t))
       || match next_access st t with None -> true | Some pre -> p pre
    then acc := t.tid :: !acc
  done;
  !acc

(* The rank the cursor must reach before [t] takes its next transition:
   [min_int] when that makes no shared access, else the wait of the access
   [(tid, d + 1)], asked once per counter ([wait] is pure). *)
let wait_of st (t : vthread) (wait : tid:int -> c:int -> int) : int =
  if not (makes_access st t) then min_int
  else begin
    let c = t.d + 1 in
    if t.wait_c <> c then begin
      t.wait <- wait ~tid:t.tid ~c;
      t.wait_c <- c
    end;
    t.wait
  end

(* The index in [enabled] of the thread a rank-gated run steps next, -1
   when the rank rule admits none at [cursor]: the first admitted thread
   in thread order whose tid is above [last_pick], else the first admitted
   thread -- what [Sched.round_robin] picks from the admitted tid list.
   [enabled] holds reverse thread order, so walk it backwards, and stop at
   the first admitted thread above [last_pick]. *)
let rank_pick st (wait : tid:int -> c:int -> int) (cursor : int) : int =
  let last = st.last_pick in
  let first = ref (-1) and pick = ref (-1) and i = ref (st.n_enabled - 1) in
  while !pick < 0 && !i >= 0 do
    let t = Array.unsafe_get st.enabled !i in
    if cursor >= wait_of st t wait then begin
      if t.tid > last then pick := !i else if !first < 0 then first := !i
    end;
    decr i
  done;
  if !pick >= 0 then !pick else !first

let live_tids st : int list =
  let live = ref [] in
  for i = st.n_threads - 1 downto 0 do
    let t = st.order.(i) in
    if t.status <> Interp.Finished && t.status <> Interp.Crashed then live := t.tid :: !live
  done;
  !live

(** Run until termination, [max_steps], or the [stop_at] step watermark.
    Returns [None] when paused at [stop_at] (calling [run_state] again on
    the same state resumes the run), [Some status] when the run ended.
    The pause point is a clean step boundary, no thread mid-transition,
    so {!snapshot} can checkpoint it.  An ungated run steps the thread
    [sched] picks; a [Rank]-gated run picks round-robin among the admitted
    threads ({!rank_pick}) and never asks [sched]; a [Pred]-gated run
    steps the thread [sched] picks among the admitted ones. *)
let run_state ?(max_steps = 5_000_000) ?(stop_at = max_int) ~(sched : Sched.t)
    (st : state) : Interp.status_summary option =
  let finished = ref false in
  let paused = ref false in
  let status = ref Interp.AllFinished in
  (* 1-entry pick memo: a sticky schedule runs the same thread for long
     stretches, so skip even the scan of the enabled set on the repeat *)
  let memo = ref (make_thread ~tid:(-1) ~frames:[]) in
  while (not !finished) && not !paused do
    if not st.cache_ok then begin
      if not (refresh_enabled st) then begin
        finished := true;
        status := Interp.AllFinished
      end
      else if st.n_enabled = 0 then begin
        finished := true;
        status := Interp.Deadlock (live_tids st)
      end
      else st.cache_ok <- true
    end;
    (* a rank-gated run's pick, as an index into [enabled]; -1 otherwise *)
    let ranked =
      if !finished then -1
      else
        match st.hooks.gate with
        | None -> -1
        | Some (Pred p) ->
          st.cached_runnable <- admitted_tids st p;
          if st.cached_runnable = [] then begin
            finished := true;
            status := Interp.GateStuck (enabled_tids st)
          end;
          -1
        | Some (Rank { wait; cursor }) ->
          let i = rank_pick st wait !cursor in
          if i < 0 then begin
            finished := true;
            status := Interp.GateStuck (enabled_tids st)
          end;
          i
    in
    if not !finished then begin
      if st.steps >= max_steps then begin
        finished := true;
        status := Interp.StepLimit
      end
      else if st.steps >= stop_at then paused := true
      else begin
        let t =
          if ranked >= 0 then begin
            let t = Array.unsafe_get st.enabled ranked in
            st.last_pick <- t.tid;
            t
          end
          else begin
            let runnable = st.cached_runnable in
            let tid = sched.pick ~step:st.steps ~runnable in
            let tid = if List.mem tid runnable then tid else List.hd runnable in
            if !memo.tid <> tid then memo := enabled_thread st tid;
            !memo
          end
        in
        st.steps <- st.steps + 1;
        st.dirty <- false;
        (try step_thread st t with
        | Interp.Rt_crash (site, line, msg) ->
          st.crashes <- { Interp.tid = t.tid; site; line; msg; c = t.d } :: st.crashes;
          finish_thread st t ~crashed:true);
        (* cache maintenance: drop it when the transition touched lock /
           status / thread structure, or when the stepped thread rests on
           a possibly-blocking statement head *)
        if st.dirty then st.cache_ok <- false
        else
          match t.frames with
          | f :: _ ->
            if Array.unsafe_get st.maybe_blocking f.pc then st.cache_ok <- false
          | [] -> ()
      end
    end
  done;
  if !paused then None else Some !status

(* ------------------------------------------------------------------ *)
(* Outcome assembly                                                    *)
(* ------------------------------------------------------------------ *)

let per_thread (st : state) f =
  List.init st.n_threads (fun i ->
      let t = st.order.(i) in
      (t.tid, f t))

(* Walk the open-addressed field table back into per-object association
   lists.  Field-less objects (fresh [new]) still appear via the class
   registry, matching [Interp]'s per-object hashtables. *)
let heap_objects (st : state) : (Value.objid * string * (string * Value.t) list) list =
  let fields : (Value.objid, (string * Value.t) list) Hashtbl.t =
    Hashtbl.create 256
  in
  let h = st.heap in
  for i = 0 to Array.length h.hobj - 1 do
    let o = Array.unsafe_get h.hobj i in
    if o <> h_empty then begin
      let prev = try Hashtbl.find fields o with Not_found -> [] in
      Hashtbl.replace fields o ((Loc.fld_name h.hfld.(i), h.hval.(i)) :: prev)
    end
  done;
  Hashtbl.fold (fun id cls acc -> (id, cls) :: acc) st.objs []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map (fun (id, cls) ->
         let fs = try Hashtbl.find fields id with Not_found -> [] in
         (id, cls, List.sort compare fs))

let outcome_of_state (st : state) (status : Interp.status_summary) : Interp.outcome =
  let per_thread f = per_thread st f in
  {
    Interp.status;
    steps = st.steps;
    crashes = List.rev st.crashes;
    reads = per_thread (fun t -> List.rev t.reads_rev);
    outputs = per_thread (fun t -> List.rev t.outputs_rev);
    counters = per_thread (fun t -> t.d);
    syscalls = List.rev st.syscalls_rev;
    final_heap = List.map (fun (id, _, fs) -> (id, fs)) (heap_objects st);
    trace = List.rev st.trace_rev;
  }

(* ------------------------------------------------------------------ *)
(* Epoch checkpoints: window observables, snapshot, restore            *)
(* ------------------------------------------------------------------ *)

(** The per-epoch slice of the Theorem-1 observables.  [drain_observables]
    returns everything accumulated since the previous drain (or the start of
    the run) and clears the buffers, so an epoch recorder owns exactly its
    window of reads/outputs/syscalls while the cumulative counters (D(t),
    sys_idx, steps) keep advancing monotonically. *)
type observables = {
  obs_reads : (int * (int * Value.t) list) list;
  obs_outputs : (int * string list) list;
  obs_syscalls : (int * int * string * Value.t) list;
}

let drain_observables (st : state) : observables =
  let obs =
    {
      obs_reads = per_thread st (fun t -> List.rev t.reads_rev);
      obs_outputs = per_thread st (fun t -> List.rev t.outputs_rev);
      obs_syscalls = List.rev st.syscalls_rev;
    }
  in
  for i = 0 to st.n_threads - 1 do
    let t = st.order.(i) in
    t.reads_rev <- [];
    t.outputs_rev <- []
  done;
  st.syscalls_rev <- [];
  obs

(** D(t) per thread right now: the counter watermark an epoch log stores
    so its c-values can be windowed against the checkpoint. *)
let state_counters (st : state) : (int * int) list = per_thread st (fun t -> t.d)

let state_steps (st : state) : int = st.steps

(* A continuation is stored positionally, as the tree walker's would be
   ({!Interp.cont}): every statement sequence still to run is a suffix of
   some statement list of the compiled program, so its head statement's
   globally unique sid identifies it.  A pending sync-block exit carries
   its lock.  The VM never builds this chain: a resting pc is always a
   statement boundary, and the compile-time template at that pc
   ([bc_templates]) is the chain with the lock objids of its [TUnlock]
   entries left out, refilled from the frame's [sync_stack] (the same
   innermost-first order by construction). *)
type scont = SSeq of int | SUnlock of Value.objid * int

type snap_frame = {
  sn_cont : scont list;  (* outermost-first chain, [] = the implicit return *)
  sn_slots : Value.t array;
  sn_ret_to : int option;
}

type snap_thread = {
  sn_tid : int;
  sn_frames : snap_frame list;
  sn_status : Interp.tstatus;
  sn_held : (Value.objid * int) list;
  sn_wait_restore : int;
  sn_alloc : int;
  sn_d : int;
  sn_sys_idx : int;
  sn_spawn_idx : int;
  sn_started : bool;
}

(** A complete, self-contained checkpoint of a paused run.  Heap fields
    are keyed by field {e name} (not interned id) so a snapshot written by
    one process can be restored by another with a differently-populated
    intern table.  Observable buffers (reads/outputs) are {e not}
    captured: epoch recording drains them at every boundary, so they are
    empty by invariant at snapshot time.  The RNG state is a text token
    ({!Sched.rng_token}). *)
type snapshot = {
  snap_steps : int;
  snap_heap : (Value.objid * string * (string * Value.t) list) list;
      (* (id, class, fields sorted by name), ascending id *)
  snap_threads : snap_thread list;  (* creation order *)
  snap_locks : (Value.objid * (int * int)) list;  (* lock -> owner, count *)
  snap_waitsets : (Value.objid * int list) list;  (* FIFO, oldest first *)
  snap_crashes : Interp.crash list;  (* chronological *)
  snap_rng : string;
}

let encode_frame (p : Bytecode.program) (f : vframe) : snap_frame =
  let locks = ref f.sync_stack in
  let sn_cont =
    List.map
      (function
        | TSeq sid -> SSeq sid
        | TUnlock sid -> (
          match !locks with
          | m :: rest ->
            locks := rest;
            SUnlock (m, sid)
          | [] -> assert false (* template/sync_stack agree by construction *)))
      p.bc_templates.(f.pc)
  in
  { sn_cont; sn_slots = Array.sub f.regs 0 f.nslots; sn_ret_to = f.ret_to }

(** Checkpoint a state paused at a step boundary ({!run_state} [~stop_at]). *)
let snapshot (st : state) : snapshot =
  let snap_thread (t : vthread) =
    {
      sn_tid = t.tid;
      sn_frames = List.map (encode_frame st.prog) t.frames;
      sn_status = t.status;
      sn_held = t.held;
      sn_wait_restore = t.wait_restore;
      sn_alloc = t.alloc;
      sn_d = t.d;
      sn_sys_idx = t.sys_idx;
      sn_spawn_idx = t.spawn_idx;
      sn_started = t.started;
    }
  in
  {
    snap_steps = st.steps;
    snap_heap = heap_objects st;
    snap_threads = List.init st.n_threads (fun i -> snap_thread st.order.(i));
    snap_locks =
      Hashtbl.fold (fun m ov acc -> (m, ov) :: acc) st.locks [] |> List.sort compare;
    snap_waitsets =
      Hashtbl.fold
        (fun m q acc -> (m, List.rev (Queue.fold (fun acc x -> x :: acc) [] q)) :: acc)
        st.waitsets []
      |> List.sort compare;
    snap_crashes = List.rev st.crashes;
    snap_rng = Sched.rng_token st.rng;
  }

let decode_frame (p : Bytecode.program) (f : snap_frame) : vframe =
  match f.sn_cont with
  | [] ->
    (* CDone: the only remaining work is the implicit return at pc 0 *)
    {
      pc = 0;
      regs = Array.copy f.sn_slots;
      nslots = Array.length f.sn_slots;
      ret_to = f.sn_ret_to;
      sync_stack = [];
    }
  | head :: _ ->
    let pc_of sid (tbl : int array) =
      if sid >= 0 && sid < Array.length tbl && tbl.(sid) >= 0 then tbl.(sid)
      else invalid_arg (Printf.sprintf "unknown statement id %d" sid)
    in
    let pc =
      match head with
      | SSeq sid -> pc_of sid p.bc_pc_of_sid
      | SUnlock (_, sid) -> pc_of sid p.bc_exit_pc_of_sid
    in
    let fi = p.bc_fns.(p.bc_fn_of_pc.(pc)) in
    let nslots = Array.length f.sn_slots in
    let regs = Array.make (max fi.fi_nregs nslots) Interp.unbound in
    Array.blit f.sn_slots 0 regs 0 nslots;
    let sync_stack =
      List.filter_map
        (function SUnlock (m, _) -> Some m | SSeq _ -> None)
        f.sn_cont
    in
    { pc; regs; nslots; ret_to = f.sn_ret_to; sync_stack }

(** Rebuild a runnable state from a checkpoint taken of [bp]'s program.
    Raises [Invalid_argument] naming the first statement id the program
    does not have, when the checkpoint belongs to another program, or
    saying why [snap_rng] is no generator state ({!Sched.rng_of_token}). *)
let restore_state ?(hooks = Interp.default_hooks) ?(plan = Plan.all_shared)
    (bp : Bytecode.program) (sn : snapshot) : state =
  let rng =
    match Sched.rng_of_token sn.snap_rng with
    | Ok rng -> rng
    | Error why -> invalid_arg ("bad C rng state: " ^ why)
  in
  let st =
    make_state ~hooks ~plan ~collect_trace:false ~rng
      ~steps:sn.snap_steps
      ~crashes:(List.rev sn.snap_crashes)
      bp
  in
  List.iter
    (fun (id, cls, fields) ->
      Hashtbl.replace st.objs id cls;
      List.iter (fun (fname, v) -> heap_set st.heap id (Loc.fld_of_name fname) v) fields)
    sn.snap_heap;
  List.iter
    (fun (snt : snap_thread) ->
      let t =
        {
          tid = snt.sn_tid;
          frames = List.map (decode_frame bp) snt.sn_frames;
          status = snt.sn_status;
          held = snt.sn_held;
          wait_restore = snt.sn_wait_restore;
          alloc = snt.sn_alloc;
          d = snt.sn_d;
          sys_idx = snt.sn_sys_idx;
          spawn_idx = snt.sn_spawn_idx;
          started = snt.sn_started;
          reads_rev = [];
          outputs_rev = [];
          wait_c = -1;
          wait = 0;
        }
      in
      push_thread st t)
    sn.snap_threads;
  List.iter (fun (m, ov) -> Hashtbl.replace st.locks m ov) sn.snap_locks;
  List.iter
    (fun (m, waiters) ->
      let q = Queue.create () in
      List.iter (fun w -> Queue.push w q) waiters;
      Hashtbl.replace st.waitsets m q)
    sn.snap_waitsets;
  st.dirty <- false;
  st

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let run_program ?hooks ?plan ?max_steps ?collect_trace ?seed ~(sched : Sched.t)
    (bp : Bytecode.program) : Interp.outcome =
  let st = init_state ?hooks ?plan ?collect_trace ?seed bp in
  match run_state ?max_steps ~sched st with
  | Some status -> outcome_of_state st status
  | None -> assert false (* stop_at defaults to max_int: never pauses *)

let run ?hooks ?plan ?max_steps ?collect_trace ?seed ~(sched : Sched.t)
    (program : Ast.program) : Interp.outcome =
  run_program ?hooks ?plan ?max_steps ?collect_trace ?seed ~sched
    (Compile.lower (Interp.compile program))

(* ------------------------------------------------------------------ *)
(* Engine selection (monolithic recording only; replay and epoch       *)
(* recording always run on the VM)                                     *)
(* ------------------------------------------------------------------ *)

type engine = Tree | Bytecode

let engine_name = function Tree -> "tree" | Bytecode -> "bytecode"
