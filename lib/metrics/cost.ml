(** Instrumentation cost model.

    The paper measures wall-clock slowdown of JVM bytecode instrumentation
    on an 8-core x86 machine; that is not reproducible inside a simulator,
    so each recording tool is charged for the operations it performs.  Unit
    weights approximate x86/JVM costs (1 unit ~ 1ns for an interpreted
    transition of ~110 units).

    Contention is first-class: per lock stripe (2^10 stripes hashed by
    location, as in Section 4.1) we track a {e convoy level} — how many
    consecutive accesses arrived from alternating threads — and charge
    level-proportional penalties.  This is what separates the tools: Leap's
    synchronized vector append holds the stripe lock across container
    bookkeeping, so under contention every waiter pays the full critical
    section (the paper's up-to-17.85X cases); Light's atomic sections
    protect a single last-write store, so its convoy penalty is an order of
    magnitude smaller.

    Overhead of a run = charged units / (steps * w_step), the paper's
    "X% overhead" notion.  Space is counted separately in long-integer
    units (Log.space_longs and the tools' own accounting). *)

type op =
  | LwUpdate of { level : int }
      (** Light write path: striped atomic section + volatile last-write store *)
  | ValidateRead of { level : int }
      (** Light read path: optimistic read/validate; retries under contention *)
  | RunExtend
      (** O1 fast path: the access extends the thread's own run — no atomic
          section, but still an optimistic read of the shared run descriptor *)
  | RunSwitch of { level : int }
      (** O1 slow path: closing another thread's run and opening ours *)
  | DepAppend   (** thread-local dependence-buffer append *)
  | PrecHit     (** Algorithm 1 line 7: same write as previous read *)
  | SyncVectorAppend of { level : int; resize : bool }
      (** Leap: synchronized global vector append (+ amortized resize) *)
  | CasIncrement of { level : int }  (** Stride write: version CAS *)
  | VersionRead of { level : int }   (** Stride read: hot version-slot load *)
  | LocalAppend                      (** generic thread-local buffer append *)
  | GuardedTick
      (** O2-subsumed site: the transformer weaves only an inlined counter
          increment — no hook dispatch, no atomic, no recording *)
  | CounterTick
      (** per-access instrumentation dispatch + D(t) increment: the fixed
          floor every tool pays at every instrumented access *)

type weights = {
  w_step : int;
  w_lw : int;
  w_lw_level : int;
  w_validate : int;
  w_validate_level : int;
  w_extend : int;
  w_switch : int;
  w_switch_level : int;
  w_dep_append : int;
  w_prec_hit : int;
  w_sync_append : int;
  w_resize : int;
  w_sync_level : int;
  w_cas : int;
  w_cas_level : int;
  w_version : int;
  w_version_level : int;
  w_local_append : int;
  w_guarded_tick : int;
  w_tick : int;
}

let default_weights : weights =
  {
    w_step = 110;
    w_lw = 205;          (* striped lock enter/exit + volatile store + fence *)
    w_lw_level = 42;
    w_validate = 92;     (* two volatile loads bracketing the access *)
    w_validate_level = 30;
    w_extend = 34;
    w_switch = 64;
    w_switch_level = 48;
    w_dep_append = 9;
    w_prec_hit = 4;
    w_sync_append = 820;
    w_resize = 34;
    w_sync_level = 330;
    w_cas = 860;
    w_cas_level = 390;
    w_version = 790;
    w_version_level = 350;
    w_local_append = 7;
    w_guarded_tick = 6;
    (* per-access instrumentation dispatch (hook call + thread-local counter
       + site-table lookup): the overhead floor every tool pays — including
       at O2-subsumed sites, where it is the only remaining cost *)
    w_tick = 30;
  }

let cost ?(w = default_weights) (op : op) : int =
  match op with
  | LwUpdate { level } -> w.w_lw + (level * w.w_lw_level)
  | ValidateRead { level } -> w.w_validate + (level * w.w_validate_level)
  | RunExtend -> w.w_extend
  | RunSwitch { level } -> w.w_switch + (level * w.w_switch_level)
  | DepAppend -> w.w_dep_append
  | PrecHit -> w.w_prec_hit
  | SyncVectorAppend { level; resize } ->
    w.w_sync_append + (level * w.w_sync_level) + if resize then w.w_resize else 0
  | CasIncrement { level } -> w.w_cas + (level * w.w_cas_level)
  | VersionRead { level } -> w.w_version + (level * w.w_version_level)
  | LocalAppend -> w.w_local_append
  | GuardedTick -> w.w_guarded_tick
  | CounterTick -> w.w_tick

(** Mutable accumulator shared by a tool's hooks during one run. *)
type meter = {
  mutable units : int;
  mutable ops : int;
  weights : weights;
}

let meter ?(weights = default_weights) () = { units = 0; ops = 0; weights }

(** Zero the accumulator for a recycled recorder's next session (weights are
    part of the meter's identity and are retained). *)
let reset_meter (m : meter) : unit =
  m.units <- 0;
  m.ops <- 0

(** Snapshot a meter whose accumulator will keep mutating (a recycled
    recorder's recording keeps the values of {e its} session). *)
let copy_meter (m : meter) : meter = { m with units = m.units }

let charge (m : meter) (op : op) : unit =
  m.units <- m.units + cost ~w:m.weights op;
  m.ops <- m.ops + 1

(* Direct charge entry points for the recording fast path: equivalent to
   [charge m (Op {...})] but without constructing the [op] block, so a hot
   per-access charge allocates nothing.  Weights are read from the meter, so
   units match [cost] exactly. *)

let[@inline] charge_units (m : meter) (u : int) : unit =
  m.units <- m.units + u;
  m.ops <- m.ops + 1

let[@inline] charge_tick (m : meter) : unit = charge_units m m.weights.w_tick

let[@inline] charge_guarded_tick (m : meter) : unit =
  charge_units m m.weights.w_guarded_tick

let[@inline] charge_extend (m : meter) : unit = charge_units m m.weights.w_extend

let[@inline] charge_switch (m : meter) ~(level : int) : unit =
  charge_units m (m.weights.w_switch + (level * m.weights.w_switch_level))

let[@inline] charge_lw (m : meter) ~(level : int) : unit =
  charge_units m (m.weights.w_lw + (level * m.weights.w_lw_level))

let[@inline] charge_validate (m : meter) ~(level : int) : unit =
  charge_units m (m.weights.w_validate + (level * m.weights.w_validate_level))

let[@inline] charge_dep_append (m : meter) : unit =
  charge_units m m.weights.w_dep_append

let[@inline] charge_prec_hit (m : meter) : unit =
  charge_units m m.weights.w_prec_hit

(** Recording overhead relative to the uninstrumented run, as a fraction
    (0.44 = 44%), given the interpreter step count of the run. *)
let overhead (m : meter) ~(steps : int) : float =
  if steps = 0 then 0.0
  else float_of_int m.units /. float_of_int (steps * m.weights.w_step)

(* ------------------------------------------------------------------ *)
(* Lock striping with convoy tracking                                   *)
(* ------------------------------------------------------------------ *)

(* Each stripe remembers its last [window] accessor thread ids; the convoy
   level is the number of *other* distinct threads in that window — an
   estimate of how many cores are pulling the stripe's cache line.  The
   stripe also keeps the number of distinct thread ids in its window,
   updated from the evicted and the inserted id: nothing to do when they
   are equal, otherwise one scan of the window tells whether the evicted id
   left it and whether the inserted one is new.  The level is that count
   less the accessing thread, exactly the recount of the window. *)

let window = 8

type stripes = {
  ring : int array;      (* nstripes * window recent tids, -1 = empty *)
  pos : int array;       (* per stripe, the ring slot written next *)
  distinct : int array;  (* per stripe, distinct tids >= 0 in the ring *)
}

let nstripes = 1024

let stripes () =
  {
    ring = Array.make (nstripes * window) (-1);
    pos = Array.make nstripes 0;
    distinct = Array.make nstripes 0;
  }

(** Forget all convoy history (capacity retained): a recycled recorder's next
    session must see exactly the contention state a fresh recorder would. *)
let reset_stripes (s : stripes) : unit =
  Array.fill s.ring 0 (Array.length s.ring) (-1);
  Array.fill s.pos 0 (Array.length s.pos) 0;
  Array.fill s.distinct 0 (Array.length s.distinct) 0

(** The stripe of location [(obj, fld)]: its {!Runtime.Loc.hash}, masked
    (computed from the two ints, so no [Loc.t] is built). *)
let stripe_of (obj : int) (fld : int) : int = Hashtbl.hash ((obj * 65599) + fld) land (nstripes - 1)

(** {!touch} on a stripe index from {!stripe_of}, for callers that cache it
    per location. *)
let touch_stripe (s : stripes) (i : int) ~(tid : int) : int =
  let i = i land (nstripes - 1) in
  let base = i * window in
  let p = Array.unsafe_get s.pos i in
  let evicted = Array.unsafe_get s.ring (base + p) in
  Array.unsafe_set s.pos i ((p + 1) land (window - 1));
  if evicted <> tid then begin
    Array.unsafe_set s.ring (base + p) tid;
    let ev = ref 0 and ins = ref 0 in
    for j = base to base + window - 1 do
      let t = Array.unsafe_get s.ring j in
      if t = evicted then incr ev else if t = tid then incr ins
    done;
    let d = Array.unsafe_get s.distinct i in
    let d = if evicted >= 0 && !ev = 0 then d - 1 else d in
    Array.unsafe_set s.distinct i (if tid >= 0 && !ins = 1 then d + 1 else d)
  end;
  let d = Array.unsafe_get s.distinct i in
  if tid >= 0 then d - 1 else d

(** Record an access to [l] by [tid]; returns the stripe's convoy level
    (0 = uncontended: no other thread in the recent window). *)
let touch (s : stripes) (l : Runtime.Loc.t) ~(tid : int) : int =
  touch_stripe s (stripe_of l.obj l.fld) ~tid
