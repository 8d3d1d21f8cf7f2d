(** The Light recording algorithm (Algorithm 1) with its optimizations.

    The recorder is installed as interpreter hooks.  Per shared access
    (including the ghost accesses modeling sync primitives, Section 4.3):

    - writes atomically update the last-write map [lw] (lock-striped atomic
      section + volatile store, cost-charged);
    - reads atomically obtain the last write via the optimistic
      validate-retry of Section 2.3 and record the flow dependence in a
      {e thread-local} buffer — no synchronization on the recording path;
    - the [prec] map (lines 7/9) compresses a write followed by several
      reads from one thread into a single dep with a span;
    - O1 (Lemma 4.3) tracks, per location, the current run of consecutive
      same-thread accesses and records only its endpoints;
    - O2 (Lemma 4.2) skips recording entirely at sites the static analysis
      proves consistently lock-guarded (counters still tick so that
      [(tid, c)] identities align across variants and runs).

    Retries of the optimistic loop are modeled by the stripe-contention
    signal: a validate that races a concurrent writer pays one retry.

    {b Fast path.}  The per-access cost is a few array indexes and integer
    stores, with zero allocation on the common path:

    - the plan decision per site is resolved at prepare time into a byte
      table ({!Runtime.Plan.modes}) — one byte load instead of two closure
      calls into sid-keyed hashtables;
    - one location index ({!Lw}) numbers the locations densely in the
      order they are first touched ({!Pair_index}), and int columns by
      that number hold all a location's per-access state: its last write
      (three int columns, tid -1 before the first write), its contention
      stripe (computed once, when the location is first seen) and its open
      O1 run.  So an access makes one integer-keyed probe and finds its
      feeding write, its run and its stripe there; an update is three
      integer stores — no boxing, no option allocation, no [Loc.t];
    - the v_basic [prec] map is a second index, keyed by (thread,
      location number), over an array of open deps;
    - [seal] closes the open runs in location-number order and then the
      open deps in prec-number order: first-touch order, which follows
      the run alone and not the process's intern ids, so a run's log is
      one byte string whatever else the process did;
    - the stripe's convoy level is kept as a running count of the distinct
      threads in its window ({!Metrics.Cost.touch_stripe}), not recounted;
    - open deps and open runs are all-int mutable records reused in place,
      across seals and recycled sessions too: a location number (or prec
      number) allocates its descriptor once and every subsequent access
      mutates integers;
    - closed records are appended as rows to a {!Log.builder} (9 ints per
      dep, 12 per range, the [_obs] clock stamps packed alongside) in
      emission order.  Those rows are the log: {!seal} hands them out as
      one exact-length copy per record kind, and nothing is materialized
      per record.  The single-domain simulator multiplexes what would be
      per-thread buffers into one buffer per record kind — order equals
      the seed's merged thread-local buffers, so logs are byte-identical. *)

open Runtime

type variant = { o1 : bool; o2 : bool }

let v_basic = { o1 = false; o2 = false }
let v_o1 = { o1 = true; o2 = false }
let v_both = { o1 = true; o2 = true }

let variant_name v =
  match v.o1, v.o2 with
  | false, false -> "basic"
  | true, false -> "O1"
  | false, true -> "O2"
  | true, true -> "O1+O2"

(* open dep being extended by the prec optimization; the [_obs] fields
   carry access-clock stamps for the solver's witness reconstruction.
   All-int and fully mutable: one allocation per prec number, reused in
   place across flushes.  [od_w_t] = -1 encodes the virtual init write;
   [od_rf_t] = -1 marks a descriptor with no open dep. *)
type open_dep = {
  mutable od_w_t : int;
  mutable od_w_c : int;
  mutable od_w_obs : int;
  mutable od_rf_t : int;
  mutable od_rf_c : int;
  mutable od_rl : int;
  mutable od_rl_obs : int;
}

(* open O1 run.  The shape fields classify the run so that closing can pick
   the cheapest sound encoding:
   - reads only                     -> prec-compressed dep on [w_in]
   - writes only                    -> dropped (blind, or referenced later)
   - reads then writes  [R+ W+]     -> dep (w_in -> prefix-read span)
   - writes then reads  [W+ R+]     -> dep (last own write -> trailing span)
   - anything else (a read strictly between writes, or reads on both sides)
                                    -> a range record
   Like [open_dep], one descriptor per location number, allocated at its
   first run and reused in place when the owning thread changes.  [or_t]
   = [no_thread] marks a location with no open run (no thread has that
   id); [or_w_in_t] = -1 encodes "no feeding write". *)
type open_run = {
  mutable or_t : int;
  mutable or_lo : int;
  mutable or_lo_obs : int;              (* access clock at the first access *)
  mutable or_hi : int;
  mutable or_hi_obs : int;              (* access clock at the last access *)
  mutable or_w_in_t : int;
  mutable or_w_in_c : int;
  mutable or_w_obs : int;               (* access clock of [w_in], or 0 *)
  mutable or_prefix_reads : bool;
  mutable or_has_write : bool;
  mutable or_has_read : bool;
  mutable or_middle_read : bool;        (* a read between two own writes *)
  mutable or_last_prefix_read : int;    (* last read before any own write, or 0 *)
  mutable or_last_prefix_read_obs : int;
  mutable or_last_write : int;          (* counter of the last own write, or 0 *)
  mutable or_last_write_obs : int;
  mutable or_first_read_after_w : int;  (* first read after the last own write, or 0 *)
}

let no_thread = min_int

(* a descriptor with no open run *)
let new_run () : open_run =
  { or_t = no_thread; or_lo = 0; or_lo_obs = 0; or_hi = 0; or_hi_obs = 0; or_w_in_t = -1;
    or_w_in_c = -1; or_w_obs = 0; or_prefix_reads = false; or_has_write = false;
    or_has_read = false; or_middle_read = false; or_last_prefix_read = 0;
    or_last_prefix_read_obs = 0; or_last_write = 0; or_last_write_obs = 0;
    or_first_read_after_w = 0 }

(* the run of a location number that has never had one: shared, never
   started or mutated *)
let no_run : open_run = new_run ()

(* ------------------------------------------------------------------ *)
(* Per-location columns                                                *)
(* ------------------------------------------------------------------ *)

(* Everything an access needs about its location, found by one probe of
   [locs], which numbers the locations in first-touch order.  Per number:
   the last write's (tid, counter, access-clock stamp), tid -1 while the
   location has no write (the virtual initialization write, so a read
   copies the three columns as they are); the location's contention
   stripe ({!Metrics.Cost.stripe_of}, computed once at insertion); and its
   open O1 run.  Numbers are never removed between seals. *)
module Lw = struct
  type t = {
    locs : Pair_index.t;  (* (obj, fld) -> location number *)
    mutable wt : int array;
    mutable wc : int array;
    mutable wobs : int array;
    mutable stripe : int array;
    mutable run : open_run array;
  }

  (* the 28 workloads touch at most 276 locations at any scale *)
  let create () =
    let cap = 512 in
    {
      locs = Pair_index.create cap;
      wt = Array.make cap 0;
      wc = Array.make cap 0;
      wobs = Array.make cap 0;
      stripe = Array.make cap 0;
      run = Array.make cap no_run;
    }

  let grow (t : t) : unit =
    let n = Array.length t.wt in
    let wider a = Array.append a (Array.make n 0) in
    t.wt <- wider t.wt;
    t.wc <- wider t.wc;
    t.wobs <- wider t.wobs;
    t.stripe <- wider t.stripe;
    t.run <- Array.append t.run (Array.make n no_run)

  (* location [i]'s first access since the last seal: no write, no run *)
  let insert (t : t) (i : int) ~(obj : int) ~(fld : int) : unit =
    if i = Array.length t.wt then grow t;
    t.wt.(i) <- -1;
    t.wc.(i) <- -1;
    t.wobs.(i) <- 0;
    t.stripe.(i) <- Metrics.Cost.stripe_of obj fld;
    let run = t.run.(i) in
    if run != no_run then run.or_t <- no_thread

  (* the number of location [(obj, fld)], inserted if absent *)
  let[@inline] probe (t : t) ~(obj : int) ~(fld : int) : int =
    let n = Pair_index.length t.locs in
    let i = Pair_index.index t.locs obj fld in
    if i = n then insert t i ~obj ~fld;
    i

  let[@inline] set_write (t : t) (i : int) ~(tid : int) ~(c : int) ~(now : int) : unit =
    Array.unsafe_set t.wt i tid;
    Array.unsafe_set t.wc i c;
    Array.unsafe_set t.wobs i now

  (* forget every location (capacity retained) — epoch sealing: the next
     epoch's readers must see "no last write", i.e. the virtual
     initialization write of the epoch's checkpoint state, and the next
     epoch's accesses open fresh runs *)
  let clear (t : t) : unit = Pair_index.clear t.locs
end

type t = {
  (* [variant], [modes] and [site_hits] are mutable so a long-lived recorder
     can be retargeted to another prepared program by [reset] (the record
     service recycles one recorder per worker domain across sessions) *)
  mutable variant : variant;
  mutable modes : Bytes.t;  (* per-sid plan decision, Plan.m_* encoding *)
  meter : Metrics.Cost.meter;
  stripes : Metrics.Cost.stripes;
  lw : Lw.t;  (* per location: last write with its clock, stripe, open run *)
  (* the prec map: (thread, location number) -> prec number, which
     indexes [deps] *)
  precs : Pair_index.t;
  mutable deps : open_dep array;
  rows : Log.builder;  (* closed records since the last seal *)
  mutable site_hits : int array;  (* per-sid access counts (observability) *)
  mutable accesses : int;  (* global access clock; stamps the [_obs] fields *)
  mutable skipped_guarded : int;
}

let new_dep () : open_dep =
  { od_w_t = -1; od_w_c = -1; od_w_obs = 0; od_rf_t = -1; od_rf_c = 0; od_rl = 0; od_rl_obs = 0 }

let create ?(variant = v_both) ?(weights = Metrics.Cost.default_weights)
    (modes : Bytes.t) : t =
  {
    variant;
    modes;
    meter = Metrics.Cost.meter ~weights ();
    stripes = Metrics.Cost.stripes ();
    lw = Lw.create ();
    precs = Pair_index.create 64;
    deps = Array.init 64 (fun _ -> new_dep ());
    rows = Log.builder ();
    site_hits = Array.make (max 1 (Bytes.length modes)) 0;
    accesses = 0;
    skipped_guarded = 0;
  }

(** Reset-in-place for session recycling: restore exactly the observable
    state of a fresh [create ~variant modes] while retaining every grown
    capacity — the location and prec indexes with their columns and
    descriptors, the dep/range row buffers and the contention-stripe
    rings (~200KB of allocation per session avoided).  Soundness of the
    reuse: recording consults only table {e contents}, never capacity, so
    a cleared-but-bigger structure is indistinguishable from a fresh one
    and recycled sessions produce byte-identical logs (the service tests
    diff them).  [site_hits] is re-zeroed here so profile counts never
    bleed across sessions; it only reallocates when the new program has
    more sites.  The meter's weights are retained. *)
let reset ?variant (r : t) (modes : Bytes.t) : unit =
  (match variant with Some v -> r.variant <- v | None -> ());
  r.modes <- modes;
  Metrics.Cost.reset_meter r.meter;
  Metrics.Cost.reset_stripes r.stripes;
  Lw.clear r.lw;
  Pair_index.clear r.precs;
  Log.clear r.rows;
  let n = max 1 (Bytes.length modes) in
  if Array.length r.site_hits < n then r.site_hits <- Array.make n 0
  else Array.fill r.site_hits 0 (Array.length r.site_hits) 0;
  r.accesses <- 0;
  r.skipped_guarded <- 0

(* location [i]'s open dep [od] becomes a record *)
let emit_dep (r : t) (i : int) (od : open_dep) : unit =
  Metrics.Cost.charge_dep_append r.meter;
  let locs = r.lw.Lw.locs in
  Log.add_dep r.rows locs.fst.(i) locs.snd.(i) od.od_w_t od.od_w_c od.od_w_obs od.od_rf_t
    od.od_rf_c od.od_rl od.od_rl_obs

(* thread [t]'s prec descriptor for location [i], numbered if new (with
   no open dep) *)
let prec (r : t) ~(t : int) (i : int) : open_dep =
  let n = Pair_index.length r.precs in
  let p = Pair_index.index r.precs t i in
  if p < n then Array.unsafe_get r.deps p
  else begin
    if p = Array.length r.deps then
      r.deps <- Array.append r.deps (Array.init p (fun _ -> new_dep ()));
    let od = r.deps.(p) in
    od.od_rf_t <- -1;
    od
  end

(* Algorithm 1, lines 7/9: thread [t]'s reads [rf_c..rl] of location [i],
   all from the write [w_t:w_c], extend the thread's open dep on [i] when
   it has that source (line 7); otherwise the open dep is emitted and
   replaced by this span. *)
let read_span (r : t) (i : int) ~t ~w_t ~w_c ~w_obs ~rf_c ~rl ~rl_obs : unit =
  let od = prec r ~t i in
  if od.od_rf_t >= 0 && od.od_w_t = w_t && od.od_w_c = w_c then begin
    Metrics.Cost.charge_prec_hit r.meter;
    od.od_rl <- rl;
    od.od_rl_obs <- rl_obs
  end
  else begin
    if od.od_rf_t >= 0 then emit_dep r i od;
    od.od_w_t <- w_t;
    od.od_w_c <- w_c;
    od.od_w_obs <- w_obs;
    od.od_rf_t <- t;
    od.od_rf_c <- rf_c;
    od.od_rl <- rl;
    od.od_rl_obs <- rl_obs
  end

(* thread [t]'s open dep on location [i], if any, becomes a record first,
   so records stay disjoint in counter space *)
let flush_prec (r : t) ~(t : int) (i : int) : unit =
  let p = Pair_index.find r.precs t i in
  if p >= 0 then begin
    let od = r.deps.(p) in
    if od.od_rf_t >= 0 then begin
      emit_dep r i od;
      od.od_rf_t <- -1
    end
  end

(* location [i]'s closed run becomes a record *)
let emit_range (r : t) (i : int) (run : open_run) : unit =
  (* Pure-write runs are not recorded: their last write is referenced by the
     next reader's [w_in] if it matters; earlier writes are blind.  Any run
     containing a read must be recorded — its reads need the interval's
     noninterference protection even when they read the run's own writes.
     Read-only runs route through the prec/dep machinery of Algorithm 1:
     a read interval [rf..rl] with source [w_in] has exactly the same
     constraint semantics as a writeless range, and consecutive runs reading
     the same write (common when several threads interleave reads) compress
     into one record. *)
  if run.or_has_read then
    if not run.or_has_write then
      read_span r i ~t:run.or_t ~w_t:run.or_w_in_t ~w_c:run.or_w_in_c ~w_obs:run.or_w_obs
        ~rf_c:run.or_lo ~rl:run.or_hi ~rl_obs:run.or_hi_obs
    else begin
      flush_prec r ~t:run.or_t i;
      Metrics.Cost.charge_dep_append r.meter;
      let obj = r.lw.Lw.locs.Pair_index.fst.(i) and fld = r.lw.Lw.locs.Pair_index.snd.(i) in
      if
        (not run.or_middle_read)
        && not (run.or_last_prefix_read > 0 && run.or_first_read_after_w > 0)
      then
        (* one-sided run: a single dep carries the same constraints as the
           range, one long cheaper.  [R+ W+]: the prefix reads see w_in and
           the trailing writes behave like V_basic writes (last one
           referenced by future readers, earlier ones blind).  [W+ R+]: the
           trailing reads see the run's last own write. *)
        if run.or_first_read_after_w > 0 then
          Log.add_dep r.rows obj fld run.or_t run.or_last_write run.or_last_write_obs run.or_t
            run.or_first_read_after_w run.or_hi run.or_hi_obs
        else
          Log.add_dep r.rows obj fld run.or_w_in_t run.or_w_in_c run.or_w_obs run.or_t run.or_lo
            run.or_last_prefix_read run.or_last_prefix_read_obs
      else
        Log.add_range r.rows obj fld run.or_t run.or_lo run.or_hi run.or_w_in_t run.or_w_in_c
          (Bool.to_int run.or_prefix_reads) (Bool.to_int run.or_has_write) run.or_hi_obs
          run.or_lo_obs run.or_w_obs
    end

(* ------------------------------------------------------------------ *)
(* Access handling                                                     *)
(* ------------------------------------------------------------------ *)

(* Start [run] afresh at thread [tid]'s access [c] with clock [now]: a
   read takes the last write of location [i] (tid -1 when it has none) as
   the run's feeding write. *)
let start_run (lw : Lw.t) (i : int) (run : open_run) ~tid ~c ~now ~(is_read : bool) : unit =
  run.or_t <- tid;
  run.or_lo <- c;
  run.or_lo_obs <- now;
  run.or_hi <- c;
  run.or_hi_obs <- now;
  (if is_read then begin
     run.or_w_in_t <- Array.unsafe_get lw.Lw.wt i;
     run.or_w_in_c <- Array.unsafe_get lw.Lw.wc i;
     run.or_w_obs <- Array.unsafe_get lw.Lw.wobs i
   end
   else begin
     run.or_w_in_t <- -1;
     run.or_w_in_c <- -1;
     run.or_w_obs <- 0
   end);
  run.or_prefix_reads <- is_read;
  run.or_has_write <- not is_read;
  run.or_has_read <- is_read;
  run.or_middle_read <- false;
  run.or_last_prefix_read <- (if is_read then c else 0);
  run.or_last_prefix_read_obs <- (if is_read then now else 0);
  run.or_last_write <- (if is_read then 0 else c);
  run.or_last_write_obs <- (if is_read then 0 else now);
  run.or_first_read_after_w <- 0

(* One shared access: thread [tid]'s access [c] to [obj.fld] at [site];
   {!hooks} installs it as the interpreters' [on_shared]. *)
let access (r : t) ~(tid : int) ~(c : int) ~(obj : int) ~(fld : int) ~(kind : Event.akind)
    ~(site : int) ~(ghost : Event.ghost_kind) : unit =
  let open Metrics.Cost in
  r.accesses <- r.accesses + 1;
  if site >= 0 && site < Array.length r.site_hits then
    Array.unsafe_set r.site_hits site (Array.unsafe_get r.site_hits site + 1);
  let guarded =
    ghost = NotGhost && r.variant.o2
    && site >= 0
    && site < Bytes.length r.modes
    && Bytes.unsafe_get r.modes site = Plan.m_guarded
  in
  if guarded then begin
    (* O2: the guarding lock's ghost deps subsume this access; the woven
       code keeps only an inlined counter increment — no recording, no lw
       update (every site on this location is guarded, so lw is never
       consulted for it either) *)
    charge_guarded_tick r.meter;
    r.skipped_guarded <- r.skipped_guarded + 1
  end
  else begin
    charge_tick r.meter;
    let now = r.accesses in  (* this access's clock stamp *)
    let lw = r.lw in
    let i = Lw.probe lw ~obj ~fld in  (* the one lookup of this access *)
    if r.variant.o1 then begin
      (* O1 run tracking: extending the thread's own run is a thread-local
         fast path; breaking another thread's run takes the striped atomic *)
      let run = Array.unsafe_get lw.Lw.run i in
      if run.or_t = tid then begin
        charge_extend r.meter;
        run.or_hi <- c;
        run.or_hi_obs <- now;
        match kind with
        | Write ->
          if run.or_first_read_after_w > 0 then run.or_middle_read <- true;
          run.or_has_write <- true;
          run.or_last_write <- c;
          run.or_last_write_obs <- now;
          run.or_first_read_after_w <- 0
        | Read ->
          run.or_has_read <- true;
          if not run.or_has_write then begin
            run.or_last_prefix_read <- c;
            run.or_last_prefix_read_obs <- now
          end
          else if run.or_first_read_after_w = 0 then run.or_first_read_after_w <- c
      end
      else begin
        let level = touch_stripe r.stripes (Array.unsafe_get lw.Lw.stripe i) ~tid in
        charge_switch r.meter ~level;
        let run =
          if run != no_run then begin
            (* another thread's run: close it and reuse its descriptor in
               place *)
            if run.or_t <> no_thread then emit_range r i run;
            run
          end
          else begin
            let run = new_run () in
            lw.Lw.run.(i) <- run;
            run
          end
        in
        start_run lw i run ~tid ~c ~now ~is_read:(kind = Event.Read)
      end;
      if kind = Event.Write then Lw.set_write lw i ~tid ~c ~now
    end
    else begin
      (* Algorithm 1 verbatim *)
      let level = touch_stripe r.stripes (Array.unsafe_get lw.Lw.stripe i) ~tid in
      match kind with
      | Write ->
        charge_lw r.meter ~level;
        Lw.set_write lw i ~tid ~c ~now
      | Read ->
        charge_validate r.meter ~level;
        read_span r i ~t:tid ~w_t:(Array.unsafe_get lw.Lw.wt i)
          ~w_c:(Array.unsafe_get lw.Lw.wc i) ~w_obs:(Array.unsafe_get lw.Lw.wobs i) ~rf_c:c
          ~rl:c ~rl_obs:now
    end
  end

(* ------------------------------------------------------------------ *)
(* Finalization                                                        *)
(* ------------------------------------------------------------------ *)

(** Close out everything recorded since the previous seal (or creation) and
    return it as a [Log.t].  Unlike a plain flush this also {e clears} the
    last-write table, so accesses recorded after a seal reference writes
    from before it as source tid -1 — the virtual initialization write, whose
    value is supplied by the epoch's checkpoint.  That one invariant is what
    makes each sealed log a self-contained per-epoch constraint system.
    The access clock, site-hit counts and cost meter stay cumulative across
    seals. *)
let seal (r : t) ~(syscalls : (int * int * string * Value.t) list)
    ~(counters : (int * int) list) : Log.t =
  (* flush open runs first, in location-number order: read-only runs drain
     into the prec map, which is flushed afterwards in prec-number order *)
  let lw = r.lw in
  for i = 0 to Pair_index.length lw.Lw.locs - 1 do
    let run = lw.Lw.run.(i) in
    if run.or_t <> no_thread then emit_range r i run
  done;
  for p = 0 to Pair_index.length r.precs - 1 do
    let od = r.deps.(p) in
    if od.od_rf_t >= 0 then emit_dep r r.precs.Pair_index.snd.(p) od
  done;
  Pair_index.clear r.precs;
  Lw.clear lw;
  { (Log.build r.rows ~o1:r.variant.o1 ~o2:r.variant.o2) with syscalls; counters }

let finalize (r : t) ~(outcome : Interp.outcome) : Log.t =
  seal r ~syscalls:outcome.syscalls ~counters:outcome.counters

(** Interpreter hooks for a recording run (the allocation-free flattened
    access hook; no [Event.t] is ever constructed). *)
let hooks (r : t) : Interp.hooks =
  {
    Interp.default_hooks with
    on_shared =
      Some
        (fun ~tid ~c ~obj ~fld ~kind ~site ~ghost ->
          access r ~tid ~c ~obj ~fld ~kind ~site ~ghost);
  }

let meter (r : t) : Metrics.Cost.meter = r.meter

let site_hits (r : t) : int array = r.site_hits

(** Cumulative access-clock value: total instrumented accesses recorded so
    far, across every sealed epoch (never reset by {!seal}). *)
let accesses (r : t) : int = r.accesses
