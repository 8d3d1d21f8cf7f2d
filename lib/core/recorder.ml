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
    - one flat open-addressing table ({!Lw}) over the packed interned
      [Loc.t] holds all a location's per-access state: its last write
      (three int columns, tid -1 before the first write), its contention
      stripe (computed once, when the location is first seen) and its open
      O1 run.  So an access makes one integer-hashed probe, with integer
      compares on int arrays, and finds its feeding write, its run and its
      stripe there; an update is three integer stores — no boxing, no
      option allocation, no [Loc.Tbl] lookup.  The table is never
      iterated, so record order is untouched: [seal] closes the runs in
      the order of [runs], a [Loc.Tbl] a location joins only with its
      first run of an epoch;
    - the stripe's convoy level is kept as a running count of the distinct
      threads in its window ({!Metrics.Cost.touch_stripe}), not recounted;
    - open deps and open runs are all-int mutable records reused in place:
      a (thread, loc) allocates its descriptor once and every subsequent
      access mutates integers (the seed allocated a fresh record and an
      option per prec replacement);
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
   All-int and fully mutable: one allocation per (thread, loc), reused in
   place across flushes.  [od_w_t] = -1 encodes the virtual init write. *)
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
   Like [open_dep], one descriptor per location, reused in place when the
   owning thread changes.  [or_w_in_t] = -1 encodes "no feeding write". *)
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

(* ------------------------------------------------------------------ *)
(* Flat per-location table                                             *)
(* ------------------------------------------------------------------ *)

(* The run a location has before its first access in an epoch: its thread
   id is no thread's, so the extend test needs no separate emptiness test.
   Never started or mutated. *)
let no_run : open_run =
  { or_t = min_int; or_lo = 0; or_lo_obs = 0; or_hi = 0; or_hi_obs = 0; or_w_in_t = -1;
    or_w_in_c = -1; or_w_obs = 0; or_prefix_reads = false; or_has_write = false;
    or_has_read = false; or_middle_read = false; or_last_prefix_read = 0;
    or_last_prefix_read_obs = 0; or_last_write = 0; or_last_write_obs = 0;
    or_first_read_after_w = 0 }

(* Everything an access needs about its location, found by one probe.
   Open addressing, power-of-two capacity, linear probing; keys are the two
   [Loc.t] immediates in parallel int columns ([kobj] = min_int marks an
   empty slot: object ids are small positive or small negative ghost ids).
   Per key: the last write's (tid, counter, access-clock stamp), tid -1
   while the location has no write (the virtual initialization write, so a
   read copies the three columns as they are); the location's contention
   stripe ({!Metrics.Cost.stripe_of}, computed once at insertion); and its
   open O1 run, [no_run] before the first.  Entries are never removed
   between seals; the table doubles at 50% load. *)
module Lw = struct
  type t = {
    mutable mask : int;
    mutable kobj : int array;
    mutable kfld : int array;
    mutable wt : int array;
    mutable wc : int array;
    mutable wobs : int array;
    mutable stripe : int array;
    mutable run : open_run array;
    mutable n : int;
  }

  let empty_key = min_int

  (* 511 locations before the first doubling; the 28 workloads touch at
     most 276 at any scale *)
  let create () =
    let cap = 1024 in
    {
      mask = cap - 1;
      kobj = Array.make cap empty_key;
      kfld = Array.make cap 0;
      wt = Array.make cap 0;
      wc = Array.make cap 0;
      wobs = Array.make cap 0;
      stripe = Array.make cap 0;
      run = Array.make cap no_run;
      n = 0;
    }

  let[@inline] hash (obj : int) (fld : int) : int =
    let h = (obj * 65599) + fld in
    let h = h * 0x9E3779B1 in
    (h lxor (h lsr 16)) land max_int

  (* slot holding (obj, fld), or the empty slot where it would go *)
  let[@inline] slot (t : t) (obj : int) (fld : int) : int =
    let mask = t.mask in
    let i = ref (hash obj fld land mask) in
    while
      (let o = Array.unsafe_get t.kobj !i in
       o <> empty_key && not (o = obj && Array.unsafe_get t.kfld !i = fld))
    do
      i := (!i + 1) land mask
    done;
    !i

  let grow (t : t) : unit =
    let old_obj = t.kobj and old_fld = t.kfld in
    let old_wt = t.wt and old_wc = t.wc and old_wobs = t.wobs in
    let old_stripe = t.stripe and old_run = t.run in
    let cap = 2 * (t.mask + 1) in
    t.mask <- cap - 1;
    t.kobj <- Array.make cap empty_key;
    t.kfld <- Array.make cap 0;
    t.wt <- Array.make cap 0;
    t.wc <- Array.make cap 0;
    t.wobs <- Array.make cap 0;
    t.stripe <- Array.make cap 0;
    t.run <- Array.make cap no_run;
    Array.iteri
      (fun i o ->
        if o <> empty_key then begin
          let j = slot t o old_fld.(i) in
          t.kobj.(j) <- o;
          t.kfld.(j) <- old_fld.(i);
          t.wt.(j) <- old_wt.(i);
          t.wc.(j) <- old_wc.(i);
          t.wobs.(j) <- old_wobs.(i);
          t.stripe.(j) <- old_stripe.(i);
          t.run.(j) <- old_run.(i)
        end)
      old_obj

  (* a location's first access since the last seal: no write, no run *)
  let insert (t : t) (loc : Loc.t) (i : int) : int =
    let i =
      if 2 * (t.n + 1) > t.mask then begin
        grow t;
        slot t loc.obj loc.fld
      end
      else i
    in
    t.n <- t.n + 1;
    t.kobj.(i) <- loc.obj;
    t.kfld.(i) <- loc.fld;
    t.wt.(i) <- -1;
    t.wc.(i) <- -1;
    t.wobs.(i) <- 0;
    t.stripe.(i) <- Metrics.Cost.stripe_of loc;
    t.run.(i) <- no_run;
    i

  (* the slot of [loc], inserted if absent *)
  let[@inline] probe (t : t) (loc : Loc.t) : int =
    let i = slot t loc.obj loc.fld in
    if Array.unsafe_get t.kobj i <> empty_key then i else insert t loc i

  let[@inline] set_write (t : t) (i : int) ~(tid : int) ~(c : int) ~(now : int) : unit =
    Array.unsafe_set t.wt i tid;
    Array.unsafe_set t.wc i c;
    Array.unsafe_set t.wobs i now

  (* forget every entry (capacity retained) — epoch sealing: the next
     epoch's readers must see "no last write", i.e. the virtual
     initialization write of the epoch's checkpoint state, and the next
     epoch's accesses open fresh runs *)
  let clear (t : t) : unit =
    Array.fill t.kobj 0 (Array.length t.kobj) empty_key;
    Array.fill t.run 0 (Array.length t.run) no_run;
    t.n <- 0
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
  (* V_basic path: prec per (thread, loc) *)
  prec : (int, open_dep Loc.Tbl.t) Hashtbl.t;
  (* O1 path: the open runs of [lw], in the order [seal] closes them *)
  runs : open_run Loc.Tbl.t;
  rows : Log.builder;  (* closed records since the last seal *)
  mutable site_hits : int array;  (* per-sid access counts (observability) *)
  mutable accesses : int;  (* global access clock; stamps the [_obs] fields *)
  mutable skipped_guarded : int;
}

let create ?(variant = v_both) ?(weights = Metrics.Cost.default_weights)
    (modes : Bytes.t) : t =
  {
    variant;
    modes;
    meter = Metrics.Cost.meter ~weights ();
    stripes = Metrics.Cost.stripes ();
    lw = Lw.create ();
    prec = Hashtbl.create 16;
    runs = Loc.Tbl.create 1024;
    rows = Log.builder ();
    site_hits = Array.make (max 1 (Bytes.length modes)) 0;
    accesses = 0;
    skipped_guarded = 0;
  }

(** Reset-in-place for session recycling: restore exactly the observable
    state of a fresh [create ~variant modes] while retaining every grown
    capacity — the location table's seven parallel arrays, the dep/range
    row buffers, the open-run and prec hash tables' buckets, and the
    contention-stripe rings (~200KB of allocation per session avoided).
    Soundness of the reuse: recording consults only table {e contents},
    never capacity, so a cleared-but-bigger structure is indistinguishable
    from a fresh one and recycled sessions produce byte-identical logs (the
    service tests diff them).  [site_hits] is re-zeroed here so profile
    counts never bleed across sessions; it only reallocates when the new
    program has more sites.  The meter's weights are retained. *)
let reset ?variant (r : t) (modes : Bytes.t) : unit =
  (match variant with Some v -> r.variant <- v | None -> ());
  r.modes <- modes;
  Metrics.Cost.reset_meter r.meter;
  Metrics.Cost.reset_stripes r.stripes;
  Lw.clear r.lw;
  (* keep the per-thread prec tables themselves: the next session almost
     always runs the same tid range, so the outer table and the inner
     buckets are both warm *)
  Hashtbl.iter (fun _ tbl -> Loc.Tbl.clear tbl) r.prec;
  Loc.Tbl.clear r.runs;
  Log.clear r.rows;
  let n = max 1 (Bytes.length modes) in
  if Array.length r.site_hits < n then r.site_hits <- Array.make n 0
  else Array.fill r.site_hits 0 (Array.length r.site_hits) 0;
  r.accesses <- 0;
  r.skipped_guarded <- 0

let emit_dep (r : t) (loc : Loc.t) (od : open_dep) : unit =
  Metrics.Cost.charge_dep_append r.meter;
  Log.add_dep r.rows loc.obj loc.fld od.od_w_t od.od_w_c od.od_w_obs od.od_rf_t od.od_rf_c
    od.od_rl od.od_rl_obs

let prec_of (r : t) (tid : int) : open_dep Loc.Tbl.t =
  match Hashtbl.find r.prec tid with
  | h -> h
  | exception Not_found ->
    let h = Loc.Tbl.create 64 in
    Hashtbl.add r.prec tid h;
    h

(* Algorithm 1, lines 7/9: thread [t]'s reads [rf_c..rl] of [loc], all
   from the write [w_t:w_c], extend the thread's open dep on [loc] when it
   has that source (line 7); otherwise the open dep is emitted and
   replaced by this span. *)
let read_span (r : t) (loc : Loc.t) ~t ~w_t ~w_c ~w_obs ~rf_c ~rl ~rl_obs : unit =
  let prec = prec_of r t in
  match Loc.Tbl.find prec loc with
  | od when od.od_w_t = w_t && od.od_w_c = w_c ->
    Metrics.Cost.charge_prec_hit r.meter;
    od.od_rl <- rl;
    od.od_rl_obs <- rl_obs
  | od ->
    emit_dep r loc od;
    od.od_w_t <- w_t;
    od.od_w_c <- w_c;
    od.od_w_obs <- w_obs;
    od.od_rf_t <- t;
    od.od_rf_c <- rf_c;
    od.od_rl <- rl;
    od.od_rl_obs <- rl_obs
  | exception Not_found ->
    Loc.Tbl.add prec loc
      { od_w_t = w_t; od_w_c = w_c; od_w_obs = w_obs; od_rf_t = t; od_rf_c = rf_c; od_rl = rl;
        od_rl_obs = rl_obs }

let emit_range (r : t) (loc : Loc.t) (run : open_run) : unit =
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
      read_span r loc ~t:run.or_t ~w_t:run.or_w_in_t ~w_c:run.or_w_in_c ~w_obs:run.or_w_obs
        ~rf_c:run.or_lo ~rl:run.or_hi ~rl_obs:run.or_hi_obs
    else if
      (not run.or_middle_read)
      && not (run.or_last_prefix_read > 0 && run.or_first_read_after_w > 0)
    then begin
      (* one-sided run: a single dep carries the same constraints as the
         range, one long cheaper.  [R+ W+]: the prefix reads see w_in and the
         trailing writes behave like V_basic writes (last one referenced by
         future readers, earlier ones blind).  [W+ R+]: the trailing reads
         see the run's last own write. *)
      let prec = prec_of r run.or_t in
      (match Loc.Tbl.find prec loc with
      | od ->
        emit_dep r loc od;
        Loc.Tbl.remove prec loc
      | exception Not_found -> ());
      Metrics.Cost.charge_dep_append r.meter;
      if run.or_first_read_after_w > 0 then
        Log.add_dep r.rows loc.obj loc.fld run.or_t run.or_last_write run.or_last_write_obs
          run.or_t run.or_first_read_after_w run.or_hi run.or_hi_obs
      else
        Log.add_dep r.rows loc.obj loc.fld run.or_w_in_t run.or_w_in_c run.or_w_obs run.or_t
          run.or_lo run.or_last_prefix_read run.or_last_prefix_read_obs
    end
    else begin
      (* write-containing run: the prec entry for this (thread, loc) must be
         flushed first so records stay disjoint in counter space *)
      let prec = prec_of r run.or_t in
      (match Loc.Tbl.find prec loc with
      | od ->
        emit_dep r loc od;
        Loc.Tbl.remove prec loc
      | exception Not_found -> ());
      Metrics.Cost.charge_dep_append r.meter;
      Log.add_range r.rows loc.obj loc.fld run.or_t run.or_lo run.or_hi run.or_w_in_t
        run.or_w_in_c (Bool.to_int run.or_prefix_reads) (Bool.to_int run.or_has_write)
        run.or_hi_obs run.or_lo_obs run.or_w_obs
    end

(* ------------------------------------------------------------------ *)
(* Access handling                                                     *)
(* ------------------------------------------------------------------ *)

(* Start [run] afresh at thread [tid]'s access [c] with clock [now]: a
   read takes the last write of the location at [lw] slot [i] (tid -1 when
   it has none) as the run's feeding write. *)
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

let on_access_fast (r : t) ~(tid : int) ~(c : int) ~(loc : Loc.t)
    ~(kind : Event.akind) ~(site : int) ~(ghost : Event.ghost_kind) : unit =
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
    let i = Lw.probe lw loc in  (* the one lookup of this access *)
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
        if run != no_run then begin
          (* another thread's run: close it and reuse its descriptor in place *)
          emit_range r loc run;
          start_run lw i run ~tid ~c ~now ~is_read:(kind = Event.Read)
        end
        else begin
          (* the location's first run since the last seal: [seal] closes
             the runs in [r.runs] order *)
          let run = { no_run with or_t = tid } in
          start_run lw i run ~tid ~c ~now ~is_read:(kind = Event.Read);
          lw.Lw.run.(i) <- run;
          Loc.Tbl.add r.runs loc run
        end
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
        read_span r loc ~t:tid ~w_t:(Array.unsafe_get lw.Lw.wt i)
          ~w_c:(Array.unsafe_get lw.Lw.wc i) ~w_obs:(Array.unsafe_get lw.Lw.wobs i) ~rf_c:c
          ~rl:c ~rl_obs:now
    end
  end

(** Exposed for white-box tests; [hooks] routes accesses through the
    flattened fast path directly. *)
let on_access (r : t) (a : Event.access) : unit =
  on_access_fast r ~tid:a.tid ~c:a.c ~loc:a.loc ~kind:a.kind ~site:a.site ~ghost:a.ghost

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
  (* flush open runs first: read-only runs drain into the prec map, which is
     flushed afterwards *)
  Loc.Tbl.iter (fun loc run -> emit_range r loc run) r.runs;
  Loc.Tbl.reset r.runs;
  Hashtbl.iter (fun _ tbl -> Loc.Tbl.iter (fun loc od -> emit_dep r loc od) tbl) r.prec;
  Hashtbl.reset r.prec;
  Lw.clear r.lw;
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
        (fun ~tid ~c ~loc ~kind ~site ~ghost ->
          on_access_fast r ~tid ~c ~loc ~kind ~site ~ghost);
  }

let meter (r : t) : Metrics.Cost.meter = r.meter

let site_hits (r : t) : int array = r.site_hits

(** Cumulative access-clock value: total instrumented accesses recorded so
    far, across every sealed epoch (never reset by {!seal}). *)
let accesses (r : t) : int = r.accesses
