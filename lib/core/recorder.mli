(** The Light recording algorithm (Algorithm 1) with its optimizations,
    installed as interpreter hooks.

    Per shared access (including the ghost accesses that model sync
    primitives, Section 4.3): writes atomically update the last-write map;
    reads obtain it through the optimistic validate of Section 2.3 and
    record the flow dependence in a thread-local buffer.  The [prec] map
    (Algorithm 1, lines 7/9) compresses a write followed by several reads
    from one thread; O1 (Lemma 4.3) records only the endpoints of
    non-interleaved same-thread runs; O2 (Lemma 4.2) skips recording at
    sites the static analysis proves consistently lock-guarded.

    The per-access fast path is allocation-free: the plan decision is a
    byte load from the baked {!Runtime.Plan.modes} table, one probe of a
    location index ({!Pair_index}) finds the location's last write, open
    run and contention stripe, and closed records are appended
    as the log's own rows ({!Log.builder}); {!finalize} and {!seal} hand
    them out as one exact-length copy per record kind, the records still
    open closed in the order their locations were first touched. *)

open Runtime

type variant = { o1 : bool; o2 : bool }

val v_basic : variant
val v_o1 : variant
val v_both : variant
val variant_name : variant -> string

type t

val create : ?variant:variant -> ?weights:Metrics.Cost.weights -> Bytes.t -> t
(** [create modes] builds a recorder over the per-site decision table baked
    by {!Runtime.Plan.modes} (one byte per static site id). *)

val reset : ?variant:variant -> t -> Bytes.t -> unit
(** [reset r modes] retargets [r] to a new session over [modes] in place:
    observationally identical to a fresh [create] (cleared last-write
    table, row buffers, open runs/deps, access clock, {!site_hits}, cost meter
    and contention stripes — recycled sessions produce byte-identical
    logs) but retaining every grown capacity, so a long-lived worker pays
    no per-session allocation.  Omitting [?variant] keeps the current
    variant; the meter's weights are always retained. *)

val hooks : t -> Interp.hooks
(** Interpreter hooks for a recording run: the allocation-free
    [on_shared] hook, which is the recorder's one entry point for
    accesses. *)

val finalize : t -> outcome:Interp.outcome -> Log.t
(** Flush open records and hand out the log (the merged thread-local
    row buffers, with the syscall values and final counters). *)

val seal :
  t ->
  syscalls:(int * int * string * Value.t) list ->
  counters:(int * int) list ->
  Log.t
(** Epoch boundary: like {!finalize} but callable mid-run, attaching the
    window's syscalls and the current counter watermark.  Also clears the
    last-write table, so accesses after the seal record pre-seal writes as
    the virtual initialization write (source tid -1) — their values come from
    the epoch checkpoint instead of the previous epoch's log.  The access
    clock, cost meter and {!site_hits} stay cumulative across seals. *)

val accesses : t -> int
(** Cumulative access-clock value across all seals (the [_obs] stamp
    domain). *)

val meter : t -> Metrics.Cost.meter
(** The cost accumulator charged by this recorder's hooks. *)

val site_hits : t -> int array
(** Per-site access counts indexed by static site id ([light record
    --profile]). *)
