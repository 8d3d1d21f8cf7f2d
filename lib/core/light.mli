(** Light: record/replay via tightly bounded recording — the public API.

    A {e recording} runs the program once under a nondeterministic
    scheduler with the Light recorder installed (Algorithm 1 plus the O1/O2
    optimizations, per the chosen {!variant}), capturing flow dependences,
    nondeterministic system-call values, and the Theorem-1 observables of
    the run.  {!replay} generates the Equation-1 constraint system, solves
    it with the difference-logic engine, re-executes the program under the
    solved schedule, and checks the determinism oracle.

    {[
      let p = Lang.Parser.parse_file "prog.cl" in
      let r = Light.record ~sched:(Runtime.Sched.random ~seed:7) p in
      match Light.replay r with
      | Ok rr when rr.faithful = [] -> print_endline "deterministic replay"
      | Ok rr -> List.iter print_endline rr.faithful
      | Error e -> prerr_endline e
    ]} *)

open Runtime

type variant = Recorder.variant = { o1 : bool; o2 : bool }

(** Algorithm 1 only (with its prec compression). *)
val v_basic : variant

(** Plus Lemma 4.3: non-interleaved sequence records. *)
val v_o1 : variant

(** Plus Lemma 4.2: lock-guarded subsumption (the default). *)
val v_both : variant

type recording = {
  program : Lang.Ast.program;
  plan : Plan.t;             (** instrumentation plan used (and reused by replay) *)
  variant : variant;
  log : Log.t;               (** the recorded flow dependences *)
  outcome : Interp.outcome;  (** the original run's observables *)
  space_longs : int;         (** recorded data in the paper's long-integer unit *)
  overhead : float;          (** modeled recording overhead (0.44 = 44%) *)
  meter : Metrics.Cost.meter;
  instrumented_sites : int;
  site_hits : int array;
      (** dynamic access count per static site id (the [--profile] data) *)
}

type prepared
(** A program with its static analysis, instrumentation plan, and
    slot-resolved executable all settled — everything recording needs that
    depends only on the program text. *)

val prepare : ?variant:variant -> ?plan:Plan.t -> Lang.Ast.program -> prepared
(** Run the transformer (or adopt [plan]), compile, and bake the per-site
    plan decisions into a byte table ({!Runtime.Plan.modes}).  Repeated
    {!record_prepared} calls over the result pay zero analysis or
    compilation cost — the production shape: instrument once, record every
    run.  [variant] decides whether the O2 guarded-site analysis is part of
    the plan (it also gates recording behavior, so pass the same variant
    you will record with). *)

val record_prepared :
  ?engine:Vm.engine ->
  ?sched:Sched.t ->
  ?max_steps:int ->
  ?seed:int ->
  ?weights:Metrics.Cost.weights ->
  ?recorder:Recorder.t ->
  prepared ->
  recording
(** Execute one recording run over a prepared program; only the
    interpreter and the recorder's zero-allocation access fast path are on
    the clock.  [engine] selects the execution substrate: [Vm.Tree] (the
    slot-resolved tree walker, the default) or [Vm.Bytecode] (the
    register VM over the eagerly lowered program) — recorded logs, space
    and cost-model meters are identical either way.  The default stays on
    the tree walker because pipebench times this call against
    {!Interp.run_compiled}, its native run: an [overhead_x] must divide
    two runs of one engine.

    [recorder] recycles a long-lived recorder across sessions instead of
    allocating a fresh one: it is {!Recorder.reset} in place (retargeted to
    this prepared program, capacities retained), the log is byte-identical
    to a fresh recorder's, and the recording's [site_hits] and [meter] are
    snapshots so per-session profiles never bleed across reuses.  When
    [recorder] is passed, [weights] is ignored (the recycled meter keeps
    its own weights). *)

val prepared_program : prepared -> Lang.Ast.program
val prepared_compiled : prepared -> Interp.compiled
val prepared_bytecode : prepared -> Lang.Bytecode.program
val prepared_variant : prepared -> variant
val prepared_plan : prepared -> Plan.t
val prepared_modes : prepared -> Bytes.t
(** Component accessors, for clients (like the epoch engine) that drive the
    interpreter and recorder themselves over a prepared program. *)

val record :
  ?variant:variant ->
  ?sched:Sched.t ->
  ?max_steps:int ->
  ?seed:int ->
  ?weights:Metrics.Cost.weights ->
  ?plan:Plan.t ->
  Lang.Ast.program ->
  recording
(** [prepare] followed by [record_prepared] on the register VM
    ([Vm.Bytecode]), the engine every run but pipebench's records on.
    [sched] defaults to a seeded random scheduler; [seed] feeds the
    program-visible nondeterminism ([@rand] etc.).  [plan] overrides the
    transformer's instrumentation plan — pass [Plan.all_shared] for a
    record-everything baseline (static analysis disabled). *)

type replay_result = {
  replay_outcome : Interp.outcome;
  faithful : Interp.mismatch list;
      (** empty iff the Theorem-1 observables (per-thread shared-read
          values, outputs, crash signatures) match the original run *)
  report : Replayer.solve_report;  (** solver statistics and timings *)
}

val replay :
  ?max_steps:int ->
  ?solver_budget:Dlsolver.Idl.budget ->
  recording ->
  (replay_result, string) result
(** Generate constraints, solve offline, and execute the replay run on the
    register VM, whichever engine recorded [r] (the schedule constrains
    shared accesses, which both engines present identically).  [Error _]
    only if the constraint system is unsatisfiable or the solver
    exhausts [solver_budget] — unsatisfiability is ruled out by Lemma 4.1
    for logs this library records, and the budget exists so a generator or
    solver regression aborts loudly (with the solver's statistics in the
    message) instead of hanging the caller. *)

val record_and_replay :
  ?variant:variant ->
  ?sched:Sched.t ->
  ?max_steps:int ->
  ?seed:int ->
  ?solver_budget:Dlsolver.Idl.budget ->
  Lang.Ast.program ->
  (recording * replay_result, string) result
(** [record] followed by [replay]: records and replays on the register
    VM. *)
