(** Light: record/replay via tightly bounded recording — the public API.

    Typical use:
    {[
      let p = Lang.Parser.parse_file "prog.cl" in
      let rec_ = Light.record ~sched:(Runtime.Sched.random ~seed:7) p in
      match Light.replay rec_ with
      | Ok rr -> assert (rr.faithful = [])
      | Error msg -> prerr_endline msg
    ]} *)

open Runtime

type variant = Recorder.variant = { o1 : bool; o2 : bool }

let v_basic = Recorder.v_basic
let v_o1 = Recorder.v_o1
let v_both = Recorder.v_both

type recording = {
  program : Lang.Ast.program;
  plan : Plan.t;
  variant : variant;
  log : Log.t;
  outcome : Interp.outcome;  (** the original run's observables *)
  space_longs : int;         (** recorded data in long-integer units *)
  overhead : float;          (** recording overhead fraction (0.44 = 44%) *)
  meter : Metrics.Cost.meter;
  instrumented_sites : int;
  site_hits : int array;     (** per static site id, dynamic access count *)
}

(* ------------------------------------------------------------------ *)
(* Prepare once, record many                                           *)
(* ------------------------------------------------------------------ *)

type prepared = {
  pp_program : Lang.Ast.program;
  pp_compiled : Interp.compiled;
  pp_bytecode : Lang.Bytecode.program;  (* register-VM form, lowered eagerly *)
  pp_variant : variant;
  pp_plan : Plan.t;
  pp_modes : Bytes.t;  (* per-site decision, baked (Plan.modes) *)
  pp_instrumented_sites : int;
}

(** Everything recording needs that depends only on the program text: the
    static analysis and its instrumentation plan, the slot-resolved
    executable, and the plan baked into a per-site byte table.  Repeated
    {!record_prepared} calls then pay zero analysis or compilation cost —
    the production shape (instrument once, record every run). *)
let prepare ?(variant = Recorder.v_both) ?plan (program : Lang.Ast.program) :
    prepared =
  let plan, instrumented_sites =
    match plan with
    | Some plan ->
      (* caller-supplied plan (e.g. [Plan.all_shared] for a full-recording
         baseline): count the access sites it instruments directly *)
      let n =
        Lang.Ast.fold_stmts
          (fun acc (s : Lang.Ast.stmt) ->
            if
              plan.Plan.shared_site s.sid
              && (Instrument.Transformer.is_read_site s
                 || Instrument.Transformer.is_write_site s)
            then acc + 1
            else acc)
          0 program
      in
      (plan, n)
    | None ->
      let tr = Instrument.Transformer.transform ~enable_o2:variant.o2 program in
      (tr.plan, tr.instrumented_sites)
  in
  let cp = Interp.compile program in
  {
    pp_program = program;
    pp_compiled = cp;
    pp_bytecode = Lang.Compile.lower cp;
    pp_variant = variant;
    pp_plan = plan;
    pp_modes = Plan.modes plan ~max_sid:cp.Lang.Resolve.cp_max_sid;
    pp_instrumented_sites = instrumented_sites;
  }

(** Execute one recording run over a prepared program: only the interpreter
    and the recorder's zero-allocation access hook are on the clock.

    [recorder] recycles a long-lived recorder across sessions (the record
    service keeps one per worker domain): it is {!Recorder.reset} in place —
    retargeted to this program's variant and mode table with every grown
    capacity retained — instead of allocating a fresh one, and the returned
    recording's [site_hits] and [meter] are {e snapshots}, so the profile
    of one session never bleeds into (or gets clobbered by) the next
    session on the same recorder.  When [recorder] is passed, [weights] is
    ignored: the recycled meter keeps the weights it was created with. *)
let record_prepared ?(engine = Vm.Tree) ?(sched = Sched.random ~seed:1)
    ?(max_steps = 5_000_000) ?(seed = 0)
    ?(weights = Metrics.Cost.default_weights) ?recorder (pp : prepared) :
    recording =
  let recorder, recycled =
    match recorder with
    | Some r ->
      Recorder.reset ~variant:pp.pp_variant r pp.pp_modes;
      (r, true)
    | None -> (Recorder.create ~variant:pp.pp_variant ~weights pp.pp_modes, false)
  in
  let outcome =
    match engine with
    | Vm.Tree ->
      Interp.run_compiled ~hooks:(Recorder.hooks recorder) ~plan:pp.pp_plan
        ~max_steps ~seed ~sched pp.pp_compiled
    | Vm.Bytecode ->
      Vm.run_program ~hooks:(Recorder.hooks recorder) ~plan:pp.pp_plan
        ~max_steps ~seed ~sched pp.pp_bytecode
  in
  let log = Recorder.finalize recorder ~outcome in
  {
    program = pp.pp_program;
    plan = pp.pp_plan;
    variant = pp.pp_variant;
    log;
    outcome;
    space_longs = Log.space_longs log;
    overhead = Metrics.Cost.overhead (Recorder.meter recorder) ~steps:outcome.steps;
    meter =
      (if recycled then Metrics.Cost.copy_meter (Recorder.meter recorder)
       else Recorder.meter recorder);
    instrumented_sites = pp.pp_instrumented_sites;
    site_hits =
      (if recycled then Array.copy (Recorder.site_hits recorder)
       else Recorder.site_hits recorder);
  }

(** Run the transformer and record the program on the register VM. *)
let record ?variant ?sched ?max_steps ?seed ?weights ?plan
    (program : Lang.Ast.program) : recording =
  record_prepared ~engine:Vm.Bytecode ?sched ?max_steps ?seed ?weights
    (prepare ?variant ?plan program)

(* Accessors for the epoch engine (and other lib/core clients of the
   abstract [prepared]). *)
let prepared_program (pp : prepared) = pp.pp_program
let prepared_compiled (pp : prepared) = pp.pp_compiled
let prepared_bytecode (pp : prepared) = pp.pp_bytecode
let prepared_variant (pp : prepared) = pp.pp_variant
let prepared_plan (pp : prepared) = pp.pp_plan
let prepared_modes (pp : prepared) = pp.pp_modes

type replay_result = {
  replay_outcome : Interp.outcome;
  faithful : Interp.mismatch list;  (** empty = Theorem 1 observables match *)
  report : Replayer.solve_report;
}

(** Compute a replay schedule offline and execute the replay run.  A log
    whose rows pass its counters is an [Error] ({!Log.Inconsistent}). *)
let replay ?max_steps ?solver_budget (r : recording) :
    (replay_result, string) result =
  match Replayer.solve ?budget:solver_budget r.log with
  | exception Log.Inconsistent msg -> Error ("bad log: " ^ msg)
  | report ->
  match report.schedule with
  | None ->
    let s = report.solver_stats in
    Error
      (Printf.sprintf "%s (%d decisions, %d backtracks, %d conflicts, %.1fs)"
         (match report.exhausted with
         | Some b -> Replayer.budget_exhausted b
         | None -> "constraint system unsatisfiable")
         s.decisions s.backtracks s.theory_conflicts report.solve_time_s)
  | Some sch ->
    let replay_outcome =
      Replayer.replay ?max_steps r.program ~plan:r.plan sch
    in
    Ok
      {
        replay_outcome;
        faithful = Interp.replay_matches ~original:r.outcome ~replay:replay_outcome;
        report;
      }

(** Record under [sched], replay, and report whether the Theorem-1
    observables (per-thread read values, outputs, crashes) were reproduced. *)
let record_and_replay ?variant ?sched ?max_steps ?seed ?solver_budget
    (program : Lang.Ast.program) : (recording * replay_result, string) result =
  let r = record ?variant ?sched ?max_steps ?seed program in
  match replay ?max_steps ?solver_budget r with
  | Ok rr -> Ok (r, rr)
  | Error e -> Error e
