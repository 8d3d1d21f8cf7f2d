(** Reproduction harness for the bug suite (Figure 6 / Table 1).

    For each bug: find a triggering schedule (seed search over the
    nondeterministic schedulers — the "profiling run" that exhibits the
    failure), then ask each tool to record that run and reproduce the
    failure by replay. *)

open Runtime

let crash_sig (c : Interp.crash) = (c.tid, c.site, c.msg)

let crashes_match (a : Interp.outcome) (b : Interp.outcome) : bool =
  a.crashes <> []
  && List.sort compare (List.map crash_sig a.crashes)
     = List.sort compare (List.map crash_sig b.crashes)

(* ------------------------------------------------------------------ *)
(* Trigger search                                                      *)
(* ------------------------------------------------------------------ *)

type trigger = {
  make_sched : unit -> Sched.t;  (** fresh instance of the triggering scheduler *)
  descr : string;
  outcome : Interp.outcome;      (** the buggy profiling run (uninstrumented) *)
}

let candidates ~(tries : int) : (string * (unit -> Sched.t)) list =
  List.concat_map
    (fun seed ->
      List.map
        (fun stick ->
          ( Printf.sprintf "sticky(seed=%d,k=%d)" seed stick,
            fun () -> Sched.sticky ~seed ~stickiness:stick ))
        [ 1; 2; 4; 8 ]
      @ [ (Printf.sprintf "random(%d)" seed, fun () -> Sched.random ~seed) ])
    (List.init tries (fun i -> i + 1))

(* The first candidate schedule whose run satisfies [wanted], on the
   program lowered once for the whole search. *)
let search ~tries ~plan ~(wanted : Interp.outcome -> bool) (p : Lang.Ast.program) :
    trigger option =
  let bp = Lang.Compile.lower (Interp.compile p) in
  List.find_map
    (fun (descr, mk) ->
      let outcome = Vm.run_program ~plan ~sched:(mk ()) ~max_steps:400_000 bp in
      if wanted outcome then Some { make_sched = mk; descr; outcome } else None)
    (candidates ~tries)

(** Search for a schedule under which the program crashes. *)
let find_trigger ?(tries = 60) ?(plan = Plan.all_shared) (p : Lang.Ast.program) :
    trigger option =
  search ~tries ~plan ~wanted:(fun o -> o.crashes <> []) p

(** Search for a schedule under which the program runs to completion with
    no crash — the "passing CI run" a flaky-test hunt starts from. *)
let find_passing ?(tries = 60) ?(plan = Plan.all_shared) (p : Lang.Ast.program) :
    trigger option =
  search ~tries ~plan ~wanted:(fun o -> o.crashes = [] && o.status = Interp.AllFinished) p

(* ------------------------------------------------------------------ *)
(* Per-tool reproduction                                               *)
(* ------------------------------------------------------------------ *)

type attempt = {
  tool : string;
  reproduced : bool;
  detail : string;
}

(** Light: record the triggering run (variant V_both), solve, replay, and
    check that the crash signature is reproduced (Theorem 1). *)
let try_light ?(variant = Light_core.Recorder.v_both) (b : Defs.bug) (tr : trigger) : attempt
    =
  let p = Defs.program_of b () in
  let r = Light_core.Light.record ~variant ~sched:(tr.make_sched ()) p in
  match Light_core.Light.replay r with
  | Error e -> { tool = "Light"; reproduced = false; detail = "solver: " ^ e }
  | Ok rr ->
    let ok = crashes_match r.outcome rr.replay_outcome in
    {
      tool = "Light";
      reproduced = ok;
      detail =
        Printf.sprintf "%d records, %d longs, solve %.3fs%s"
          (Light_core.Log.num_records r.log)
          r.space_longs rr.report.solve_time_s
          (if ok then "" else "; crash signature differs");
    }

(** Clap: record path profile on the triggering run, then execution
    synthesis. *)
let try_clap ?(budget = 30_000) (b : Defs.bug) (tr : trigger) : attempt =
  let p = Defs.program_of b () in
  let plan = (Instrument.Transformer.transform p).Instrument.Transformer.plan in
  let rec_ = Baselines.Clap.create () in
  let outcome =
    Vm.run ~hooks:(Baselines.Clap.hooks rec_) ~plan ~sched:(tr.make_sched ()) p
  in
  let log = Baselines.Clap.finalize rec_ ~outcome in
  match Baselines.Clap.synthesize ~budget p log with
  | Baselines.Clap.Reproduced switches ->
    {
      tool = "Clap";
      reproduced = true;
      detail =
        Printf.sprintf "synthesized a schedule with %d preemption(s)" (List.length switches);
    }
  | OutOfScope cs ->
    {
      tool = "Clap";
      reproduced = false;
      detail = "outside solver fragment: " ^ String.concat ", " cs;
    }
  | BudgetExhausted n ->
    { tool = "Clap"; reproduced = false; detail = Printf.sprintf "search budget exhausted (%d candidates)" n }
  | NoFailureRecorded ->
    { tool = "Clap"; reproduced = false; detail = "profiling run recorded no failure" }

(** Chimera: patch, search for the bug in the patched program, record lock
    orders, replay. *)
let try_chimera ?(tries = 60) (b : Defs.bug) (_tr : trigger) : attempt =
  let p = Defs.program_of b () in
  let pi = Baselines.Chimera.patch p in
  let plan = (Instrument.Transformer.transform pi.patched).Instrument.Transformer.plan in
  match find_trigger ~tries ~plan pi.patched with
  | None ->
    {
      tool = "Chimera";
      reproduced = false;
      detail =
        Printf.sprintf
          "patch serializes the racing methods (%d groups); the bug no longer manifests"
          (List.length pi.groups);
    }
  | Some ptr ->
    let rec_ = Baselines.Chimera.create_recorder () in
    let orig =
      Vm.run ~hooks:(Baselines.Chimera.recorder_hooks rec_) ~plan
        ~sched:(ptr.make_sched ()) pi.patched
    in
    let log = Baselines.Chimera.finalize_recorder rec_ ~outcome:orig in
    let rep =
      Vm.run ~hooks:(Baselines.Chimera.replay_hooks log) ~plan
        ~sched:(Sched.round_robin ()) pi.patched
    in
    let ok = crashes_match orig rep in
    {
      tool = "Chimera";
      reproduced = ok;
      detail =
        Printf.sprintf "%d lock ops recorded%s" log.space_longs
          (if ok then "" else "; replay crash differs");
    }

(* ------------------------------------------------------------------ *)
(* Figure 6 rows                                                        *)
(* ------------------------------------------------------------------ *)

type row = {
  bug : Defs.bug;
  trigger_descr : string;
  light : attempt;
  clap : attempt;
  chimera : attempt;
}

(* One bug is one independent job: trigger search plus the three tool
   attempts share nothing across bugs, so the matrix fans out across the
   engine pool; [Batch.map] merges rows back in [Defs.all] order, keeping
   the output independent of the pool size. *)
let reproduce_all ?(tries = 60) ?(clap_budget = 30_000) ?pool () : row list =
  Engine.Batch.map ?pool Defs.all ~f:(fun (b : Defs.bug) ->
      let p = Defs.program_of b () in
      match find_trigger ~tries p with
      | None -> None
      | Some tr ->
        Some
          {
            bug = b;
            trigger_descr = tr.descr;
            light = try_light b tr;
            clap = try_clap ~budget:clap_budget b tr;
            chimera = try_chimera ~tries b tr;
          })
  |> List.filter_map Fun.id
