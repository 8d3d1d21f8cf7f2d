(** Experiment drivers: one function per table/figure of Section 5.
    `bench/main.exe` calls these; see DESIGN.md's experiment index. *)

open Runtime
module J = Analysis.Lint.Json

(* ------------------------------------------------------------------ *)
(* Per-benchmark measurement (Figures 4, 5, 7)                          *)
(* ------------------------------------------------------------------ *)

type tool_measure = { overhead : float; space_longs : int }

type bench_measure = {
  bm : Workloads.benchmark;
  steps : int;
  accesses : int;
  leap : tool_measure;
  stride : tool_measure;
  light_basic : tool_measure;
  light_o1 : tool_measure;
  light_both : tool_measure;
}

let measure_benchmark ?(scale = 1) ?(seed = 7) (bm : Workloads.benchmark) :
    bench_measure =
  let p = Workloads.program ~scale bm in
  let sched () = Workloads.scheduler ~seed bm in
  let tr = Instrument.Transformer.transform p in
  let plan = tr.plan in
  (* Leap *)
  let leap_rec = Baselines.Leap.create () in
  let leap_out = Vm.run ~hooks:(Baselines.Leap.hooks leap_rec) ~plan ~sched:(sched ()) p in
  let leap_log = Baselines.Leap.finalize leap_rec in
  let leap =
    {
      overhead = Metrics.Cost.overhead leap_rec.meter ~steps:leap_out.steps;
      space_longs = leap_log.space_longs;
    }
  in
  (* Stride *)
  let st_rec = Baselines.Stride.create () in
  let st_out = Vm.run ~hooks:(Baselines.Stride.hooks st_rec) ~plan ~sched:(sched ()) p in
  let st_log = Baselines.Stride.finalize st_rec in
  let stride =
    {
      overhead = Metrics.Cost.overhead st_rec.meter ~steps:st_out.steps;
      space_longs = st_log.space_longs;
    }
  in
  (* Light variants *)
  let light variant =
    let r = Light_core.Light.record ~variant ~sched:(sched ()) p in
    ({ overhead = r.overhead; space_longs = r.space_longs }, r)
  in
  let light_basic, _ = light Light_core.Light.v_basic in
  let light_o1, _ = light Light_core.Light.v_o1 in
  let light_both, rb = light Light_core.Light.v_both in
  {
    bm;
    steps = rb.outcome.steps;
    accesses = leap_log.space_longs;  (* Leap records one long per access *)
    leap;
    stride;
    light_basic;
    light_o1;
    light_both;
  }

(* Each benchmark measurement is self-contained (fresh parse, plan,
   recorders, interpreter and scheduler state), so the 24 measurements fan
   out across the engine pool; the merge preserves [Workloads.paper] order,
   so the figures are byte-identical for any pool size.  The figures stay
   on the 24-benchmark paper set — their captions compare against the
   paper's x/24 counts; the message-passing additions are covered by the
   solver/interp/analysis/explore benches, which run [Workloads.all]. *)
let measure_all ?scale ?seed ?pool () : bench_measure list =
  Engine.Batch.map ?pool Workloads.paper ~f:(measure_benchmark ?scale ?seed)

(* Wall-clock columns (solver/replay seconds) are hidden unless LIGHT_TIMINGS
   is set: default output must not depend on machine speed or pool size. *)
let show_timings () = Sys.getenv_opt "LIGHT_TIMINGS" <> None
let timing_cell s = if show_timings () then s else "-"

(* a positive-int budget from the environment, else [default] *)
let env_int (name : string) (default : int) : int =
  match Sys.getenv_opt name with
  | Some s -> (match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* every BENCH_*.json artifact is written here *)
let write_artifact ppf (path : string) (j : J.t) : unit =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (J.to_string j ^ "\n"));
  Fmt.pf ppf "  full measurement (with timings) written to %s@.@." path

let result_name : Light_core.Replayer.solve_result_kind -> string = function
  | Light_core.Replayer.Solved -> "sat"
  | Unsatisfiable -> "unsat"
  | SolverAborted -> "aborted"

(* ------------------------------------------------------------------ *)
(* Figure 4 / aggregate time table                                      *)
(* ------------------------------------------------------------------ *)

let fig4 (ms : bench_measure list) ppf : unit =
  Chart.grouped
    ~title:
      "Figure 4: normalized time overhead (Light vs Leap vs Stride; bars scaled per benchmark)"
    ~series:[ "Leap"; "Stride"; "Light" ]
    (List.map
       (fun m -> (m.bm.name, [ m.leap.overhead; m.stride.overhead; m.light_both.overhead ]))
       ms)
    ppf;
  let agg f = Metrics.Stats.summarize (List.map f ms) in
  let leap = agg (fun m -> m.leap.overhead) in
  let stride = agg (fun m -> m.stride.overhead) in
  let light = agg (fun m -> m.light_both.overhead) in
  let s (x : Metrics.Stats.summary) =
    List.map (Printf.sprintf "%.2f")
      [ x.average; x.median; x.minimum; x.maximum ]
  in
  Chart.table ~title:"Aggregate recording overhead (fraction of base run time)"
    ~header:[ ""; "average"; "median"; "minimum"; "maximum" ]
    [ "Leap" :: s leap; "Stride" :: s stride; "Light" :: s light ]
    ppf;
  Fmt.pf ppf "  (paper: Leap 4.11/2.58/0.17/17.85, Stride 4.66/2.92/0.19/23.89, Light 0.44/0.42/0.15/0.73)@.@."

(* ------------------------------------------------------------------ *)
(* Figure 5 / aggregate space table                                     *)
(* ------------------------------------------------------------------ *)

let fig5 (ms : bench_measure list) ppf : unit =
  Chart.grouped
    ~title:
      "Figure 5: normalized space consumption in Long-integer units (bars scaled per benchmark)"
    ~series:[ "Leap"; "Stride"; "Light" ]
    (List.map
       (fun m ->
         ( m.bm.name,
           [ float_of_int m.leap.space_longs;
             float_of_int m.stride.space_longs;
             float_of_int m.light_both.space_longs ] ))
       ms)
    ppf;
  let agg f = Metrics.Stats.summarize (List.map f ms) in
  let leap = agg (fun m -> float_of_int m.leap.space_longs) in
  let stride = agg (fun m -> float_of_int m.stride.space_longs) in
  let light = agg (fun m -> float_of_int m.light_both.space_longs) in
  let s (x : Metrics.Stats.summary) =
    List.map (Printf.sprintf "%.1f")
      [ x.average; x.median; x.minimum; x.maximum ]
  in
  Chart.table ~title:"Aggregate space (Long-integers per run)"
    ~header:[ ""; "average"; "median"; "minimum"; "maximum" ]
    [ "Leap" :: s leap; "Stride" :: s stride; "Light" :: s light ]
    ppf;
  let ratio =
    let tot f = List.fold_left (fun a m -> a + f m) 0 ms in
    float_of_int (tot (fun m -> m.light_both.space_longs))
    /. float_of_int (max 1 (tot (fun m -> m.leap.space_longs)))
  in
  Fmt.pf ppf "  Light/Leap total space ratio: %.1f%% (paper: ~7.5%%, \"only 10%% of those techniques\")@.@."
    (100. *. ratio)

(* ------------------------------------------------------------------ *)
(* Figure 7: optimization breakdown                                     *)
(* ------------------------------------------------------------------ *)

let fig7 (ms : bench_measure list) ppf : unit =
  let rows value =
    List.map
      (fun m ->
        let basic = value m.light_basic in
        let o1 = value m.light_o1 in
        let both = value m.light_both in
        let d1 = max 0.0 (basic -. o1) in
        let d2 = max 0.0 (o1 -. both) in
        (m.bm.name, [ d1; d2; min basic both ]))
      ms
  in
  Chart.stacked
    ~title:"Figure 7a: time overhead breakdown (100% = V_basic)"
    ~segments:[ "saved by O1"; "saved by O2"; "remaining (V_O1+O2)" ]
    (rows (fun t -> t.overhead))
    ppf;
  Chart.stacked
    ~title:"Figure 7b: space breakdown (100% = V_basic)"
    ~segments:[ "saved by O1"; "saved by O2"; "remaining (V_O1+O2)" ]
    (rows (fun t -> float_of_int t.space_longs))
    ppf;
  (* the paper's headline counts *)
  let count pred value =
    List.length
      (List.filter
         (fun m ->
           let basic = value m.light_basic and o1 = value m.light_o1
           and both = value m.light_both in
           pred basic o1 both)
         ms)
  in
  let time = (fun t -> t.overhead) in
  let space = (fun t -> float_of_int t.space_longs) in
  Fmt.pf ppf "  time:  O1 saves >=20%% in %d/24 (paper 20/24), >=50%% in %d/24 (paper 8/24);@."
    (count (fun b o1 _ -> b -. o1 >= 0.2 *. b) time)
    (count (fun b o1 _ -> b -. o1 >= 0.5 *. b) time);
  Fmt.pf ppf "         O2 saves >=20%% in %d/24 (paper 9/24), >=50%% in %d/24 (paper 4/24)@."
    (count (fun b o1 both -> o1 -. both >= 0.2 *. b) time)
    (count (fun b o1 both -> o1 -. both >= 0.5 *. b) time);
  Fmt.pf ppf "  space: O1 saves >=50%% in %d/24 (paper 16/24); O2 saves >=20%% in %d/24 (paper 6/24)@.@."
    (count (fun b o1 _ -> b -. o1 >= 0.5 *. b) space)
    (count (fun b o1 both -> o1 -. both >= 0.2 *. b) space)

(* ------------------------------------------------------------------ *)
(* Solver pipeline measurement (BENCH_solver.json)                      *)
(* ------------------------------------------------------------------ *)

type solver_measure = {
  sm_bm : string;
  sm_variant : string;
  sm_vars : int;
  sm_hard : int;
  sm_pairs : int;    (* pre-pruning: clauses the naive generator would emit *)
  sm_clauses : int;  (* post-pruning *)
  sm_pruned : int;
  sm_unit : int;
  sm_dedup : int;
  sm_result : string;
  sm_decisions : int;
  sm_backtracks : int;
  sm_conflicts : int;
  sm_gen_s : float;
  sm_solve_s : float;
  sm_parse_words : int;  (* words [Log.of_string] allocates on the log's v3 text *)
  sm_gen_words : int;  (* words [Constraints.generate] allocates *)
  sm_solve_words : int;  (* words [Idl.solve] allocates on the generated system *)
  sm_schedule_words : int;  (* words [Replayer.build_schedule] allocates on its model *)
}

let solver_variants =
  [ Light_core.Light.v_basic; Light_core.Light.v_both ]

let measure_solver ?(seed = 3)
    ((bm : Workloads.benchmark), (variant : Light_core.Light.variant)) :
    solver_measure * Light_core.Log.t =
  let p = Workloads.program bm in
  let r =
    Light_core.Light.record ~variant ~sched:(Workloads.scheduler ~seed bm) ~seed p
  in
  let report = Light_core.Replayer.solve r.log in
  let g = report.gen_stats and s = report.solver_stats in
  ( {
    sm_bm = bm.name;
    sm_variant = Light_core.Recorder.variant_name variant;
    sm_vars = report.n_vars;
    sm_hard = report.n_hard;
    sm_pairs = g.n_pairs;
    sm_clauses = report.n_clauses;
    sm_pruned = g.n_pruned;
    sm_unit = g.n_unit;
    sm_dedup = g.n_dedup;
    sm_result = result_name report.result_kind;
    sm_decisions = s.decisions;
    sm_backtracks = s.backtracks;
    sm_conflicts = s.theory_conflicts;
    sm_gen_s = g.gen_time_s;
    sm_solve_s = report.solve_time_s;
    sm_parse_words = 0;
    sm_gen_words = 0;
    sm_solve_words = 0;
    sm_schedule_words = 0;
  },
    r.log )

(* The words [f ()] allocates, counted on the calling domain.  The minor
   heap is emptied before and after, so the counters include every word
   the call allocated, and no other domain may run meanwhile: a young
   object promoted during the call, by this domain's collection or
   another's, would change the count, which is otherwise exact. *)
let words_of (f : unit -> 'a) : int =
  let words () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let w0 = words () in
  ignore (Sys.opaque_identity (f ()));
  int_of_float (words () -. w0)

(* The words each offline layer allocates on [log]: [Log.of_string] on
   its v3 text, [Constraints.generate], [Idl.solve] on the system it
   generated (hinted, as [Replayer.solve] calls it) and
   [Replayer.build_schedule] on the model; [m] with them. *)
let offline_words (m : solver_measure) (log : Light_core.Log.t) : solver_measure =
  let text = Light_core.Log.to_string log in
  let cs = Light_core.Constraints.generate log in
  let solve () = Dlsolver.Idl.solve ?hint:cs.hint cs.problem in
  {
    m with
    sm_parse_words = words_of (fun () -> Light_core.Log.of_string text);
    sm_gen_words = words_of (fun () -> Light_core.Constraints.generate log);
    sm_solve_words = words_of solve;
    sm_schedule_words =
      (match solve () with
      | Sat (model, _) -> words_of (fun () -> Light_core.Replayer.build_schedule log cs model)
      | Unsat _ | Aborted _ -> 0);
  }

let solver_json (ms : solver_measure list) : J.t =
  let row m =
    J.Obj
      [
        ("workload", J.Str m.sm_bm); ("variant", J.Str m.sm_variant);
        ("vars", J.Int m.sm_vars); ("hard", J.Int m.sm_hard);
        ("pairs_pre_pruning", J.Int m.sm_pairs); ("clauses", J.Int m.sm_clauses);
        ("pruned", J.Int m.sm_pruned); ("unit_reduced", J.Int m.sm_unit);
        ("deduped", J.Int m.sm_dedup); ("result", J.Str m.sm_result);
        ("decisions", J.Int m.sm_decisions); ("backtracks", J.Int m.sm_backtracks);
        ("conflicts", J.Int m.sm_conflicts); ("gen_s", J.Float m.sm_gen_s);
        ("solve_s", J.Float m.sm_solve_s); ("parse_words", J.Int m.sm_parse_words);
        ("gen_words", J.Int m.sm_gen_words); ("solve_words", J.Int m.sm_solve_words);
        ("schedule_words", J.Int m.sm_schedule_words);
      ]
  in
  let o1o2 = List.filter (fun m -> m.sm_variant = "O1+O2") ms in
  let total f = J.Int (List.fold_left (fun a m -> a + f m) 0 o1o2) in
  J.Obj
    [
      ("rows", J.List (List.map row ms));
      ("parse_words_o1o2", total (fun m -> m.sm_parse_words));
      ("gen_words_o1o2", total (fun m -> m.sm_gen_words));
      ("solve_words_o1o2", total (fun m -> m.sm_solve_words));
      ("schedule_words_o1o2", total (fun m -> m.sm_schedule_words));
    ]

(* Per-workload constraint pipeline report: generation pruning ratios and
   solver search statistics for the uncompressed (v_basic) and default
   (O1+O2) logs.  Counts on stdout are deterministic; the wall-clock
   columns hide behind LIGHT_TIMINGS, and the full measurement — times
   included — lands in [json_path] for the CI artifact. *)
let solver_bench ?(seed = 3) ?(json_path = "BENCH_solver.json") ?pool () ppf : J.t =
  let grid =
    List.concat_map
      (fun bm -> List.map (fun v -> (bm, v)) solver_variants)
      Workloads.all
  in
  let ms =
    Engine.Batch.map ?pool grid ~f:(measure_solver ~seed)
    |> List.map (fun (m, log) -> offline_words m log)
  in
  Chart.table
    ~title:
      "Constraint pipeline (per-workload: noninterference pairs before pruning, \
       clauses after, solver work)"
    ~header:
      [ "workload"; "variant"; "vars"; "pairs"; "clauses"; "dec"; "bt"; "conf";
        "result"; "gen (s)"; "solve (s)" ]
    (List.map
       (fun m ->
         [
           m.sm_bm;
           m.sm_variant;
           string_of_int m.sm_vars;
           string_of_int m.sm_pairs;
           string_of_int m.sm_clauses;
           string_of_int m.sm_decisions;
           string_of_int m.sm_backtracks;
           string_of_int m.sm_conflicts;
           m.sm_result;
           timing_cell (Printf.sprintf "%.3f" m.sm_gen_s);
           timing_cell (Printf.sprintf "%.3f" m.sm_solve_s);
         ])
       ms)
    ppf;
  let tot f = List.fold_left (fun a m -> a + f m) 0 ms in
  Fmt.pf ppf
    "  pruning: %d pairs -> %d clauses (%d entailed, %d unit-reduced, %d deduped)@."
    (tot (fun m -> m.sm_pairs))
    (tot (fun m -> m.sm_clauses))
    (tot (fun m -> m.sm_pruned))
    (tot (fun m -> m.sm_unit))
    (tot (fun m -> m.sm_dedup));
  let aborted = List.filter (fun m -> m.sm_result <> "sat") ms in
  Fmt.pf ppf "  unsolved cells: %d/%d@." (List.length aborted) (List.length ms);
  let j = solver_json ms in
  write_artifact ppf json_path j;
  j

(* The allocation of each offline layer (parse, generate, solve,
   schedule) over the default (O1+O2) logs.  Each is a count, the same on any host and for any pool size, so
   the 10% is not for noise: it lets a change trade a little allocation
   for something else without a baseline refresh, and stops a layout
   regression. *)
let solvercheck_rules : Gate.rule list =
  List.map
    (fun metric -> { Gate.metric; reference = Baseline; direction = At_most; tolerance = 0.10 })
    [ "parse_words_o1o2"; "gen_words_o1o2"; "solve_words_o1o2"; "schedule_words_o1o2" ]

let solvercheck ?(baseline_path = "bench/BENCH_solver.baseline.json") ?json_path ?pool () ppf :
    bool =
  Gate.check ~gate:"solvercheck" ~baseline_path solvercheck_rules
    (solver_bench ?json_path ?pool () ppf)
    ppf

(* ------------------------------------------------------------------ *)
(* Interpreter throughput (BENCH_interp.json)                           *)
(* ------------------------------------------------------------------ *)

(* one timed series: median is the headline number (robust to a single
   slow iteration on a shared runner), min approximates the noise floor,
   max completes the recorded spread *)
type series = { sps_med : float; sps_min : float; sps_max : float }

type interp_measure = {
  im_bm : string;
  im_steps : int;     (* steps of one uninstrumented run *)
  im_ref : series;    (* reference interpreter (string-keyed), native *)
  im_native : series; (* slot-resolved interpreter, native *)
  im_vm : series;     (* register-bytecode VM, native *)
  im_basic : series;  (* under Light recording, uncompressed *)
  im_vm_basic : series;  (* the same recording on the VM *)
  im_o1 : series;
  im_both : series;
  im_epoch : series;  (* v_basic recording in epoch mode (~8 epochs/run), VM *)
  im_replay_vm : series;  (* gated replay of the v_both recording, VM *)
}

(* CI runs with a reduced budget via LIGHT_BENCH_ITERS *)
let bench_iters () = env_int "LIGHT_BENCH_ITERS" 5

(* steps/second of [run], which returns its step count: one warmup
   execution (whose step count is returned), then [iters] individually
   timed executions *)
let steps_per_sec ~iters (run : unit -> int) : int * series =
  let steps0 = run () in
  let steps = float_of_int steps0 in
  let samples =
    Array.init iters (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (run ());
        let dt = Unix.gettimeofday () -. t0 in
        steps /. Float.max dt 1e-9)
  in
  Array.sort compare samples;
  let n = Array.length samples in
  let med =
    if n land 1 = 1 then samples.(n / 2)
    else 0.5 *. (samples.((n / 2) - 1) +. samples.(n / 2))
  in
  (steps0, { sps_med = med; sps_min = samples.(0); sps_max = samples.(n - 1) })

let measure_interp ?(seed = 7) ~iters (bm : Workloads.benchmark) : interp_measure =
  let p = Workloads.program bm in
  let sched () = Workloads.scheduler ~seed bm in
  let cp = Interp.compile p in
  let steps, native =
    steps_per_sec ~iters (fun () -> (Interp.run_compiled ~sched:(sched ()) cp).steps)
  in
  let bp = Lang.Compile.lower cp in
  let _, vm = steps_per_sec ~iters (fun () -> (Vm.run_program ~sched:(sched ()) bp).steps) in
  let _, ref_ = steps_per_sec ~iters (fun () -> (Interp_ref.run ~sched:(sched ()) p).steps) in
  (* instrument once, record every iteration: the analysis and the slot
     resolution are prepare-time costs (measured by the analysis bench);
     what this bench times is the recording fast path *)
  let record ?engine variant =
    let pp = Light_core.Light.prepare ~variant p in
    fun () ->
      (Light_core.Light.record_prepared ?engine ~sched:(sched ()) ~seed pp).outcome.steps
  in
  let _, basic = steps_per_sec ~iters (record Light_core.Light.v_basic) in
  let _, vm_basic =
    steps_per_sec ~iters (record ~engine:Vm.Bytecode Light_core.Light.v_basic)
  in
  let _, o1 = steps_per_sec ~iters (record Light_core.Light.v_o1) in
  let _, both = steps_per_sec ~iters (record Light_core.Light.v_both) in
  (* replay of one solved v_both recording: priced against the VM's own
     native run ([replay_over_vm]) *)
  let _, replay_vm =
    let rc =
      Light_core.Light.record ~variant:Light_core.Light.v_both ~sched:(sched ()) ~seed p
    in
    let sch = Option.get (Light_core.Replayer.solve rc.log).schedule in
    steps_per_sec ~iters (fun () ->
        (Light_core.Replayer.replay rc.program ~plan:rc.plan sch).steps)
  in
  (* epoch mode on the same fast path: checkpoint + seal ~8 times per run,
     so the series prices the boundary work (snapshot, arena seal,
     last-write clear) on top of v_basic recording on the VM, the engine
     epoch mode records on ([vm_basic] is its monolithic twin).  The
     production streaming shape (seal, hand off, drop) is what's timed —
     like the monolithic series, it ends at in-memory sealed logs. *)
  let _, epoch =
    let pp = Light_core.Light.prepare ~variant:Light_core.Light.v_basic p in
    let epoch_len = max 512 ((steps / 8) + 1) in
    steps_per_sec ~iters (fun () ->
        (Light_core.Epoch.record_epochs_stream ~sched:(sched ()) ~seed ~epoch_len
           ~emit:ignore pp).ss_steps)
  in
  {
    im_bm = bm.name;
    im_steps = steps;
    im_ref = ref_;
    im_native = native;
    im_vm = vm;
    im_basic = basic;
    im_vm_basic = vm_basic;
    im_o1 = o1;
    im_both = both;
    im_epoch = epoch;
    im_replay_vm = replay_vm;
  }

let geomean_f (xs : float list) : float =
  exp (List.fold_left (fun a x -> a +. log x) 0. xs /. float_of_int (List.length xs))

let geomean (f : interp_measure -> float) (ms : interp_measure list) : float =
  geomean_f (List.map f ms)

(* relative iteration spread of a series, (max - min) / median *)
let spread (s : series) : float = (s.sps_max -. s.sps_min) /. Float.max s.sps_med 1e-9

(* per-workload ratios of two median series; the artifact also holds
   their geomeans *)
let interp_ratios : (string * (interp_measure -> float)) list =
  let r a b m = (a m).sps_med /. (b m).sps_med in
  [
    ("speedup_vs_ref", r (fun m -> m.im_native) (fun m -> m.im_ref));
    ("vm_speedup", r (fun m -> m.im_vm) (fun m -> m.im_native));
    ("ratio_basic", r (fun m -> m.im_native) (fun m -> m.im_basic));
    ("ratio_o1", r (fun m -> m.im_native) (fun m -> m.im_o1));
    ("ratio_both", r (fun m -> m.im_native) (fun m -> m.im_both));
    ("ratio_vm_basic", r (fun m -> m.im_vm) (fun m -> m.im_vm_basic));
    ("ratio_epoch", r (fun m -> m.im_vm) (fun m -> m.im_epoch));
    ("replay_over_vm", r (fun m -> m.im_vm) (fun m -> m.im_replay_vm));
  ]

let interp_json ~iters (ms : interp_measure list) : J.t =
  let row m =
    let series =
      [
        ("native", m.im_native); ("vm", m.im_vm); ("basic", m.im_basic);
        ("vm_basic", m.im_vm_basic); ("o1", m.im_o1); ("both", m.im_both);
        ("epoch", m.im_epoch); ("replay_vm", m.im_replay_vm);
      ]
    in
    J.Obj
      ([ ("workload", J.Str m.im_bm); ("steps", J.Int m.im_steps);
         ("ref_sps", J.Float m.im_ref.sps_med) ]
      @ List.map (fun (n, s) -> (n ^ "_sps", J.Float s.sps_med)) series
      @ List.map (fun (n, f) -> (n, J.Float (f m))) interp_ratios
      @ List.concat_map
          (fun (n, s) ->
            [ (n ^ "_sps_min", J.Float s.sps_min); (n ^ "_sps_max", J.Float s.sps_max) ])
          series
      @ [ ("native_spread", J.Float (spread m.im_native)) ])
  in
  J.Obj
    [
      ("iters", J.Int iters);
      ("rows", J.List (List.map row ms));
      ("geomean", J.Obj (List.map (fun (n, f) -> (n, J.Float (geomean f ms))) interp_ratios));
    ]

(* Per-workload interpreter throughput: the slot-resolved interpreter
   against the string-keyed reference (native, uninstrumented), and the
   per-variant recording-overhead ratios (native steps/sec divided by
   recorded steps/sec).  All steps/sec cells are the median over the timed
   iterations.  Runs sequentially — timing inside the domain pool would
   measure contention, not the interpreter.  Step counts on stdout are
   deterministic; every wall-clock-derived column hides behind
   LIGHT_TIMINGS, and the full measurement (with per-series min/max) lands
   in [json_path] for CI. *)
let run_interp_measurements ~seed ppf : int * interp_measure list =
  let iters = bench_iters () in
  let ms = List.map (measure_interp ~seed ~iters) Workloads.all in
  let f1 v = Printf.sprintf "%.1f" v in
  let k sps = Printf.sprintf "%.0fk" (sps /. 1e3) in
  Chart.table
    ~title:
      "Interpreter throughput (median steps/sec: reference vs slot-resolved, \
       native and under recording)"
    ~header:
      [ "workload"; "steps"; "ref"; "native"; "vm"; "speedup"; "vmx"; "basic";
        "o1"; "o1+o2"; "epoch"; "xbasic"; "xo1"; "xo1+o2"; "xepoch" ]
    (List.map
       (fun m ->
         [
           m.im_bm;
           string_of_int m.im_steps;
           timing_cell (k m.im_ref.sps_med);
           timing_cell (k m.im_native.sps_med);
           timing_cell (k m.im_vm.sps_med);
           timing_cell (f1 (m.im_native.sps_med /. m.im_ref.sps_med));
           timing_cell (f1 (m.im_vm.sps_med /. m.im_native.sps_med));
           timing_cell (k m.im_basic.sps_med);
           timing_cell (k m.im_o1.sps_med);
           timing_cell (k m.im_both.sps_med);
           timing_cell (k m.im_epoch.sps_med);
           timing_cell (f1 (m.im_native.sps_med /. m.im_basic.sps_med));
           timing_cell (f1 (m.im_native.sps_med /. m.im_o1.sps_med));
           timing_cell (f1 (m.im_native.sps_med /. m.im_both.sps_med));
           timing_cell (f1 (m.im_vm.sps_med /. m.im_epoch.sps_med));
         ])
       ms)
    ppf;
  Fmt.pf ppf "  total steps (one native run each): %d@."
    (List.fold_left (fun a m -> a + m.im_steps) 0 ms);
  if show_timings () then begin
    let g name = geomean (List.assoc name interp_ratios) ms in
    Fmt.pf ppf
      "  geomean: %.2fx vs reference (VM %.2fx vs native, VM replay at %.2fx \
       VM native time); record overhead %.2fx basic, %.2fx O1, %.2fx O1+O2@."
      (g "speedup_vs_ref") (g "vm_speedup") (g "replay_over_vm") (g "ratio_basic")
      (g "ratio_o1") (g "ratio_both");
    Fmt.pf ppf "  native min-of-iters geomean: %.0fk steps/sec@."
      (geomean (fun m -> m.im_native.sps_min) ms /. 1e3);
    let worst =
      List.fold_left
        (fun (wn, ws) m ->
          let s = spread m.im_native in
          if s > ws then (m.im_bm, s) else (wn, ws))
        ("-", 0.) ms
    in
    Fmt.pf ppf "  worst native iteration spread: %.0f%% (%s)@."
      (100. *. snd worst) (fst worst)
  end;
  (iters, ms)

let interp_bench ?(seed = 7) ?(json_path = "BENCH_interp.json") () ppf : unit =
  let iters, ms = run_interp_measurements ~seed ppf in
  write_artifact ppf json_path (interp_json ~iters ms)

(* The record-mode geomean may regress 20% on the committed baseline —
   generous, because shared runners are noisy; the artifact carries the
   per-workload spread.  Epoch mode is held to monolithic recording on the
   same engine (the VM, which epoch mode records on) measured in the same
   process, so 10% is tight enough to catch boundary work (snapshot, seal,
   last-write clear) that stops amortizing; in three runs (2-vCPU host, 5
   iterations) it read 1.71-1.76 against a [ratio_vm_basic] of 2.37-2.52.
   The VM must not fall behind the tree walker it replaces in native runs.
   Gated replay, which runs only on the VM, must stay near the VM's own
   native run: [replay_over_vm] measured
   0.95-1.06 in geomean in 7 runs with the one-walk round-robin pick
   (2-vCPU host, 2 iterations), against 1.11-1.23 in 7 alternated runs
   with the admitted tid list and the scheduler's pick, 1.34-1.50 with
   the polled boolean gate and 1.95 before that; 1.15 is about 9% over
   the worst run and trips at the median of the list-based pick. *)
let perfcheck_rules : Gate.rule list =
  [
    { metric = "geomean.ratio_basic"; reference = Baseline; direction = At_most; tolerance = 0.20 };
    { metric = "geomean.ratio_epoch"; reference = Metric "geomean.ratio_vm_basic";
      direction = At_most; tolerance = 0.10 };
    { metric = "geomean.vm_speedup"; reference = Const 1.0; direction = At_least; tolerance = 0.0 };
    { metric = "geomean.replay_over_vm"; reference = Const 1.15; direction = At_most;
      tolerance = 0.0 };
  ]

let interp_perfcheck ?(seed = 7)
    ?(baseline_path = "bench/BENCH_interp.baseline.json")
    ?(json_path = "BENCH_interp.json") () ppf : bool =
  let iters, ms = run_interp_measurements ~seed ppf in
  let j = interp_json ~iters ms in
  write_artifact ppf json_path j;
  Gate.check ~gate:"perfcheck" ~baseline_path perfcheck_rules j ppf

(* ------------------------------------------------------------------ *)
(* Static analysis (BENCH_analysis.json)                                 *)
(* ------------------------------------------------------------------ *)

type analysis_measure = {
  am_bm : string;
  am_total : int;              (* access sites in the program *)
  am_instr : int;              (* instrumented by the default plan *)
  am_guarded : int;
  am_space : int;              (* Section-5 space units, v_both recording *)
  am_overhead : float;         (* modeled record overhead, v_both *)
  am_static_pairs : int;       (* static race pairs *)
  am_confirmed_pairs : int;    (* confirmed by the HB detector (round-robin) *)
  am_native_sps : float;
  am_basic_sps : float;        (* v_basic recording under the plan *)
}

let measure_analysis ?(seed = 7) ~iters (bm : Workloads.benchmark) : analysis_measure =
  let p = Workloads.program bm in
  let sched () = Workloads.scheduler ~seed bm in
  let tr = Instrument.Transformer.transform p in
  let rec_both =
    Light_core.Light.record ~variant:Light_core.Light.v_both ~sched:(sched ()) ~seed p
  in
  (* dynamic confirmation of the static race pairs: one detector run under
     the deterministic scheduler, so the column is stdout-safe *)
  let _, det = Analysis.Hb_detector.detect ~sched:(Sched.round_robin ()) p in
  let dyn_pairs = Hashtbl.create 16 in
  List.iter
    (fun (r : Analysis.Hb_detector.race) ->
      Hashtbl.replace dyn_pairs (min r.site1 r.site2, max r.site1 r.site2) ())
    (Analysis.Hb_detector.races det);
  let confirmed =
    List.length
      (List.filter
         (fun (r : Analysis.Analyze.race_pair) ->
           Hashtbl.mem dyn_pairs (min r.t1.sid r.t2.sid, max r.t1.sid r.t2.sid))
         tr.analysis.races)
  in
  let cp = Interp.compile p in
  let _, native =
    steps_per_sec ~iters (fun () -> (Interp.run_compiled ~sched:(sched ()) cp).steps)
  in
  (* prepared once with the precomputed plan and recorded on the tree
     walker, like [native]: the timed cost is the instrumentation the plan
     leaves behind, not the analysis or compilation *)
  let _, basic =
    let pp = Light_core.Light.prepare ~variant:Light_core.Light.v_basic ~plan:tr.plan p in
    steps_per_sec ~iters (fun () ->
        (Light_core.Light.record_prepared ~sched:(sched ()) ~seed pp).outcome.steps)
  in
  {
    am_bm = bm.name;
    am_total = tr.total_access_sites;
    am_instr = tr.instrumented_sites;
    am_guarded = tr.guarded_sites;
    am_space = rec_both.space_longs;
    am_overhead = rec_both.overhead;
    am_static_pairs = List.length tr.analysis.races;
    am_confirmed_pairs = confirmed;
    am_native_sps = native.sps_med;
    am_basic_sps = basic.sps_med;
  }

let analysis_json ~iters (ms : analysis_measure list) : J.t =
  let row m =
    J.Obj
      [
        ("workload", J.Str m.am_bm); ("total_sites", J.Int m.am_total);
        ("instr", J.Int m.am_instr); ("guarded", J.Int m.am_guarded);
        ("space", J.Int m.am_space); ("overhead", J.Float m.am_overhead);
        ("static_pairs", J.Int m.am_static_pairs);
        ("confirmed_pairs", J.Int m.am_confirmed_pairs);
        ("native_sps", J.Float m.am_native_sps);
        ("basic_sps", J.Float m.am_basic_sps);
        ("ratio_basic", J.Float (m.am_native_sps /. m.am_basic_sps));
      ]
  in
  let sum f = J.Int (List.fold_left (fun n m -> n + f m) 0 ms) in
  J.Obj
    [
      ("iters", J.Int iters);
      ("rows", J.List (List.map row ms));
      ( "summary",
        J.Obj
          [
            ("total_sites", sum (fun m -> m.am_total));
            ("instr", sum (fun m -> m.am_instr));
            ("guarded", sum (fun m -> m.am_guarded));
            ( "geomean_ratio_basic",
              J.Float (geomean_f (List.map (fun m -> m.am_native_sps /. m.am_basic_sps) ms)) );
          ] );
    ]

(* Static analysis (points-to + escape + must-alias locks + MHP
   refinement): instrumented/guarded sites, Section-5 space units, modeled
   record overhead, race pairs with dynamic HB confirmation, and the
   wall-clock basic-recording ratio.  Sequential for timing purity, like
   the interp bench; every wall-clock column hides behind LIGHT_TIMINGS. *)
let analysis_bench ?(seed = 7) ?(json_path = "BENCH_analysis.json") () ppf : unit =
  let iters = bench_iters () in
  let ms = List.map (measure_analysis ~seed ~iters) Workloads.all in
  Chart.table
    ~title:"Static analysis: instrumentation plan, v_both recording"
    ~header:[ "workload"; "sites"; "instr"; "guard"; "space"; "ovh"; "races"; "dyn"; "xbasic" ]
    (List.map
       (fun m ->
         [
           m.am_bm;
           string_of_int m.am_total;
           string_of_int m.am_instr;
           string_of_int m.am_guarded;
           string_of_int m.am_space;
           Printf.sprintf "%.0f%%" (100. *. m.am_overhead);
           string_of_int m.am_static_pairs;
           string_of_int m.am_confirmed_pairs;
           timing_cell (Printf.sprintf "%.1f" (m.am_native_sps /. m.am_basic_sps));
         ])
       ms)
    ppf;
  let total f = List.fold_left (fun n m -> n + f m) 0 ms in
  Fmt.pf ppf "  instrumented sites: %d of %d (%d lock-guarded)@."
    (total (fun m -> m.am_instr)) (total (fun m -> m.am_total))
    (total (fun m -> m.am_guarded));
  if show_timings () then
    Fmt.pf ppf "  geomean record overhead (basic): %.2fx@."
      (geomean_f (List.map (fun m -> m.am_native_sps /. m.am_basic_sps) ms));
  write_artifact ppf json_path (analysis_json ~iters ms)

(* ------------------------------------------------------------------ *)
(* Sitecheck: static instrumented-site gate (BENCH_sitecheck.json)      *)
(* ------------------------------------------------------------------ *)

(* The static twin of [interp_perfcheck]: no timers, no recording — just
   the default (refined, O2) plan baked to mode bytes per workload,
   counted with {!Plan.count_modes} so the gate measures exactly what the
   recorder's fast path consults. *)

type site_row = { sr_bm : string; sr_total : int; sr_instr : int; sr_guarded : int }

let sitecheck_measure () : site_row list =
  List.map
    (fun (bm : Workloads.benchmark) ->
      let p = Workloads.program bm in
      let tr = Instrument.Transformer.transform p in
      let modes = Plan.modes tr.plan ~max_sid:(Lang.Ast.max_sid p) in
      let instr, guarded = Plan.count_modes modes in
      {
        sr_bm = bm.Workloads.name;
        sr_total = tr.Instrument.Transformer.total_access_sites;
        sr_instr = instr;
        sr_guarded = guarded;
      })
    Workloads.all

let sitecheck_json (rows : site_row list) : J.t =
  let row r =
    J.Obj
      [
        ("name", J.Str r.sr_bm);
        ("total", J.Int r.sr_total);
        ("instrumented", J.Int r.sr_instr);
        ("guarded", J.Int r.sr_guarded);
      ]
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rows in
  J.Obj
    [
      ("workloads", J.List (List.map row rows));
      ( "totals",
        J.Obj
          [
            ("total", J.Int (sum (fun r -> r.sr_total)));
            ("instrumented", J.Int (sum (fun r -> r.sr_instr)));
            ("guarded", J.Int (sum (fun r -> r.sr_guarded)));
          ] );
    ]

(* An analysis change that instruments more sites on some workload (a
   lost elision argument) or guards fewer (lost O2 coverage) fails;
   improvements pass and show in the artifact, from which the baseline is
   refreshed deliberately. *)
let sitecheck_rules : Gate.rule list =
  [
    { metric = "workloads.*.instrumented"; reference = Baseline; direction = At_most;
      tolerance = 0.0 };
    { metric = "workloads.*.guarded"; reference = Baseline; direction = At_least;
      tolerance = 0.0 };
  ]

let sitecheck ?(baseline_path = "bench/BENCH_sitecheck.baseline.json")
    ?(json_path = "BENCH_sitecheck.json") () ppf : bool =
  let rows = sitecheck_measure () in
  Chart.table
    ~title:"Sitecheck: instrumented/guarded sites under the default plan"
    ~header:[ "workload"; "sites"; "instrumented"; "guarded (O2)" ]
    (List.map
       (fun r ->
         [
           r.sr_bm; string_of_int r.sr_total; string_of_int r.sr_instr;
           string_of_int r.sr_guarded;
         ])
       rows)
    ppf;
  let j = sitecheck_json rows in
  write_artifact ppf json_path j;
  Gate.check ~gate:"sitecheck" ~baseline_path sitecheck_rules j ppf

(* ------------------------------------------------------------------ *)
(* Figure 6: real-world bugs                                            *)
(* ------------------------------------------------------------------ *)

let fig6 ?(tries = 60) ?(clap_budget = 60_000) ?pool () ppf : unit =
  let rows = Bugs.Harness.reproduce_all ~tries ~clap_budget ?pool () in
  Chart.table
    ~title:"Figure 6: real-world bug reproduction (Light vs Clap vs Chimera)"
    ~header:[ "bug"; "failure"; "Light"; "Clap"; "Chimera"; "trigger" ]
    (List.map
       (fun (r : Bugs.Harness.row) ->
         let mark (a : Bugs.Harness.attempt) = if a.reproduced then "yes" else "NO" in
         [ r.bug.name; r.bug.kind; mark r.light; mark r.clap; mark r.chimera; r.trigger_descr ])
       rows)
    ppf;
  List.iter
    (fun (r : Bugs.Harness.row) ->
      Fmt.pf ppf "  %-13s clap: %s@.  %-13s chimera: %s@." r.bug.name r.clap.detail ""
        r.chimera.detail)
    rows;
  let n tool = List.length (List.filter tool rows) in
  Fmt.pf ppf
    "@.  Light %d/8 (paper 8/8) | Clap %d/8 (paper 3/8) | Chimera %d/8 (paper 5/8)@.@."
    (n (fun r -> r.light.reproduced))
    (n (fun r -> r.clap.reproduced))
    (n (fun r -> r.chimera.reproduced))

(* ------------------------------------------------------------------ *)
(* Table 1: replay measurement                                          *)
(* ------------------------------------------------------------------ *)

let table1 ?(scale_factor = 1) ?pool () ppf : unit =
  let rows =
    Engine.Batch.map ?pool Bugs.Defs.all ~f:(fun (b : Bugs.Defs.bug) ->
        let scale = max 1 (b.table1_scale * scale_factor) in
        let p = Bugs.Defs.program_of b ~scale ~background:true () in
        match Bugs.Harness.find_trigger ~tries:40 p with
        | None -> None
        | Some tr ->
          let r =
            Light_core.Light.record ~variant:Light_core.Light.v_both
              ~sched:(tr.make_sched ()) p
          in
          let t0 = Unix.gettimeofday () in
          (match Light_core.Light.replay r with
          | Error e -> Some [ b.name; "-"; "-"; "-"; "solver failed: " ^ e ]
          | Ok rr ->
            let replay_s = Unix.gettimeofday () -. t0 -. rr.report.solve_time_s in
            let faithful = Bugs.Harness.crashes_match r.outcome rr.replay_outcome in
            Some
              [
                b.name;
                Printf.sprintf "%.1f" (float_of_int r.space_longs /. 1000.);
                timing_cell (Printf.sprintf "%.3f" rr.report.solve_time_s);
                timing_cell (Printf.sprintf "%.3f" replay_s);
                (if faithful then "reproduced" else "NOT reproduced");
              ]))
    |> List.filter_map Fun.id
  in
  Chart.table
    ~title:"Table 1: replay measurement (Light; per-bug recording at Table-1 scale)"
    ~header:[ "bug"; "Space (K longs)"; "Solve (s)"; "Replay (s)"; "result" ]
    rows ppf;
  Fmt.pf ppf
    "  (paper spaces: Cache4j 297K, Ftpserver 13K, Lucene-481 1088K, Lucene-651 2596K,@.\
    \   Tomcat-37458 15K, Tomcat-50885 590K, Tomcat-53498 28K, Weblech 2K; absolute@.\
    \   seconds differ — the reproduced shape is solve time tracking recorded space.)@.@."

(* ------------------------------------------------------------------ *)
(* Schedule-space exploration bench (BENCH_explore.json)                *)
(* ------------------------------------------------------------------ *)

(* Per-workload exploration throughput: every flip candidate of the
   recorded run is re-solved twice — seeded with the recording's witness
   and fresh — executed, and classified.  LIGHT_EXPLORE_FLIPS caps the
   candidates per workload (CI uses a reduced budget); verdict counts on
   stdout are deterministic, wall-clock columns hide behind LIGHT_TIMINGS,
   and the full measurement lands in [json_path] for the CI artifact. *)
let explore_bench ?(seed = 3) ?(json_path = "BENCH_explore.json") ?pool () ppf
    : unit =
  let limit = env_int "LIGHT_EXPLORE_FLIPS" 8 in
  let rows =
    Engine.Batch.map ?pool Workloads.all ~f:(fun (bm : Workloads.benchmark) ->
        let p = Workloads.program bm in
        match
          Explore.make_context ~seed ~sched:(Workloads.scheduler ~seed bm) p
        with
        | Error e -> Error (bm.name, e)
        | Ok ctx -> Ok (Explore.measure ~limit ~label:bm.name ctx))
  in
  let skipped = List.filter_map (function Error x -> Some x | Ok _ -> None) rows in
  let ms = List.filter_map (function Ok m -> Some m | Error _ -> None) rows in
  Chart.table
    ~title:
      "Schedule-space exploration (per-workload flip candidates: verdicts, \
       witness-seeded vs fresh re-solve)"
    ~header:
      [ "workload"; "flips"; "same"; "div"; "crash"; "stuck"; "infeas"; "abort";
        "re-solve (s)"; "fresh (s)"; "sched/s" ]
    (List.map
       (fun (m : Explore.stats) ->
         [
           m.st_label;
           string_of_int m.st_candidates;
           string_of_int m.st_same;
           string_of_int m.st_divergent;
           string_of_int m.st_crashed;
           string_of_int m.st_stuck;
           string_of_int m.st_infeasible;
           string_of_int m.st_aborted;
           timing_cell (Printf.sprintf "%.4f" m.st_resolve_s);
           timing_cell (Printf.sprintf "%.4f" m.st_fresh_s);
           timing_cell (Printf.sprintf "%.1f" m.st_sched_per_s);
         ])
       ms)
    ppf;
  List.iter
    (fun (name, e) -> Fmt.pf ppf "  %-13s skipped: %s@." name e)
    skipped;
  let totf f = List.fold_left (fun a m -> a +. f m) 0.0 ms in
  let tot f = List.fold_left (fun a m -> a + f m) 0 ms in
  let resolve = totf (fun m -> m.Explore.st_resolve_s)
  and fresh = totf (fun m -> m.Explore.st_fresh_s) in
  Fmt.pf ppf
    "  %d flip candidates over %d workloads (capped at %d per workload; \
     LIGHT_EXPLORE_FLIPS overrides): %d feasible neighbors (%d same, %d \
     divergent, %d crashed, %d stuck), %d infeasible, %d aborted@."
    (tot (fun m -> m.st_candidates))
    (List.length ms)
    limit
    (tot (fun m -> m.st_same + m.st_divergent + m.st_crashed + m.st_stuck))
    (tot (fun m -> m.st_same))
    (tot (fun m -> m.st_divergent))
    (tot (fun m -> m.st_crashed))
    (tot (fun m -> m.st_stuck))
    (tot (fun m -> m.st_infeasible))
    (tot (fun m -> m.st_aborted));
  if show_timings () then
    Fmt.pf ppf
      "  witness-seeded re-solve %.4fs vs fresh %.4fs -> %.1fx speedup (%d \
       fresh aborts)@."
      resolve fresh
      (if resolve > 0.0 then fresh /. resolve else 0.0)
      (tot (fun m -> m.st_fresh_aborted));
  write_artifact ppf json_path (Explore.stats_to_json ms)

(* ------------------------------------------------------------------ *)
(* Epoch-based recording (BENCH_epochs.json, Experiment E15)            *)
(* ------------------------------------------------------------------ *)

(* Synthetic service loop: 8 threads of mostly-local arithmetic with a
   lock-disciplined shared counter every 16 iterations and an unguarded
   hot write every 4 — running forever, so the recording is cut exactly by
   the step budget (LIGHT_EPOCH_STEPS) and the run length is a free
   parameter of the bounded-memory claim. *)
let epoch_synth_src : string =
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  add "class Acc { n; v; }";
  add "global acc;";
  add "global lk;";
  add "";
  add "fn worker(id) {";
  add "  lx = id * 17 + 3;";
  add "  a = acc;";
  add "  l = lk;";
  add "  i = 0;";
  add "  while (0 < 1) {";
  add "    w = 0;";
  add "    while (w < 24) { lx = (lx * 5 + w) %% 65536; w = w + 1; }";
  add "    if ((i %% 16) == 0) { sync (l) { l.v = l.v + 1; } }";
  add "    if ((i %% 4) == 0) { a.n = (a.n + 1) %% 1000000; }";
  add "    i = i + 1;";
  add "  }";
  add "  return lx;";
  add "}";
  add "";
  add "main {";
  add "  acc = new Acc;";
  add "  acc.n = 0;";
  add "  lk = new Acc;";
  add "  sync (lk) { lk.v = 0; }";
  for t = 1 to 8 do add "  spawn t%d = worker(%d);" t t done;
  for t = 1 to 8 do add "  join t%d;" t done;
  add "  print acc.n;";
  add "}";
  Buffer.contents b

(* process peak RSS in kB from /proc/self/status; -1 off Linux *)
let vm_hwm_kb () : int =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go acc =
          match In_channel.input_line ic with
          | None -> acc
          | Some l ->
            if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
              try Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun v -> go v)
              with _ -> go acc
            else go acc
        in
        go (-1))
  with _ -> -1

type epoch_bench_row = {
  eb_idx : int;
  eb_window : int;  (* steps in this epoch *)
  eb_deps : int;
  eb_ranges : int;
  eb_space : int;   (* Section-5 long units of the sealed window *)
}

(* Bounded-memory recording and O(epoch) replay over a >=10M step run
   (LIGHT_EPOCH_STEPS overrides; CI uses a reduced budget).  Phases, in
   this order because VmHWM is a process-lifetime high-water mark:
   1. epoch-mode streaming recording — every sealed epoch is serialized
      to the v4 log file and dropped, so live memory is bounded by one
      window; peak RSS and the max major-heap size seen at any epoch
      boundary are the memory evidence;
   2. per-epoch incremental solving over the streamed file, each system
      seeded from the previous epoch's witness (hint shift);
   3. single-epoch replays (first, middle, last) from their checkpoints —
      replayed steps vs window size is the O(epoch) evidence;
   4. monolithic recording of the same run on the same engine (the VM)
      for the comparison row (its retained log grows with run length; the
      epoch-mode peak does not).
   Counts on stdout are deterministic; every wall-clock or memory figure
   hides behind LIGHT_TIMINGS, and the full measurement lands in
   [json_path] for the CI artifact. *)
let epochs_bench ?(json_path = "BENCH_epochs.json") () ppf : unit =
  let total_steps = env_int "LIGHT_EPOCH_STEPS" 12_000_000 in
  let epoch_len = env_int "LIGHT_EPOCH_LEN" 500_000 in
  let p = Lang.Check.validate_exn (Lang.Parser.parse_program epoch_synth_src) in
  let variant = Light_core.Light.v_both in
  let mk_sched () = Sched.sticky ~seed:1 ~stickiness:64 in
  let pp = Light_core.Light.prepare ~variant p in
  (* phase 1: stream-record *)
  let log_path = Filename.temp_file "light_epochs" ".v4" in
  let heap_max = ref 0 and rows = ref [] in
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let summary =
    Out_channel.with_open_text log_path (fun oc ->
        let w =
          Light_core.Epoch.writer ~o1:true ~o2:true ~epoch_len
            (Out_channel.output_string oc)
        in
        Light_core.Epoch.record_epochs_stream ~sched:(mk_sched ())
          ~max_steps:total_steps ~epoch_len
          ~emit:(fun ck ->
            Light_core.Epoch.write_chunk w ck;
            heap_max := max !heap_max (Gc.quick_stat ()).Gc.heap_words;
            rows :=
              {
                eb_idx = ck.Light_core.Epoch.ck_idx;
                eb_window =
                  ck.Light_core.Epoch.ck_steps - ck.Light_core.Epoch.ck_start_steps;
                eb_deps = Light_core.Log.n_deps ck.Light_core.Epoch.ck_log;
                eb_ranges = Light_core.Log.n_ranges ck.Light_core.Epoch.ck_log;
                eb_space = Light_core.Log.space_longs ck.Light_core.Epoch.ck_log;
              }
              :: !rows)
          pp)
  in
  let record_s = Unix.gettimeofday () -. t0 in
  let rss_epoch_kb = vm_hwm_kb () in
  let rows = List.rev !rows in
  let log_bytes = (Unix.stat log_path).Unix.st_size in
  (* phase 2: incremental per-epoch solving over the streamed file *)
  let f =
    Light_core.Epoch.of_string_v4 (In_channel.with_open_text log_path In_channel.input_all)
    |> Result.fold ~ok:Fun.id ~error:(fun (e : Light_core.Log.error) -> failwith e.msg)
  in
  let chunks = f.Light_core.Epoch.f_chunks in
  let solves = Light_core.Epoch.solve_epochs chunks in
  (* phase 3: O(epoch) single-epoch replays from their checkpoints *)
  let n = List.length chunks in
  let picks = List.sort_uniq compare [ 0; n / 2; n - 1 ] in
  let replays =
    List.map
      (fun k ->
        let ck = List.nth chunks k in
        let window = ck.Light_core.Epoch.ck_steps - ck.Light_core.Epoch.ck_start_steps in
        let t0 = Unix.gettimeofday () in
        match Light_core.Epoch.replay_chunk pp ck with
        | Error e -> (k, window, -1, 0.0, "error: " ^ e)
        | Ok rr ->
          ( k,
            window,
            rr.Light_core.Epoch.rr_steps,
            Unix.gettimeofday () -. t0,
            "ok" ))
      picks
  in
  (* phase 4: monolithic recording of the same run, on the VM like phase 1 *)
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let mono =
    Light_core.Light.record_prepared ~engine:Vm.Bytecode ~sched:(mk_sched ())
      ~max_steps:total_steps pp
  in
  let mono_s = Unix.gettimeofday () -. t0 in
  let heap_mono = (Gc.quick_stat ()).Gc.heap_words in
  let rss_total_kb = vm_hwm_kb () in
  (* report *)
  Chart.table
    ~title:
      (Printf.sprintf
         "Experiment E15: epoch-based recording (%d steps, epoch length %d)"
         summary.Light_core.Epoch.ss_steps epoch_len)
    ~header:[ "epoch"; "steps"; "deps"; "ranges"; "space (longs)"; "solve"; "solve (s)" ]
    (List.map2
       (fun r (sol : Light_core.Epoch.epoch_solution) ->
         [
           string_of_int r.eb_idx;
           string_of_int r.eb_window;
           string_of_int r.eb_deps;
           string_of_int r.eb_ranges;
           string_of_int r.eb_space;
           result_name sol.es_report.result_kind;
           timing_cell (Printf.sprintf "%.4f" sol.es_report.solve_time_s);
         ])
       rows solves)
    ppf;
  let max_space = List.fold_left (fun a r -> max a r.eb_space) 0 rows in
  let sum_space = List.fold_left (fun a r -> a + r.eb_space) 0 rows in
  Fmt.pf ppf
    "  %d epochs over %d steps; retained-log bound: max window %d longs vs \
     monolithic %d longs (%.1fx)@."
    summary.Light_core.Epoch.ss_epochs summary.Light_core.Epoch.ss_steps max_space
    mono.Light_core.Light.space_longs
    (float_of_int mono.Light_core.Light.space_longs /. float_of_int (max 1 max_space));
  Fmt.pf ppf "  sum of epoch windows: %d longs (seal adds no records: %s)@."
    sum_space
    (if sum_space = mono.Light_core.Light.space_longs then "= monolithic"
     else Printf.sprintf "monolithic %d" mono.Light_core.Light.space_longs);
  List.iter
    (fun (k, window, steps, dt, st) ->
      Fmt.pf ppf "  replay epoch %d: %d steps for a %d-step window (%s, %s)@." k
        steps window st
        (timing_cell (Printf.sprintf "%.3fs incl. solve" dt)))
    replays;
  if show_timings () then begin
    let seal = summary.Light_core.Epoch.ss_seal_times in
    let seal_max = List.fold_left Float.max 0.0 seal in
    let seal_mean =
      List.fold_left ( +. ) 0.0 seal /. float_of_int (max 1 (List.length seal))
    in
    Fmt.pf ppf
      "  record: epoch-mode %.2fs vs monolithic %.2fs; seal latency mean \
       %.2fms, max %.2fms@."
      record_s mono_s (1000. *. seal_mean) (1000. *. seal_max);
    Fmt.pf ppf
      "  memory: peak RSS after epoch phase %d kB (after monolithic %d kB); \
       max major heap at a boundary %d words, after monolithic %d words; v4 \
       file %d bytes@."
      rss_epoch_kb rss_total_kb !heap_max heap_mono log_bytes
  end;
  let epoch_row (r, (sol : Light_core.Epoch.epoch_solution)) =
    J.Obj
      [
        ("epoch", J.Int r.eb_idx); ("steps", J.Int r.eb_window); ("deps", J.Int r.eb_deps);
        ("ranges", J.Int r.eb_ranges); ("space_longs", J.Int r.eb_space);
        ("hint_shift", J.Int sol.es_shift);
        ("result", J.Str (result_name sol.es_report.result_kind));
        ("solve_s", J.Float sol.es_report.solve_time_s);
      ]
  in
  let replay_row (k, window, steps, dt, st) =
    J.Obj
      [
        ("epoch", J.Int k); ("window", J.Int window); ("replay_steps", J.Int steps);
        ("replay_s", J.Float dt); ("status", J.Str st);
      ]
  in
  write_artifact ppf json_path
    (J.Obj
       [
         ("steps", J.Int summary.Light_core.Epoch.ss_steps);
         ("epoch_len", J.Int epoch_len);
         ("epochs", J.Int summary.Light_core.Epoch.ss_epochs);
         ("record_s", J.Float record_s);
         ("mono_record_s", J.Float mono_s);
         ("peak_rss_epoch_kb", J.Int rss_epoch_kb);
         ("peak_rss_after_mono_kb", J.Int rss_total_kb);
         ("heap_words_epoch_max", J.Int !heap_max);
         ("heap_words_after_mono", J.Int heap_mono);
         ("log_file_bytes", J.Int log_bytes);
         ("mono_space_longs", J.Int mono.Light_core.Light.space_longs);
         ("max_epoch_space_longs", J.Int max_space);
         ("sum_epoch_space_longs", J.Int sum_space);
         ( "seal_ms",
           J.List
             (List.map (fun s -> J.Float (1000. *. s)) summary.Light_core.Epoch.ss_seal_times)
         );
         ("epochs_detail", J.List (List.map epoch_row (List.combine rows solves)));
         ("replay", J.List (List.map replay_row replays));
       ]);
  Sys.remove log_path

(* ------------------------------------------------------------------ *)
(* Running example (Sections 2.3/2.4)                                   *)
(* ------------------------------------------------------------------ *)

let running_example () ppf : unit =
  let bm = Option.get (Workloads.by_name "cache4j") in
  let p = Workloads.program ~scale:2 bm in
  let sched () = Workloads.scheduler bm in
  let run variant =
    Light_core.Light.record ~variant ~sched:(sched ()) p
  in
  let basic = run Light_core.Light.v_basic in
  let both = run Light_core.Light.v_both in
  (* Leap comparison for the 1/3 claim *)
  let plan = basic.plan in
  let leap_rec = Baselines.Leap.create () in
  let leap_out = Vm.run ~hooks:(Baselines.Leap.hooks leap_rec) ~plan ~sched:(sched ()) p in
  let leap_ovh = Metrics.Cost.overhead leap_rec.meter ~steps:leap_out.steps in
  Chart.table ~title:"Running example (Cache4j workload, Sections 2.3-2.4)"
    ~header:[ "configuration"; "overhead"; "paper" ]
    [
      [ "Leap"; Printf.sprintf "%.2fx" leap_ovh; "~3x" ];
      [ "Light core (V_basic)"; Printf.sprintf "%.2fx" basic.overhead; "1.2x" ];
      [ "Light + O1 + O2"; Printf.sprintf "%.0f%%" (100. *. both.overhead); "~30%" ];
    ]
    ppf

(* ------------------------------------------------------------------ *)
(* Record service under load (BENCH_service.json)                       *)
(* ------------------------------------------------------------------ *)

(* The ROADMAP's deployment shape: one process recording thousands of user
   sessions.  The corpus is every workload x every recording variant
   (prepared once — instrument-once, record-every-run) x both execution
   engines; sessions cycle through it with per-session scheduler seeds.

   A session is a bounded recording window (LIGHT_SERVICE_STEPS
   interpreter steps, like the epoch bench's windows) — the deployment
   regime is thousands of short user sessions, so this bench measures
   what the service layer amortizes (front-end, recorder allocation,
   dispatch) rather than steady-state interpreter throughput, which the
   interp bench already covers.

   Passes, in this order (log bytes do not depend on intern ids, so no
   pass warms the intern table for the others; only the modeled overhead
   does, through [Metrics.Cost.stripe_of], ROADMAP item 8):
   1. serial reference — the service on a 1-worker pool: the per-session
      log digests are the identity reference for everything after;
   2. service under load — the real measurement: default pool, bounded
      queue, recycled recorders, sharded intern;
   3. service without recycling — same pool, fresh recorder per session
      (attributes the recycling share of the speedup);
   4. naive per-session [prepare] + [record_prepared] loop at the same
      LIGHT_JOBS, on each combination's engine — what
      a deployment without the service's prepared-session cache does:
      each session arrives as source, so every session re-parses,
      re-validates, re-transforms, re-analyzes, re-compiles, and
      allocates a fresh recorder.
   Byte-identity of per-session v3 logs is checked across pass 1 vs 2
   (worker count + recycling) and pass 1 vs 4 (the whole service stack vs
   the naive loop).  Identity across intern shard counts is the same
   stdout diffed under LIGHT_INTERN_SHARDS=1 vs 16 (CI does this for the
   engine's table1; the shard axis rides on the digests printed here). *)

type service_combo = {
  svc_label : string;
  svc_bm : Workloads.benchmark;
  svc_pp : Light_core.Light.prepared;
  svc_engine : Vm.engine;
  svc_variant : Light_core.Light.variant;
}

let service_corpus () : service_combo array =
  let variants =
    [
      ("basic", Light_core.Light.v_basic);
      ("O1", Light_core.Light.v_o1);
      ("O1+O2", Light_core.Light.v_both);
    ]
  in
  let engines = [ ("tree", Vm.Tree); ("vm", Vm.Bytecode) ] in
  Array.of_list
    (List.concat_map
       (fun (bm : Workloads.benchmark) ->
         let program = Workloads.program bm in
         List.concat_map
           (fun (vn, variant) ->
             let pp = Light_core.Light.prepare ~variant program in
             List.map
               (fun (en, engine) ->
                 {
                   svc_label =
                     Printf.sprintf "%s/%s/%s" bm.Workloads.name vn en;
                   svc_bm = bm;
                   svc_pp = pp;
                   svc_engine = engine;
                   svc_variant = variant;
                 })
               engines)
           variants)
       Workloads.all)

let service_sessions (corpus : service_combo array) (n : int)
    ~(max_steps : int) : Service.session array =
  Array.init n (fun i ->
      let c = corpus.(i mod Array.length corpus) in
      Service.session ~label:c.svc_label ~engine:c.svc_engine ~seed:i
        ~max_steps
        ~sched:(fun () -> Workloads.scheduler ~seed:(1000 + i) c.svc_bm)
        c.svc_pp)

type service_measure = {
  sv_sessions : int;
  sv_corpus : int;
  sv_naive_n : int;
  sv_steps_budget : int;  (* per-session recording window *)
  sv_queue : int;
  sv_workers : int;
  sv_serial_s : float;
  sv_service_s : float;
  sv_norecycle_s : float;
  sv_naive_s : float;
  sv_prepare_s : float;
  sv_identity_workers : bool;
  sv_identity_naive : bool;
  sv_done : int;
  sv_rejected : int;
  sv_failed : int;
  sv_total_space : int;
  sv_total_steps : int;
  sv_latencies : float array;  (* pass-2 submit->finish, seconds *)
  sv_stats : Service.stats;    (* pass-2 *)
  sv_intern : Lang.Intern.stats;  (* pass-2 window *)
  sv_rss_kb : int;
}

let service_measure () : service_measure =
  let n = env_int "LIGHT_SERVICE_SESSIONS" 1008 in
  let naive_n = min n (env_int "LIGHT_SERVICE_NAIVE" 168) in
  let steps_budget = env_int "LIGHT_SERVICE_STEPS" 500 in
  let queue = env_int "LIGHT_SERVICE_QUEUE" 64 in
  let t0 = Unix.gettimeofday () in
  let corpus = service_corpus () in
  let prepare_s = Unix.gettimeofday () -. t0 in
  let sessions = service_sessions corpus n ~max_steps:steps_budget in
  let pool = Engine.Pool.get_default () in
  (* pass 1: serial reference *)
  let t0 = Unix.gettimeofday () in
  let ref_results, _ =
    Engine.Pool.with_pool ~size:1 (fun p1 ->
        Service.run ~pool:p1 ~queue_capacity:queue sessions)
  in
  let serial_s = Unix.gettimeofday () -. t0 in
  (* pass 2: the service under load *)
  Lang.Intern.reset_stats ();
  let t0 = Unix.gettimeofday () in
  let results, stats = Service.run ~pool ~queue_capacity:queue sessions in
  let service_s = Unix.gettimeofday () -. t0 in
  let intern = Lang.Intern.stats () in
  (* pass 3: fresh recorder per session (recycling attribution) *)
  let t0 = Unix.gettimeofday () in
  let norec_results, _ =
    Service.run ~pool ~queue_capacity:queue ~recycle:false sessions
  in
  let norecycle_s = Unix.gettimeofday () -. t0 in
  (* pass 4: naive per-session prepare + record at the same LIGHT_JOBS *)
  let t0 = Unix.gettimeofday () in
  let naive_digests =
    Engine.Pool.map_array pool
      ~f:(fun _ i ->
        let c = corpus.(i mod Array.length corpus) in
        (* the session arrives as source: the naive loop pays the whole
           front-end per session (the service cached it in [prepare]) *)
        let p = Workloads.program c.svc_bm in
        let r =
          Light_core.Light.record_prepared ~engine:c.svc_engine
            ~sched:(Workloads.scheduler ~seed:(1000 + i) c.svc_bm)
            ~max_steps:steps_budget ~seed:i
            (Light_core.Light.prepare ~variant:c.svc_variant p)
        in
        Digest.string (Light_core.Log.to_string r.Light_core.Light.log))
      (Array.init naive_n (fun i -> i))
  in
  let naive_s = Unix.gettimeofday () -. t0 in
  let id_workers = ref true and id_naive = ref true in
  Array.iteri
    (fun i (r : Service.result_) ->
      if r.Service.sr_digest <> ref_results.(i).Service.sr_digest then
        id_workers := false;
      ignore (norec_results.(i)))
    results;
  Array.iteri
    (fun i (r : Service.result_) ->
      if r.Service.sr_digest <> norec_results.(i).Service.sr_digest then
        id_workers := false)
    results;
  Array.iteri
    (fun i d ->
      if d <> ref_results.(i).Service.sr_digest then id_naive := false)
    naive_digests;
  let total_space =
    Array.fold_left (fun a r -> a + r.Service.sr_space_longs) 0 results
  in
  let total_steps =
    Array.fold_left (fun a r -> a + r.Service.sr_steps) 0 results
  in
  {
    sv_sessions = n;
    sv_corpus = Array.length corpus;
    sv_naive_n = naive_n;
    sv_steps_budget = steps_budget;
    sv_queue = queue;
    sv_workers = stats.Service.st_workers;
    sv_serial_s = serial_s;
    sv_service_s = service_s;
    sv_norecycle_s = norecycle_s;
    sv_naive_s = naive_s;
    sv_prepare_s = prepare_s;
    sv_identity_workers = !id_workers;
    sv_identity_naive = !id_naive;
    sv_done = stats.Service.st_done;
    sv_rejected = stats.Service.st_rejected;
    sv_failed = stats.Service.st_failed;
    sv_total_space = total_space;
    sv_total_steps = total_steps;
    sv_latencies = Service.latencies results;
    sv_stats = stats;
    sv_intern = intern;
    sv_rss_kb = vm_hwm_kb ();
  }

let service_rate (sessions : int) (secs : float) : float =
  if secs <= 0.0 then 0.0 else float_of_int sessions /. secs

let service_speedup (m : service_measure) : float =
  let sps = service_rate m.sv_sessions m.sv_service_s in
  let nps = service_rate m.sv_naive_n m.sv_naive_s in
  if nps <= 0.0 then 0.0 else sps /. nps

let service_json (m : service_measure) : J.t =
  let sps = service_rate m.sv_sessions m.sv_service_s in
  let q = m.sv_stats.Service.st_queue in
  J.Obj
       [
         ("schema", J.Str "light-service/v1");
         ("sessions", J.Int m.sv_sessions);
         ("corpus", J.Int m.sv_corpus);
         ("naive_sessions", J.Int m.sv_naive_n);
         ("steps_per_session", J.Int m.sv_steps_budget);
         ("queue_capacity", J.Int m.sv_queue);
         ("workers", J.Int m.sv_workers);
         ("intern_shards", J.Int Lang.Intern.shard_count);
         ("done", J.Int m.sv_done);
         ("rejected", J.Int m.sv_rejected);
         ("failed", J.Int m.sv_failed);
         ("identity_serial_vs_service", J.Bool m.sv_identity_workers);
         ("identity_naive_vs_service", J.Bool m.sv_identity_naive);
         ("prepare_s", J.Float m.sv_prepare_s);
         ("serial_s", J.Float m.sv_serial_s);
         ("service_s", J.Float m.sv_service_s);
         ("norecycle_s", J.Float m.sv_norecycle_s);
         ("naive_s", J.Float m.sv_naive_s);
         ("sessions_per_sec", J.Float sps);
         ("serial_sessions_per_sec", J.Float (service_rate m.sv_sessions m.sv_serial_s));
         ("norecycle_sessions_per_sec", J.Float (service_rate m.sv_sessions m.sv_norecycle_s));
         ("naive_sessions_per_sec", J.Float (service_rate m.sv_naive_n m.sv_naive_s));
         ("speedup_vs_naive", J.Float (service_speedup m));
         ("p50_latency_ms", J.Float (1000. *. Service.percentile 50. m.sv_latencies));
         ("p99_latency_ms", J.Float (1000. *. Service.percentile 99. m.sv_latencies));
         ("peak_rss_kb", J.Int m.sv_rss_kb);
         ("total_space_longs", J.Int m.sv_total_space);
         ("total_steps", J.Int m.sv_total_steps);
         ("recorders_created", J.Int m.sv_stats.Service.st_recorders_created);
         ("inline_runs", J.Int m.sv_stats.Service.st_inline_runs);
         ( "queue",
           J.Obj
             [
               ("peak", J.Int q.Engine.Bqueue.bq_peak);
               ("pushes", J.Int q.Engine.Bqueue.bq_pushes);
               ("blocked_pushes", J.Int q.Engine.Bqueue.bq_blocked_pushes);
               ("blocked_pops", J.Int q.Engine.Bqueue.bq_blocked_pops);
             ] );
         ( "intern",
           J.Obj
             [
               ("shards", J.Int m.sv_intern.Lang.Intern.st_shards);
               ("lookups", J.Int m.sv_intern.Lang.Intern.st_lookups);
               ("inserts", J.Int m.sv_intern.Lang.Intern.st_inserts);
               ("contended", J.Int m.sv_intern.Lang.Intern.st_contended);
             ] );
       ]

let service_report (m : service_measure) ppf : unit =
  Fmt.pf ppf
    "Experiment E16: record service under load (%d sessions of <=%d steps \
     over a %d-combo corpus: 28 workloads x 3 variants x 2 engines)@."
    m.sv_sessions m.sv_steps_budget m.sv_corpus;
  Fmt.pf ppf "  sessions: %d done, %d rejected, %d failed@." m.sv_done
    m.sv_rejected m.sv_failed;
  Fmt.pf ppf
    "  per-session v3 log identity: serial(1 worker) vs service/no-recycle: \
     %s; naive Light.record vs service (%d sessions): %s@."
    (if m.sv_identity_workers then "ok" else "MISMATCH")
    m.sv_naive_n
    (if m.sv_identity_naive then "ok" else "MISMATCH");
  Fmt.pf ppf "  total recorded space: %d longs over %d interpreter steps@."
    m.sv_total_space m.sv_total_steps;
  if show_timings () then begin
    Fmt.pf ppf
      "  throughput: service %.0f sessions/sec (serial %.0f, no-recycle \
       %.0f) vs naive %.0f — speedup %.1fx (workers=%d, queue=%d)@."
      (service_rate m.sv_sessions m.sv_service_s)
      (service_rate m.sv_sessions m.sv_serial_s)
      (service_rate m.sv_sessions m.sv_norecycle_s)
      (service_rate m.sv_naive_n m.sv_naive_s)
      (service_speedup m) m.sv_workers m.sv_queue;
    Fmt.pf ppf "  latency: p50 %.2fms, p99 %.2fms (submit -> finish)@."
      (1000. *. Service.percentile 50. m.sv_latencies)
      (1000. *. Service.percentile 99. m.sv_latencies);
    Fmt.pf ppf
      "  recorders created: %d for %d executed sessions; queue peak %d, \
       submitter inline runs %d; peak RSS %d kB@."
      m.sv_stats.Service.st_recorders_created
      (m.sv_done + m.sv_failed)
      m.sv_stats.Service.st_queue.Engine.Bqueue.bq_peak
      m.sv_stats.Service.st_inline_runs m.sv_rss_kb;
    Fmt.pf ppf
      "  intern (service pass): %d lookups, %d inserts, %d contended \
       acquisitions across %d shards@."
      m.sv_intern.Lang.Intern.st_lookups m.sv_intern.Lang.Intern.st_inserts
      m.sv_intern.Lang.Intern.st_contended m.sv_intern.Lang.Intern.st_shards
  end

let service_bench ?(json_path = "BENCH_service.json") () ppf : unit =
  let m = service_measure () in
  service_report m ppf;
  write_artifact ppf json_path (service_json m)

(* Identity breaks and failed or rejected sessions fail at any budget.  The
   service must stay 2x the naive loop (both rates come from the same
   process, so the ratio tolerates runner noise) and within 50% of the
   committed baseline's speedup. *)
let servicecheck_rules : Gate.rule list =
  [
    { Gate.metric = "identity_serial_vs_service"; reference = Const 1.0;
      direction = At_least; tolerance = 0.0 };
    { metric = "identity_naive_vs_service"; reference = Const 1.0; direction = At_least;
      tolerance = 0.0 };
    { metric = "failed"; reference = Const 0.0; direction = At_most; tolerance = 0.0 };
    { metric = "rejected"; reference = Const 0.0; direction = At_most; tolerance = 0.0 };
    { metric = "speedup_vs_naive"; reference = Const 2.0; direction = At_least;
      tolerance = 0.0 };
    { metric = "speedup_vs_naive"; reference = Baseline; direction = At_least;
      tolerance = 0.5 };
  ]

let service_perfcheck ?(baseline_path = "bench/BENCH_service.baseline.json")
    ?(json_path = "BENCH_service.json") () ppf : bool =
  let m = service_measure () in
  service_report m ppf;
  let j = service_json m in
  write_artifact ppf json_path j;
  Gate.check ~gate:"servicecheck" ~baseline_path servicecheck_rules j ppf
