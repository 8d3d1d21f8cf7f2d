(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (Section 5) and runs Bechamel wall-clock microbenchmarks of
    the core components.

    Usage:
      dune exec bench/main.exe              # all experiments (E1-E9)
      dune exec bench/main.exe fig4         # one experiment
      dune exec bench/main.exe fig4 fig5 table1
      dune exec bench/main.exe bechamel     # wall-clock microbenches
    Experiments: fig4 fig5 fig6 fig7 table1 running-example solver bechamel

    Every experiment that measures writes a BENCH_*.json artifact
    (solver, interp, analysis, explore, and the explicit-only epochs and
    service).  The explicit-only check verbs [perfcheck], [solvercheck],
    [sitecheck] and [servicecheck] repeat the interp, solver, static
    site-count and service measurements, write their artifacts
    (BENCH_sitecheck.json for the site counts) and exit nonzero when a rule
    fails against the committed
    bench/BENCH_*.baseline.json; DESIGN.md, "Bench gates", has the table
    of rules.  Budgets come from LIGHT_BENCH_ITERS, LIGHT_EXPLORE_FLIPS,
    LIGHT_EPOCH_STEPS / LIGHT_EPOCH_LEN and LIGHT_SERVICE_* (positive
    integers; anything else keeps the default).

    Experiments fan out across the engine's domain pool; set LIGHT_JOBS=N
    to choose the pool size (default: one worker per core, capped at 8).
    The experiment output on stdout is deterministic — byte-identical for
    any LIGHT_JOBS — because results merge in job order and wall-clock
    values go to stderr (or are gated behind LIGHT_TIMINGS=1).  The
    bechamel microbenchmarks measure wall-clock by nature and only run when
    named explicitly. *)

let ppf = Format.std_formatter

let pool = Engine.Pool.get_default ()

(* explicit memo rather than [lazy]: a lazy forced from several domains
   raises [Lazy.Undefined]; the engine audit removed the pattern *)
let measurements =
  let memo = ref None in
  fun () ->
    match !memo with
    | Some ms -> ms
    | None ->
      let ms = Report.Experiments.measure_all ~pool () in
      memo := Some ms;
      ms

let run_fig4 () = Report.Experiments.fig4 (measurements ()) ppf
let run_fig5 () = Report.Experiments.fig5 (measurements ()) ppf
let run_fig7 () = Report.Experiments.fig7 (measurements ()) ppf
let run_fig6 () = Report.Experiments.fig6 ~pool () ppf
let run_table1 () = Report.Experiments.table1 ~pool () ppf
let run_example () = Report.Experiments.running_example () ppf
let run_solver () = ignore (Report.Experiments.solver_bench ~pool () ppf)
let run_interp () = Report.Experiments.interp_bench () ppf
let run_analysis () = Report.Experiments.analysis_bench () ppf
let run_explore () = Report.Experiments.explore_bench ~pool () ppf

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock microbenchmarks                                  *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let workload name =
    Option.get (Workloads.by_name name)
  in
  let interp_test name bm_name =
    Test.make ~name (Staged.stage (fun () ->
        let bm = workload bm_name in
        let p = Workloads.program bm in
        ignore
          (Runtime.Interp.run ~sched:(Workloads.scheduler bm) p)))
  in
  let record_test name bm_name variant =
    Test.make ~name (Staged.stage (fun () ->
        let bm = workload bm_name in
        let p = Workloads.program bm in
        ignore (Light_core.Light.record ~variant ~sched:(Workloads.scheduler bm) p)))
  in
  let solve_test name bug_name =
    Test.make ~name (Staged.stage (fun () ->
        let b = Option.get (Bugs.Defs.by_name bug_name) in
        let p = Bugs.Defs.program_of b ~scale:4 () in
        match Bugs.Harness.find_trigger ~tries:10 p with
        | Some tr ->
          let r =
            Light_core.Light.record ~variant:Light_core.Light.v_both
              ~sched:(tr.make_sched ()) p
          in
          ignore (Light_core.Replayer.solve r.log)
        | None -> ()))
  in
  let replay_test name bug_name =
    Test.make ~name (Staged.stage (fun () ->
        let b = Option.get (Bugs.Defs.by_name bug_name) in
        let p = Bugs.Defs.program_of b () in
        match Bugs.Harness.find_trigger ~tries:10 p with
        | Some tr ->
          let r =
            Light_core.Light.record ~variant:Light_core.Light.v_both
              ~sched:(tr.make_sched ()) p
          in
          ignore (Light_core.Light.replay r)
        | None -> ()))
  in
  [
    (* E1/E2 substrate: plain interpretation vs recording *)
    interp_test "interp/cache4j-base" "cache4j";
    record_test "record/cache4j-light-basic" "cache4j" Light_core.Light.v_basic;
    record_test "record/cache4j-light-o1o2" "cache4j" Light_core.Light.v_both;
    interp_test "interp/avrora-base" "dacapo-avrora";
    record_test "record/avrora-light-o1o2" "dacapo-avrora" Light_core.Light.v_both;
    (* E6: constraint generation + IDL solving + full replay *)
    solve_test "solve/cache4j-bug" "Cache4j";
    solve_test "solve/lucene651-bug" "Lucene-651";
    replay_test "replay/tomcat53498-bug" "Tomcat-53498";
  ]

let run_bechamel () =
  let open Bechamel in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:20 ~quota:(Time.second 1.0) ~kde:(Some 100) () in
  let tests = bechamel_tests () in
  Format.printf "Bechamel wall-clock microbenchmarks (monotonic clock)@.";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      (* sort: Hashtbl.iter order is not stable across runs *)
      Hashtbl.fold (fun name raw acc -> (name, raw) :: acc) results []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.iter (fun (name, raw) ->
             let stats =
               Analyze.one
                 (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |])
                 Toolkit.Instance.monotonic_clock raw
             in
             match Analyze.OLS.estimates stats with
             | Some [ est ] -> Format.printf "  %-32s %12.0f ns/run@." name est
             | _ -> Format.printf "  %-32s (no estimate)@." name))
    tests;
  Format.printf "@."

(* ------------------------------------------------------------------ *)

let all_experiments =
  [
    ("fig4", run_fig4);
    ("fig5", run_fig5);
    ("fig6", run_fig6);
    ("fig7", run_fig7);
    ("table1", run_table1);
    ("running-example", run_example);
    ("solver", run_solver);
    ("interp", run_interp);
    ("analysis", run_analysis);
    ("explore", run_explore);
  ]

(* CI gates: measure, then exit nonzero when a rule fails *)
let checks =
  [
    ("perfcheck", fun () -> Report.Experiments.interp_perfcheck () ppf);
    ("solvercheck", fun () -> Report.Experiments.solvercheck ~pool () ppf);
    ("sitecheck", fun () -> Report.Experiments.sitecheck () ppf);
    ("servicecheck", fun () -> Report.Experiments.service_perfcheck () ppf);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let t0 = Unix.gettimeofday () in
  (match args with
  | [] -> List.iter (fun (_, f) -> f ()) all_experiments
  | names ->
    List.iter
      (fun n ->
        match List.assoc_opt n all_experiments with
        | Some f -> f ()
        | None when n = "bechamel" -> run_bechamel ()
        | None when n = "epochs" ->
          (* explicit-only, like bechamel: the default budget is a 12M-step
             recording (LIGHT_EPOCH_STEPS reduces it in CI) *)
          Report.Experiments.epochs_bench () ppf
        | None when n = "service" ->
          (* explicit-only: drives LIGHT_SERVICE_SESSIONS sessions (default
             1008) through the record service and writes BENCH_service.json *)
          Report.Experiments.service_bench () ppf
        | None when List.mem_assoc n checks ->
          if not (List.assoc n checks ()) then exit 1
        | None ->
          Format.printf
            "unknown experiment %s (have: %s bechamel epochs perfcheck solvercheck sitecheck service servicecheck)@." n
            (String.concat " " (List.map fst all_experiments)))
      names);
  (* wall-clock on stderr: stdout stays byte-identical across runs/pools *)
  Format.eprintf "total bench time: %.1fs (jobs=%d)@."
    (Unix.gettimeofday () -. t0)
    (Engine.Pool.size pool)
