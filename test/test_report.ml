(* Report-layer tests (chart rendering, experiment plumbing, the bench
   gate and the JSON layer its artifacts go through) and whole-corpus
   properties: every bug model and every workload program pretty-prints,
   reparses and revalidates. *)

module J = Analysis.Lint.Json
module Gate = Report.Gate

let render f =
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Chart                                                               *)
(* ------------------------------------------------------------------ *)

let test_grouped () =
  let out =
    render
      (Report.Chart.grouped ~title:"T" ~series:[ "A"; "B" ]
         [ ("row1", [ 1.0; 2.0 ]); ("row2", [ 4.0; 1.0 ]) ])
  in
  Alcotest.(check bool) "title" true (contains out "T");
  Alcotest.(check bool) "series label" true (contains out "A");
  Alcotest.(check bool) "value printed" true (contains out "4.00");
  (* the per-row maximum fills the bar *)
  Alcotest.(check bool) "full bar for max" true (contains out (String.make 44 '#'))

let test_stacked () =
  let out =
    render
      (Report.Chart.stacked ~title:"S" ~segments:[ "x"; "y"; "z" ]
         [ ("r", [ 0.5; 0.25; 0.25 ]) ])
  in
  Alcotest.(check bool) "percentages" true (contains out "50%");
  Alcotest.(check bool) "legend" true (contains out "legend")

let test_stacked_zero_row () =
  (* all-zero rows must not divide by zero *)
  let out =
    render (Report.Chart.stacked ~title:"Z" ~segments:[ "x" ] [ ("r", [ 0.0 ]) ])
  in
  Alcotest.(check bool) "renders" true (String.length out > 0)

let test_table () =
  let out =
    render
      (Report.Chart.table ~title:"Tbl" ~header:[ "a"; "b" ]
         [ [ "1"; "22" ]; [ "333" ] ])
  in
  Alcotest.(check bool) "pads ragged rows" true (contains out "333")

(* ------------------------------------------------------------------ *)
(* Corpus roundtrips                                                    *)
(* ------------------------------------------------------------------ *)

let reparses (name : string) (p : Lang.Ast.program) =
  let printed = Lang.Pp.to_string p in
  match Lang.Parser.parse_program printed with
  | p2 ->
    (match Lang.Check.validate p2 with
    | [] -> ()
    | errs ->
      Alcotest.failf "%s: reprint fails validation: %s" name
        (Lang.Check.error_to_string (List.hd errs)))
  | exception Lang.Parser.Parse_error (m, l) ->
    Alcotest.failf "%s: reprint fails to parse (%s at line %d)" name m l

let test_bug_sources_roundtrip () =
  List.iter
    (fun (b : Bugs.Defs.bug) ->
      reparses b.name (Bugs.Defs.program_of b ());
      reparses (b.name ^ "+bg") (Bugs.Defs.program_of b ~background:true ()))
    Bugs.Defs.all

let test_workload_sources_roundtrip () =
  List.iter
    (fun (bm : Workloads.benchmark) -> reparses bm.name (Workloads.program bm))
    Workloads.all

let test_patched_sources_roundtrip () =
  List.iter
    (fun (b : Bugs.Defs.bug) ->
      let pi = Baselines.Chimera.patch (Bugs.Defs.program_of b ()) in
      reparses (b.name ^ "-patched") pi.patched)
    Bugs.Defs.all

(* ------------------------------------------------------------------ *)
(* Experiment plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let test_measurements_deterministic () =
  let bm = Option.get (Workloads.by_name "jgf-sparse") in
  let m1 = Report.Experiments.measure_benchmark bm in
  let m2 = Report.Experiments.measure_benchmark bm in
  Alcotest.(check bool) "same overheads" true
    (m1.leap.overhead = m2.leap.overhead
    && m1.light_both.overhead = m2.light_both.overhead);
  Alcotest.(check int) "same space" m1.light_both.space_longs m2.light_both.space_longs

let test_fig_rendering () =
  let ms =
    List.filter_map Workloads.by_name [ "jgf-series"; "dacapo-h2" ]
    |> List.map (Report.Experiments.measure_benchmark ?scale:None ?seed:None)
  in
  let f4 = render (Report.Experiments.fig4 ms) in
  Alcotest.(check bool) "fig4 mentions Leap" true (contains f4 "Leap");
  let f7 = render (Report.Experiments.fig7 ms) in
  Alcotest.(check bool) "fig7 mentions O1" true (contains f7 "O1")

(* every bench budget goes through one parser: a positive int, else the
   default (LIGHT_EXPLORE_FLIPS=0 used to measure zero flips) *)
let test_env_budgets () =
  let var = "LIGHT_TEST_BUDGET" in
  List.iter
    (fun (v, want) ->
      Unix.putenv var v;
      Alcotest.(check int) (Printf.sprintf "%S" v) want (Report.Experiments.env_int var 8))
    [ ("3", 3); ("0", 8); ("-2", 8); ("abc", 8); ("", 8) ]

(* ------------------------------------------------------------------ *)
(* JSON layer                                                          *)
(* ------------------------------------------------------------------ *)

let parse_fails (src : string) : string option =
  match J.of_string src with
  | _ -> None
  | exception J.Parse_error e -> Some e

let test_json_nonfinite () =
  (* JSON has no nan/inf: printing them must not produce text the parser
     rejects *)
  List.iter
    (fun f ->
      Alcotest.(check string) "prints null" "null" (J.to_string (J.Float f));
      Alcotest.(check bool) "re-parses" true
        (J.of_string (J.to_string (J.Obj [ ("x", J.Float f) ])) = J.Obj [ ("x", J.Null) ]))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_json_bad_unicode_escape () =
  (* a non-hex \u escape is a parse error with its offset, not a Failure *)
  List.iter
    (fun src ->
      match parse_fails src with
      | Some e -> Alcotest.(check bool) ("offset in: " ^ e) true (contains e "offset")
      | None -> Alcotest.failf "%s parsed" src)
    [ "\"\\uzzzz\""; "\"\\u12g4\""; "\"\\u-123\""; "\"\\u_1ff\"" ];
  Alcotest.(check bool) "valid escape decodes" true
    (J.of_string "\"\\u0041\\u000a\"" = J.Str "A\n")

let test_json_float_precision () =
  (* sub-millisecond timings keep their digits *)
  List.iter
    (fun f ->
      Alcotest.(check bool) (Printf.sprintf "%h survives" f) true
        (J.of_string (J.to_string (J.Float f)) = J.Float f))
    [ 0.000042; 1e-9; 0.1; 1.0 /. 3.0; 2.8668; 1e21; -0.5; 0.0; 1.0 ];
  Alcotest.(check string) "integral floats stay floats" "2.0" (J.to_string (J.Float 2.0))

let json_gen : J.t QCheck.Gen.t =
  QCheck.Gen.(
    let str = string_size ~gen:char (int_range 0 8) in
    let finite = map (fun f -> if Float.is_finite f then f else 0.0) float in
    let leaf =
      oneof
        [
          return J.Null;
          map (fun b -> J.Bool b) bool;
          map (fun i -> J.Int i) int;
          map (fun f -> J.Float f) finite;
          map (fun f -> J.Float f) (float_range 0.0 1e-3);
          map (fun s -> J.Str s) str;
        ]
    in
    sized_size (int_range 0 3)
      (fix (fun self n ->
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun xs -> J.List xs) (list_size (int_range 0 4) (self (n - 1))));
                 ( 1,
                   map
                     (fun kvs -> J.Obj kvs)
                     (list_size (int_range 0 4) (pair str (self (n - 1)))) );
               ])))

let prop_json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"Json values round-trip"
    (QCheck.make ~print:(fun j -> J.to_string j) json_gen)
    (fun j -> J.of_string (J.to_string j) = j)

(* explore-style stats rows: sub-millisecond solve times and rates *)
let stats_gen =
  QCheck.Gen.(
    let f6 = map (fun n -> float_of_int n /. 1e6) (int_range 0 10_000_000) in
    let f2 = map (fun n -> float_of_int n /. 100.) (int_range 0 100_000) in
    let label = string_size ~gen:(char_range 'a' 'z') (int_range 1 12) in
    let count = int_range 0 50 in
    label >>= fun st_label ->
    count >>= fun st_candidates ->
    count >>= fun st_same ->
    count >>= fun st_divergent ->
    count >>= fun st_crashed ->
    count >>= fun st_stuck ->
    count >>= fun st_infeasible ->
    count >>= fun st_aborted ->
    f6 >>= fun st_resolve_s ->
    f6 >>= fun st_fresh_s ->
    count >>= fun st_fresh_aborted ->
    f2 >>= fun st_sched_per_s ->
    return
      {
        Explore.st_label; st_candidates; st_same; st_divergent; st_crashed; st_stuck;
        st_infeasible; st_aborted; st_resolve_s; st_fresh_s; st_fresh_aborted;
        st_sched_per_s;
      })

let prop_stats_roundtrip =
  QCheck.Test.make ~count:200 ~name:"bench stats JSON round-trips"
    (QCheck.make
       ~print:(fun l -> J.to_string (Explore.stats_to_json l))
       QCheck.Gen.(list_size (int_range 0 5) stats_gen))
    (fun stats ->
      let j = Explore.stats_to_json stats in
      J.of_string (J.to_string j) = j)

(* ------------------------------------------------------------------ *)
(* Bench gate                                                          *)
(* ------------------------------------------------------------------ *)

let write_temp (contents : string) : string =
  let path = Filename.temp_file "gate" ".json" in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents);
  path

(* run [rules] over [fresh] against a baseline file holding [base];
   returns the verdict and the printed lines *)
let run_gate_file rules ~baseline_path (fresh : J.t) : bool * string =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let ok = Gate.check ~gate:"g" ~baseline_path rules fresh ppf in
  Format.pp_print_flush ppf ();
  (ok, Buffer.contents buf)

let run_gate rules ~(base : J.t) (fresh : J.t) : bool =
  let path = write_temp (J.to_string base) in
  let ok, _ = run_gate_file rules ~baseline_path:path fresh in
  Sys.remove path;
  ok

let check_verdicts rules ~base cases =
  List.iter
    (fun (what, fresh, want) ->
      Alcotest.(check bool) what want (run_gate rules ~base fresh))
    cases

(* [vm_basic] defaults to [basic]: the two record on different engines,
   and only the epoch rule tells them apart *)
let interp ?(replay_over_vm = 1.0) ?vm_basic ~basic ~epoch ~vm () =
  let vm_basic = Option.value vm_basic ~default:basic in
  J.Obj
    [
      ( "geomean",
        J.Obj [ ("ratio_basic", J.Float basic); ("ratio_vm_basic", J.Float vm_basic);
                ("ratio_epoch", J.Float epoch);
                ("vm_speedup", J.Float vm);
                ("replay_over_vm", J.Float replay_over_vm) ] );
    ]

let test_perfcheck_thresholds () =
  (* baseline +20%: 1.25 -> 1.5; epoch within +10% of the fresh VM basic
     ratio: 2.5 -> 2.75, whatever the tree walker's basic ratio; VM speedup at least 1.0;
     VM replay at most 1.15x the VM's native run *)
  let rules = Report.Experiments.perfcheck_rules in
  let base = interp ~basic:1.25 ~epoch:0.0 ~vm:0.0 () in
  check_verdicts rules ~base
    [
      ("ratio_basic at +20%", interp ~basic:1.5 ~epoch:1.0 ~vm:1.0 (), true);
      ("ratio_basic past +20%", interp ~basic:1.5001 ~epoch:1.0 ~vm:1.0 (), false);
    ];
  let base = interp ~basic:100.0 ~epoch:0.0 ~vm:0.0 () in
  check_verdicts rules ~base
    [
      ("ratio_epoch at +10%", interp ~basic:2.5 ~epoch:2.75 ~vm:1.0 (), true);
      ("ratio_epoch past +10%", interp ~basic:2.5 ~epoch:2.7501 ~vm:1.0 (), false);
      ( "ratio_epoch held to ratio_vm_basic, not ratio_basic",
        interp ~basic:4.0 ~vm_basic:2.5 ~epoch:2.7501 ~vm:1.0 (),
        false );
      ( "ratio_epoch within +10% of a higher ratio_vm_basic",
        interp ~basic:1.0 ~vm_basic:2.5 ~epoch:2.75 ~vm:1.0 (),
        true );
      ("vm_speedup at floor", interp ~basic:2.5 ~epoch:2.5 ~vm:1.0 (), true);
      ("vm_speedup below floor", interp ~basic:2.5 ~epoch:2.5 ~vm:0.9999 (), false);
      ( "replay_over_vm at ceiling",
        interp ~replay_over_vm:1.15 ~basic:2.5 ~epoch:2.5 ~vm:1.0 (),
        true );
      ( "replay_over_vm past ceiling",
        interp ~replay_over_vm:1.1501 ~basic:2.5 ~epoch:2.5 ~vm:1.0 (),
        false );
    ]

let sites rows =
  J.Obj
    [
      ( "workloads",
        J.List
          (List.map
             (fun (n, i, g) ->
               J.Obj [ ("name", J.Str n); ("instrumented", J.Int i); ("guarded", J.Int g) ])
             rows) );
    ]

let test_sitecheck_thresholds () =
  let rules = Report.Experiments.sitecheck_rules in
  let base = sites [ ("a", 10, 4); ("b", 3, 0) ] in
  check_verdicts rules ~base
    [
      ("equal counts", sites [ ("a", 10, 4); ("b", 3, 0) ], true);
      ("fewer instrumented, more guarded", sites [ ("a", 9, 5); ("b", 0, 1) ], true);
      ("one more instrumented", sites [ ("a", 11, 4); ("b", 3, 0) ], false);
      ("one fewer guarded", sites [ ("a", 10, 3); ("b", 3, 0) ], false);
      ("extra fresh workload", sites [ ("a", 10, 4); ("b", 3, 0); ("c", 99, 0) ], true);
    ]

let test_sitecheck_unmeasured () =
  let base = sites [ ("a", 10, 4); ("b", 3, 0) ] in
  let path = write_temp (J.to_string base) in
  let ok, out =
    run_gate_file Report.Experiments.sitecheck_rules ~baseline_path:path
      (sites [ ("a", 10, 4) ])
  in
  Sys.remove path;
  Alcotest.(check bool) "fails" false ok;
  Alcotest.(check bool) "names the workload" true
    (contains out "workloads.b.instrumented not measured")

let service ?(id = true) ?(failed = 0) ?(rejected = 0) speedup =
  J.Obj
    [
      ("identity_serial_vs_service", J.Bool id); ("identity_naive_vs_service", J.Bool true);
      ("failed", J.Int failed); ("rejected", J.Int rejected);
      ("speedup_vs_naive", J.Float speedup);
    ]

let test_servicecheck_thresholds () =
  let rules = Report.Experiments.servicecheck_rules in
  (* floor 2.0 (baseline low enough not to bind) *)
  check_verdicts rules ~base:(service 1.0)
    [
      ("speedup at floor", service 2.0, true);
      ("speedup below floor", service 1.9999, false);
      ("identity broken", service ~id:false 3.0, false);
      ("a failed session", service ~failed:1 3.0, false);
      ("a rejected session", service ~rejected:1 3.0, false);
    ];
  (* baseline -50%: 5.0 -> 2.5 *)
  check_verdicts rules ~base:(service 5.0)
    [ ("speedup at -50%", service 2.5, true); ("speedup past -50%", service 2.4999, false) ]

let test_solvercheck_thresholds () =
  let words ?(parse = 500) ?(schedule = 3000) gen solve =
    J.Obj
      [
        ("rows", J.List []); ("parse_words_o1o2", J.Int parse); ("gen_words_o1o2", J.Int gen);
        ("solve_words_o1o2", J.Int solve); ("schedule_words_o1o2", J.Int schedule);
      ]
  in
  check_verdicts Report.Experiments.solvercheck_rules ~base:(words 1000 2000)
    [
      ("fewer words", words ~parse:5 ~schedule:30 10 20, true);
      ("all at +10%", words ~parse:550 ~schedule:3300 1100 2200, true);
      ("parse past +10%", words ~parse:551 1000 2000, false);
      ("generation past +10%", words 1101 2000, false);
      ("solve past +10%", words 1000 2201, false);
      ("schedule past +10%", words ~schedule:3301 1000 2000, false);
      ( "schedule not measured",
        J.Obj
          [
            ("rows", J.List []); ("parse_words_o1o2", J.Int 500); ("gen_words_o1o2", J.Int 1000);
            ("solve_words_o1o2", J.Int 2000);
          ],
        false );
      ("not measured", J.Obj [ ("rows", J.List []) ], false);
    ]

let test_bad_baselines () =
  let fresh = sites [ ("a", 1, 1) ] in
  let rules = Report.Experiments.sitecheck_rules in
  let corrupt = write_temp "{\"workloads\": [ {\"name\": \"a\", " in
  let ok, out = run_gate_file rules ~baseline_path:corrupt fresh in
  Sys.remove corrupt;
  Alcotest.(check bool) "corrupt baseline fails" false ok;
  Alcotest.(check bool) ("names path and offset: " ^ out) true
    (contains out corrupt && contains out "offset");
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "no-such-baseline.json" in
  let ok, out = run_gate_file rules ~baseline_path:missing fresh in
  Alcotest.(check bool) "missing baseline fails" false ok;
  Alcotest.(check bool) ("names path: " ^ out) true (contains out missing);
  (* a baseline whose rows lose their names cannot be expanded *)
  let nameless = write_temp "{\"workloads\": [ {\"instrumented\": 1} ]}" in
  let ok, _ = run_gate_file rules ~baseline_path:nameless fresh in
  Sys.remove nameless;
  Alcotest.(check bool) "nameless rows fail" false ok

(* the committed baselines, as the CI gates read them; [dune runtest] runs
   in the build tree's test directory, [dune exec] from the root *)
let baseline name =
  let under_test = Filename.concat "../bench" name in
  if Sys.file_exists under_test then under_test else Filename.concat "bench" name

let committed name =
  match Gate.load (baseline name) with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: %s" name e

let test_committed_baselines () =
  let interp = committed "BENCH_interp.baseline.json" in
  let service = committed "BENCH_service.baseline.json" in
  let sites = committed "BENCH_sitecheck.baseline.json" in
  let solver = committed "BENCH_solver.baseline.json" in
  Alcotest.(check (option (float 0.0))) "gen_words_o1o2" (Some 2066317.0)
    (Gate.metric solver "gen_words_o1o2");
  Alcotest.(check (option (float 0.0))) "solve_words_o1o2" (Some 591482.0)
    (Gate.metric solver "solve_words_o1o2");
  Alcotest.(check (option (float 0.0))) "parse_words_o1o2" (Some 553615.0)
    (Gate.metric solver "parse_words_o1o2");
  Alcotest.(check (option (float 0.0))) "schedule_words_o1o2" (Some 640470.0)
    (Gate.metric solver "schedule_words_o1o2");
  Alcotest.(check (option (float 0.0))) "ratio_basic" (Some 1.33)
    (Gate.metric interp "geomean.ratio_basic");
  Alcotest.(check (option (float 0.0))) "speedup_vs_naive" (Some 2.8668)
    (Gate.metric service "speedup_vs_naive");
  let rows = Option.get (Option.bind (J.member "workloads" sites) J.to_list) in
  Alcotest.(check int) "sitecheck rows" 28 (List.length rows);
  let instr =
    List.fold_left
      (fun a r -> a + Option.get (Option.bind (J.member "instrumented" r) J.to_int))
      0 rows
  in
  Alcotest.(check int) "instrumented total" 620 instr;
  Alcotest.(check (option (float 0.0))) "totals agree" (Some 620.0)
    (Gate.metric sites "totals.instrumented");
  (* each baseline passes its own gate *)
  List.iter
    (fun (what, rules, name, j) ->
      let ok, out =
        run_gate_file rules ~baseline_path:(baseline name) j
      in
      Alcotest.(check bool) (what ^ "\n" ^ out) true ok)
    [
      ("perfcheck", Report.Experiments.perfcheck_rules, "BENCH_interp.baseline.json", interp);
      ("sitecheck", Report.Experiments.sitecheck_rules, "BENCH_sitecheck.baseline.json", sites);
      ("solvercheck", Report.Experiments.solvercheck_rules, "BENCH_solver.baseline.json", solver);
      ("servicecheck", Report.Experiments.servicecheck_rules, "BENCH_service.baseline.json",
       service);
    ]

(* the sitecheck verb end to end: it measures, writes its artifact, passes
   on the committed baseline and fails on one that claims no instrumented
   sites *)
let test_sitecheck_verb () =
  let json_path = Filename.temp_file "sitecheck" ".json" in
  let run baseline_path =
    let ok = ref false in
    let out =
      render (fun ppf -> ok := Report.Experiments.sitecheck ~baseline_path ~json_path () ppf)
    in
    (!ok, out)
  in
  let ok, _ = run (baseline "BENCH_sitecheck.baseline.json") in
  Alcotest.(check bool) "committed baseline passes" true ok;
  let rec zero_instr = function
    | J.Obj kvs ->
      J.Obj (List.map (fun (k, v) -> (k, if k = "instrumented" then J.Int 0 else zero_instr v)) kvs)
    | J.List xs -> J.List (List.map zero_instr xs)
    | j -> j
  in
  let fresh = match Gate.load json_path with Ok j -> j | Error e -> Alcotest.fail e in
  let tripping = write_temp (J.to_string (zero_instr fresh)) in
  let ok, out = run tripping in
  Sys.remove tripping;
  Sys.remove json_path;
  Alcotest.(check bool) "tripping baseline fails" false ok;
  Alcotest.(check bool) "reports the regression" true (contains out "— FAIL")

(* the solvercheck verb end to end: its counts pass the committed
   baseline, which fails when it claims half the solver's words *)
let test_solvercheck_verb () =
  let json_path = Filename.temp_file "solvercheck" ".json" in
  let run baseline_path =
    let ok = ref false in
    ignore
      (render (fun ppf -> ok := Report.Experiments.solvercheck ~baseline_path ~json_path () ppf));
    !ok
  in
  Alcotest.(check bool) "committed baseline passes" true
    (run (baseline "BENCH_solver.baseline.json"));
  let fresh = match Gate.load json_path with Ok j -> j | Error e -> Alcotest.fail e in
  let count m = J.Int (int_of_float (Option.get (Gate.metric fresh m))) in
  let half m = J.Int (int_of_float (Option.get (Gate.metric fresh m)) / 2) in
  let tripping =
    write_temp
      (J.to_string
         (J.Obj [ ("gen_words_o1o2", count "gen_words_o1o2"); ("solve_words_o1o2", half "solve_words_o1o2") ]))
  in
  let ok = run tripping in
  Sys.remove tripping;
  Sys.remove json_path;
  Alcotest.(check bool) "tripping baseline fails" false ok

let () =
  Alcotest.run "report"
    [
      ( "chart",
        [
          Alcotest.test_case "grouped bars" `Quick test_grouped;
          Alcotest.test_case "stacked bars" `Quick test_stacked;
          Alcotest.test_case "zero rows safe" `Quick test_stacked_zero_row;
          Alcotest.test_case "tables" `Quick test_table;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "bug sources roundtrip" `Quick test_bug_sources_roundtrip;
          Alcotest.test_case "workload sources roundtrip" `Quick test_workload_sources_roundtrip;
          Alcotest.test_case "patched sources roundtrip" `Quick test_patched_sources_roundtrip;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "measurement determinism" `Slow test_measurements_deterministic;
          Alcotest.test_case "figure rendering" `Slow test_fig_rendering;
          Alcotest.test_case "env budgets are positive ints" `Quick test_env_budgets;
        ] );
      ( "json",
        [
          Alcotest.test_case "non-finite floats print null" `Quick test_json_nonfinite;
          Alcotest.test_case "bad \\u escape is a parse error" `Quick
            test_json_bad_unicode_escape;
          Alcotest.test_case "float precision survives" `Quick test_json_float_precision;
        ] );
      ( "gate",
        [
          Alcotest.test_case "perfcheck rules at threshold" `Quick test_perfcheck_thresholds;
          Alcotest.test_case "sitecheck rules at threshold" `Quick test_sitecheck_thresholds;
          Alcotest.test_case "unmeasured baseline workload fails" `Quick
            test_sitecheck_unmeasured;
          Alcotest.test_case "servicecheck rules at threshold" `Quick
            test_servicecheck_thresholds;
          Alcotest.test_case "corrupt or missing baseline fails" `Quick test_bad_baselines;
          Alcotest.test_case "committed baselines" `Quick test_committed_baselines;
          Alcotest.test_case "sitecheck verb" `Quick test_sitecheck_verb;
          Alcotest.test_case "solvercheck rules at threshold" `Quick
            test_solvercheck_thresholds;
          Alcotest.test_case "solvercheck verb" `Quick test_solvercheck_verb;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_json_roundtrip;
          QCheck_alcotest.to_alcotest ~long:false prop_stats_roundtrip;
        ] );
    ]
