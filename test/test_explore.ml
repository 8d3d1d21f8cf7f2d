(* Schedule-space exploration: flip soundness, reproducer determinism, and
   honest budget accounting.

   Properties under test (see DESIGN.md, "Schedule-space exploration"):
   - every feasible flipped schedule passes the relaxed Validate check and
     actually inverts the chosen pair's order;
   - toggling a flip twice returns the original flip set, and solving with
     no flips returns the base schedule byte for byte;
   - infeasible flips classify as [InfeasibleFlip] — never a crash;
   - [hunt] rediscovers every seeded bug of the suite from a passing-run
     recording, and the minimized reproducer replays the same failure
     deterministically (twice, byte-identical outcomes);
   - under a tight solver budget every enumerated candidate still appears
     in the output, classified [SolveAborted] rather than dropped;
   - parallel exploration merges by job index: any pool size produces the
     serial result. *)

open Runtime

let ctx_of ?(seed = 2) (src : string) : Explore.context =
  let p = Lang.Check.validate_exn (Lang.Parser.parse_program src) in
  match
    Explore.make_context ~make_sched:(fun () -> Sched.sticky ~seed ~stickiness:4) p
  with
  | Ok ctx -> ctx
  | Error e -> Alcotest.failf "make_context: %s" e

let racy_src = {|
  class C { n; }
  global c; global y;
  fn w1() { c.n = 1; y = c.n + 1; }
  fn w2() { k = c.n; c.n = k + 5; }
  main { c = new C; c.n = 0; y = 0;
         spawn a = w1(); spawn b = w2(); join a; join b; print y; }
|}

(* ------------------------------------------------------------------ *)
(* Flip soundness                                                      *)
(* ------------------------------------------------------------------ *)

(* Every feasible single-flip schedule validates against the relaxed
   dependence set and places fb strictly before fa. *)
let test_flips_sound () =
  let ctx = ctx_of racy_src in
  let cands = Explore.candidates ctx in
  Alcotest.(check bool) "has candidates" true (cands <> []);
  let feasible = ref 0 in
  List.iter
    (fun (f : Explore.flip) ->
      let s = Explore.solve_flips ~sections:ctx.sections ctx.recording.log [ f ] in
      match s.sv with
      | Explore.Feasible sch ->
        incr feasible;
        (match
           Light_core.Validate.check ~zones:true ~free:s.free ctx.recording.log sch
         with
        | [] -> ()
        | errs ->
          Alcotest.failf "flip %s: invalid schedule: %s"
            (Format.asprintf "%a" Explore.pp_flip f)
            (String.concat "; " errs));
        let rank e = Option.get (Light_core.Replayer.rank sch e) in
        if rank f.fb >= rank f.fa then
          Alcotest.failf "flip %s: pair not inverted"
            (Format.asprintf "%a" Explore.pp_flip f)
      | Explore.Infeasible | Explore.SolveAborted -> ())
    cands;
  Alcotest.(check bool) "at least one feasible flip" true (!feasible > 0)

(* Toggling the same flip twice is the identity on the flip set, and an
   empty flip set reproduces the base schedule exactly. *)
let test_toggle_involutive () =
  let ctx = ctx_of racy_src in
  match Explore.candidates ctx with
  | [] -> Alcotest.fail "no candidates"
  | f :: _ ->
    let once = Explore.toggle [] f in
    Alcotest.(check int) "toggle adds" 1 (List.length once);
    let twice = Explore.toggle once f in
    Alcotest.(check int) "toggle removes" 0 (List.length twice);
    (match (Explore.solve_flips ctx.recording.log []).sv with
    | Explore.Feasible sch ->
      Alcotest.(check bool) "no-flip solve = base order" true
        (sch.Light_core.Replayer.order = ctx.base_order)
    | _ -> Alcotest.fail "base system must stay satisfiable")

(* A flip contradicting recorded thread order is honestly infeasible. *)
let test_infeasible_reported () =
  let ctx = ctx_of racy_src in
  let results = Explore.explore ctx in
  List.iter
    (fun (r : Explore.explored) ->
      match r.ex_verdict with
      | Explore.InfeasibleFlip | Explore.AbortedFlip ->
        Alcotest.(check (list string)) "no validation errors on infeasible" []
          r.ex_validate
      | _ -> ())
    results;
  (* same-thread order can never be flipped: forge one and check the verdict *)
  match Explore.candidates ctx with
  | [] -> Alcotest.fail "no candidates"
  | f :: _ ->
    let forged = { f with fa = f.fb; fb = f.fa } in
    (match
       (Explore.solve_flips ~sections:ctx.sections ctx.recording.log
          [ forged; f ]).sv
     with
    | Explore.Feasible _ -> Alcotest.fail "a flip and its inverse cannot both hold"
    | Explore.Infeasible | Explore.SolveAborted -> ())

(* ------------------------------------------------------------------ *)
(* Bug-suite rediscovery (differential against the seeded bugs)         *)
(* ------------------------------------------------------------------ *)

let test_hunt_rediscovers () =
  List.iter
    (fun (b : Bugs.Defs.bug) ->
      let p = Bugs.Defs.program_of b () in
      match Bugs.Harness.find_passing p with
      | None -> Alcotest.failf "%s: no passing schedule found" b.name
      | Some tr ->
        (match Explore.make_context ~make_sched:tr.make_sched p with
        | Error e -> Alcotest.failf "%s: make_context: %s" b.name e
        | Ok ctx ->
          let hr = Explore.hunt ctx in
          (match hr.hr_repro with
          | None ->
            Alcotest.failf "%s: hunt found no crash (%d flip sets tried)" b.name
              hr.hr_tried
          | Some rp ->
            (* the reproducer round-trips through its text format *)
            let txt = Explore.reproducer_to_string rp in
            (match Explore.reproducer_of_string txt with
            | Error e -> Alcotest.failf "%s: reproducer parse: %s" b.name e
            | Ok rp2 ->
              Alcotest.(check string)
                (b.name ^ ": reproducer round-trip")
                txt
                (Explore.reproducer_to_string rp2);
              (* replays deterministically: two runs, byte-identical *)
              match
                (Explore.run_reproducer p rp2, Explore.run_reproducer p rp2)
              with
              | Ok o1, Ok o2 ->
                Alcotest.(check bool)
                  (b.name ^ ": replay deterministic")
                  true (o1 = o2);
                let sig_of (o : Interp.outcome) =
                  List.sort compare
                    (List.map (fun (c : Interp.crash) -> (c.tid, c.site, c.msg)) o.crashes)
                in
                Alcotest.(check bool)
                  (b.name ^ ": crash signature matches")
                  true
                  (sig_of o1 = List.sort compare rp.rp_expected)
              | Error e, _ | _, Error e ->
                Alcotest.failf "%s: reproducer replay: %s" b.name e))))
    Bugs.Defs.all

(* ------------------------------------------------------------------ *)
(* Message-passing workloads through the explorer                      *)
(* ------------------------------------------------------------------ *)

(* The channel workloads are monitor-heavy — wait/notifyall ghosts and
   lock-section reconstruction dominate the flip lattice, a regime the
   loop workloads never enter.  The contract under test is honest total
   classification: every enumerated candidate appears in the output with
   a verdict, in candidate order, under a roomy budget and under a
   starvation budget alike (the latter may only change verdicts to
   [AbortedFlip], never drop a candidate). *)
let starve = { Dlsolver.Idl.max_backtracks = 2; max_conflicts = 2; max_time_s = 10.0 }

let test_msgpass_explored () =
  List.iter
    (fun (name, iters) ->
      let bm = Option.get (Workloads.by_name name) in
      let prm = { bm.Workloads.params with Workloads.iters } in
      let p =
        Lang.Check.validate_exn (Lang.Parser.parse_program (Workloads.generate prm))
      in
      match
        Explore.make_context
          ~make_sched:(fun () -> Sched.sticky ~seed:4 ~stickiness:16)
          p
      with
      | Error e -> Alcotest.failf "%s: make_context: %s" name e
      | Ok ctx ->
        let cands = Explore.candidates ctx in
        Alcotest.(check bool) (name ^ ": has candidates") true (cands <> []);
        let check_total label results =
          Alcotest.(check int)
            (Printf.sprintf "%s: %s classifies every candidate" name label)
            (List.length cands) (List.length results);
          List.iter2
            (fun f (r : Explore.explored) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s keeps candidate order" name label)
                true
                (Explore.flip_key r.ex_flip = Explore.flip_key f))
            cands results
        in
        check_total "explore" (Explore.explore ctx);
        check_total "starved explore" (Explore.explore ~budget:starve ctx))
    [ ("mp-queue", 3); ("mp-pipeline", 2); ("mp-fanin", 2); ("mp-barrier", 2) ]

(* ------------------------------------------------------------------ *)
(* Parallel = serial                                                   *)
(* ------------------------------------------------------------------ *)

let strip (r : Explore.explored) =
  (r.ex_flip, Explore.verdict_name r.ex_verdict, r.ex_validate)

let test_parallel_matches_serial () =
  let ctx = ctx_of racy_src in
  let serial = Explore.explore ~pool:(Engine.Pool.create ~size:1 ()) ctx in
  let parallel = Explore.explore ~pool:(Engine.Pool.create ~size:4 ()) ctx in
  Alcotest.(check bool) "explore: parallel = serial" true
    (List.map strip serial = List.map strip parallel);
  let b = List.find (fun (b : Bugs.Defs.bug) -> b.name = "Cache4j") Bugs.Defs.all in
  let p = Bugs.Defs.program_of b () in
  match Bugs.Harness.find_passing p with
  | None -> Alcotest.fail "no passing schedule"
  | Some tr ->
    (match Explore.make_context ~make_sched:tr.make_sched p with
    | Error e -> Alcotest.failf "make_context: %s" e
    | Ok bctx ->
      let h1 = Explore.hunt ~pool:(Engine.Pool.create ~size:1 ()) bctx in
      let h2 = Explore.hunt ~pool:(Engine.Pool.create ~size:4 ()) bctx in
      let flips (h : Explore.hunt_result) =
        Option.map (fun (rp : Explore.reproducer) -> rp.rp_flips) h.hr_repro
      in
      Alcotest.(check bool) "hunt: parallel = serial" true (flips h1 = flips h2))

(* ------------------------------------------------------------------ *)
(* Honest budgets over synthetic logs (QCheck)                          *)
(* ------------------------------------------------------------------ *)

(* Same shape as test_replay's generator: random bounded logs free of
   recorder invariants, so infeasible tangles and solver-hostile systems
   both appear. *)
let synth_log_gen =
  QCheck.Gen.(
    let evt = pair (int_range 0 2) (int_range 0 6) in
    let loc_g = map (fun o -> Loc.field o "f") (int_range 0 2) in
    let dep_g =
      loc_g >>= fun loc ->
      opt evt >>= fun w ->
      evt >>= fun rf ->
      int_range 0 2 >>= fun span ->
      int_range 0 40 >>= fun dep_obs ->
      int_range 0 40 >>= fun w_obs ->
      return { Light_core.Log.loc; w; rf; rl_c = snd rf + span; dep_obs; w_obs }
    in
    list_size (int_range 1 6) dep_g >>= fun deps ->
    return { Light_core.Log.empty with deps })

let tight = { Dlsolver.Idl.max_backtracks = 2; max_conflicts = 2; max_time_s = 10.0 }

let prop_budget_honest =
  QCheck.Test.make ~count:300
    ~name:"tight budgets classify candidates honestly, none dropped"
    (QCheck.make ~print:Light_core.Log.to_string synth_log_gen)
    (fun log ->
      let cands = Explore.log_candidates log in
      let results = Explore.enumerate_log ~budget:tight log in
      (* every candidate classified: nothing silently dropped *)
      List.length results = List.length cands
      && List.for_all2 (fun f (f', _) -> f = f') cands results
      && List.for_all
           (fun ((_ : Explore.flip), (s : Explore.solved)) ->
             match s.sv with
             | Explore.Feasible sch ->
               (* a schedule produced under pressure must still validate *)
               Light_core.Validate.check ~free:s.free log sch = []
             | Explore.Infeasible | Explore.SolveAborted -> true)
           results)

(* A malformed reproducer line is an [Error] naming its 1-based line
   number and text, never an exception: non-decimal tokens, bad access
   kinds, negative or over-long log lengths, and a broken log body. *)
let test_reproducer_errors () =
  let log = Light_core.Log.to_string Light_core.Log.empty in
  let flip = "flip 1 2 3 R 101 1 4 W 1 0 x" in
  let repro ?(log_line = Printf.sprintf "log %d" (String.length log)) lines =
    String.concat "\n" (("LIGHT-REPRO v1" :: lines) @ [ log_line ]) ^ "\n" ^ log
  in
  (match Explore.reproducer_of_string (repro [ flip; "expect 1 3 boom" ]) with
  | Ok rp -> Alcotest.(check int) "well-formed: one flip" 1 (List.length rp.rp_flips)
  | Error e -> Alcotest.failf "well-formed reproducer: %s" e);
  List.iter
    (fun (what, txt, want) ->
      Alcotest.(check (result reject string)) what (Error want)
        (Result.map (fun _ -> ()) (Explore.reproducer_of_string txt)))
    [
      ("negative log length", repro ~log_line:"log -5" [ flip ], "line 3: negative log length: log -5");
      ( "over-long log",
        repro ~log_line:"log 9999" [ flip ],
        Printf.sprintf "line 3: log section runs past the end (%d bytes left): log 9999"
          (String.length log) );
      ( "non-integer flip token",
        repro [ "flip x1 6 9 R 101 1 4 W 1 0 x" ],
        {|line 2: bad integer "x1": flip x1 6 9 R 101 1 4 W 1 0 x|} );
      ( "hex flip token",
        repro [ flip; "flip 0x1 2 3 R 101 1 4 W 1 0 x" ],
        {|line 3: bad integer "0x1": flip 0x1 2 3 R 101 1 4 W 1 0 x|} );
      ( "bad access kind",
        repro [ "flip 1 2 3 Q 101 1 4 W 1 0 x" ],
        {|line 2: bad access kind "Q": flip 1 2 3 Q 101 1 4 W 1 0 x|} );
      ("bad section", repro [ "section 1 2 y 4 0 x" ], {|line 2: bad integer "y": section 1 2 y 4 0 x|});
      ("bad expect", repro [ flip; "expect 1 z boom" ], {|line 3: bad integer "z": expect 1 z boom|});
      ("unparseable line", repro [ "flip 1 2" ], "line 2: unparseable line: flip 1 2");
      ("bad log length token", repro ~log_line:"log 12a" [], {|line 2: bad integer "12a": log 12a|});
      ( "broken log body",
        "LIGHT-REPRO v1\nlog 4\nnope\n",
        "line 2: bad log header: nope: log 4" );
      ("no log section", "LIGHT-REPRO v1\n" ^ flip ^ "\n", "missing log section");
    ]

let () =
  Alcotest.run "explore"
    [
      ( "flips",
        [
          Alcotest.test_case "feasible flips validate and invert" `Quick
            test_flips_sound;
          Alcotest.test_case "toggle involutive, empty set = base" `Quick
            test_toggle_involutive;
          Alcotest.test_case "infeasible flips reported, never crash" `Quick
            test_infeasible_reported;
          Alcotest.test_case "malformed reproducers name their line" `Quick
            test_reproducer_errors;
        ] );
      ( "hunt",
        [
          Alcotest.test_case "rediscovers the 8-bug suite" `Slow
            test_hunt_rediscovers;
          Alcotest.test_case "parallel = serial" `Quick
            test_parallel_matches_serial;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "message-passing workloads classified totally" `Slow
            test_msgpass_explored;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_budget_honest;
        ] );
    ]
