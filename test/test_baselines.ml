(* Baseline tool tests: Leap and Stride replay fidelity, Clap's recording /
   scope check / synthesis, Chimera's patching and lock-order replay.
   Every tool records and replays on the VM: it records through [observe]
   or [on_branch] and replays under its [Pred] gate.  The streams those
   hooks see are pinned below, from the tree walker before it lost them. *)

open Runtime

let parse src = Lang.Check.validate_exn (Lang.Parser.parse_program src)

let racy = parse {|
  global x; global y;
  fn w1() { x = 1; y = x + 1; x = y * 2; }
  fn w2() { x = 5; y = x + 3; x = y * 7; }
  main { x = 0; y = 0; spawn a = w1(); spawn b = w2(); join a; join b; print x; print y; }
|}

let locked = parse {|
  class C { n; } global c; global l;
  fn w(k) { while (k > 0) { sync (l) { c.n = c.n + 1; } k = k - 1; } }
  main { l = new C; c = new C; c.n = 0;
         spawn a = w(8); spawn b = w(8); join a; join b; print c.n; }
|}

let plan_of p = (Instrument.Transformer.transform p).Instrument.Transformer.plan

(* the replay run of a baseline's gate hooks *)
let replay hooks ~plan p = Vm.run ~hooks ~plan ~sched:(Sched.round_robin ()) p

let check_faithful tag ((orig : Interp.outcome), (rep : Interp.outcome)) =
  Alcotest.(check bool) (tag ^ ": replay finished") true (rep.status = Interp.AllFinished);
  Alcotest.(check (list string)) (tag ^ ": faithful") []
    (Interp.replay_matches ~original:orig ~replay:rep)

(* ------------------------------------------------------------------ *)
(* Leap                                                                 *)
(* ------------------------------------------------------------------ *)

let leap_roundtrip ~sched p =
  let plan = plan_of p in
  let r = Baselines.Leap.create () in
  let orig = Vm.run ~hooks:(Baselines.Leap.hooks r) ~plan ~sched p in
  let log = Baselines.Leap.finalize r in
  (orig, log, replay (Baselines.Leap.replay_hooks log ~syscalls:orig.syscalls) ~plan p)

(* the seed x program grid used by the Leap/Stride fidelity tests,
   fanned out through the engine's batch driver *)
let baseline_grid roundtrip =
  List.concat_map (fun seed -> List.map (fun p -> (p, seed)) [ racy; locked ]) [ 1; 2; 3; 4; 5 ]
  |> Engine.Batch.map ~f:(fun (p, seed) ->
         let orig, _, rep = roundtrip ~sched:(Sched.sticky ~seed ~stickiness:4) p in
         (orig, rep))

let test_leap_faithful () = List.iter (check_faithful "leap") (baseline_grid leap_roundtrip)

let test_leap_space_is_one_long_per_access () =
  let orig, log, _ = leap_roundtrip ~sched:(Sched.sticky ~seed:1 ~stickiness:4) racy in
  let total = List.fold_left (fun a (_, c) -> a + c) 0 orig.counters in
  Alcotest.(check int) "one long per access" total log.space_longs

(* ------------------------------------------------------------------ *)
(* Stride                                                               *)
(* ------------------------------------------------------------------ *)

let stride_roundtrip ~sched p =
  let plan = plan_of p in
  let r = Baselines.Stride.create () in
  let orig = Vm.run ~hooks:(Baselines.Stride.hooks r) ~plan ~sched p in
  let log = Baselines.Stride.finalize r in
  (orig, log, replay (Baselines.Stride.replay_hooks log ~syscalls:orig.syscalls) ~plan p)

let test_stride_faithful () = List.iter (check_faithful "stride") (baseline_grid stride_roundtrip)

let test_stride_space_half () =
  let orig, log, _ = stride_roundtrip ~sched:(Sched.sticky ~seed:1 ~stickiness:4) racy in
  let total = List.fold_left (fun a (_, c) -> a + c) 0 orig.counters in
  Alcotest.(check int) "ints count as half-longs" ((total + 1) / 2) log.space_longs

(* Leap and Stride on real programs: four workloads, each recorded under
   its own scheduler at seeds 1 and 2 *)
let test_workload_replays () =
  List.concat_map
    (fun name -> [ (name, 1); (name, 2) ])
    [ "mp-queue"; "mp-barrier"; "cache4j"; "jgf-series" ]
  |> Engine.Batch.map ~f:(fun (name, seed) ->
         let bm = Option.get (Workloads.by_name name) in
         let p = Workloads.program bm in
         let tag tool = Printf.sprintf "%s %s seed=%d" tool name seed in
         let pair (orig, _, rep) = (orig, rep) in
         [
           (tag "leap", pair (leap_roundtrip ~sched:(Workloads.scheduler ~seed bm) p));
           (tag "stride", pair (stride_roundtrip ~sched:(Workloads.scheduler ~seed bm) p));
         ])
  |> List.concat
  |> List.iter (fun (tag, runs) -> check_faithful tag runs)

(* ------------------------------------------------------------------ *)
(* Clap                                                                 *)
(* ------------------------------------------------------------------ *)

let test_clap_scope_check () =
  let with_map = parse "global m; main { m = newmap; m{1} = 2; }" in
  let with_opaque = parse "main { x = #hash(3); print x; }" in
  let clean = parse "global x; main { x = 1; print x; }" in
  Alcotest.(check bool) "maps out of scope" true
    (Baselines.Clap.unsupported_constructs with_map <> []);
  Alcotest.(check bool) "opaques out of scope" true
    (Baselines.Clap.unsupported_constructs with_opaque <> []);
  Alcotest.(check (list string)) "linear code in scope" []
    (Baselines.Clap.unsupported_constructs clean)

let test_clap_records_branches () =
  let p = parse "main { i = 0; while (i < 5) { if (i % 2 == 0) { nop; } i = i + 1; } }" in
  let r = Baselines.Clap.create () in
  let outcome = Vm.run ~hooks:(Baselines.Clap.hooks r) ~sched:(Sched.round_robin ()) p in
  let log = Baselines.Clap.finalize r ~outcome in
  (* 6 while evaluations + 5 if evaluations *)
  let total = List.fold_left (fun a (_, b) -> a + Array.length b) 0 log.branches in
  Alcotest.(check int) "branch count" 11 total

let test_clap_synthesis_finds_race () =
  (* two-thread check-then-act crash, linear values: within the fragment *)
  let p =
    parse
      "class S { valid; data; } global sess; global sink;
       fn invalidate() { sess.data = null; sess.valid = 0; }
       fn access() { v = sess.valid; if (v == 1) { d = sess.data; x = d.valid; sink.valid = x; } }
       main { sess = new S; sink = new S; aux = new S; aux.valid = 9;
              sess.valid = 1; sess.data = aux;
              spawn a = access(); spawn b = invalidate(); join a; join b; print 1; }"
  in
  (* find a crashing profile *)
  let rec hunt seed =
    if seed > 60 then None
    else
      let sched = Sched.sticky ~seed ~stickiness:2 in
      let r = Baselines.Clap.create () in
      let o = Vm.run ~hooks:(Baselines.Clap.hooks r) ~sched p in
      if o.crashes <> [] then Some (Baselines.Clap.finalize r ~outcome:o) else hunt (seed + 1)
  in
  match hunt 1 with
  | None -> Alcotest.fail "no crashing profile found"
  | Some log -> (
    match Baselines.Clap.synthesize ~budget:30_000 p log with
    | Baselines.Clap.Reproduced _ -> ()
    | OutOfScope cs -> Alcotest.failf "unexpectedly out of scope: %s" (String.concat "," cs)
    | BudgetExhausted n -> Alcotest.failf "budget exhausted after %d" n
    | NoFailureRecorded -> Alcotest.fail "no failure recorded")

let test_clap_no_failure () =
  let p = parse "global x; main { x = 1; print x; }" in
  let r = Baselines.Clap.create () in
  let o = Vm.run ~hooks:(Baselines.Clap.hooks r) ~sched:(Sched.round_robin ()) p in
  let log = Baselines.Clap.finalize r ~outcome:o in
  Alcotest.(check bool) "no failure to synthesize" true
    (Baselines.Clap.synthesize p log = Baselines.Clap.NoFailureRecorded)

(* ------------------------------------------------------------------ *)
(* Chimera                                                              *)
(* ------------------------------------------------------------------ *)

let test_chimera_patches_races () =
  let pi = Baselines.Chimera.patch racy in
  Alcotest.(check bool) "one patch group" true (List.length pi.groups >= 1);
  let fns = List.concat_map snd pi.groups in
  Alcotest.(check bool) "both methods grouped" true
    (List.mem "w1" fns && List.mem "w2" fns);
  (* the patched program validates and runs *)
  let patched = Lang.Check.validate_exn pi.patched in
  let o = Interp.run ~sched:(Sched.round_robin ()) patched in
  Alcotest.(check bool) "patched program runs" true (o.status = Interp.AllFinished)

let test_chimera_no_patch_when_locked () =
  let pi = Baselines.Chimera.patch locked in
  Alcotest.(check int) "no groups for race-free code" 0 (List.length pi.groups)

let test_chimera_patched_is_race_free () =
  let pi = Baselines.Chimera.patch racy in
  let a = Analysis.Analyze.analyze pi.patched in
  (* the patch serializes all method-level races; what may remain are
     conservative reports against the main body (post-join reads the
     analysis cannot order), which Chimera cannot patch either *)
  let fn_races =
    List.filter
      (fun (r : Analysis.Analyze.race_pair) -> r.t1.fn <> None && r.t2.fn <> None)
      a.races
  in
  Alcotest.(check int) "patch eliminates method races" 0 (List.length fn_races)

let chimera_roundtrip ~sched (pi : Baselines.Chimera.patch_info) =
  let plan = plan_of pi.patched in
  let r = Baselines.Chimera.create_recorder () in
  let orig = Vm.run ~hooks:(Baselines.Chimera.recorder_hooks r) ~plan ~sched pi.patched in
  let log = Baselines.Chimera.finalize_recorder r ~outcome:orig in
  (orig, replay (Baselines.Chimera.replay_hooks log) ~plan pi.patched)

let test_chimera_replay () =
  check_faithful "racy"
    (chimera_roundtrip ~sched:(Sched.sticky ~seed:3 ~stickiness:4) (Baselines.Chimera.patch racy))

(* The Figure-6 bugs whose patched program still fails under some
   trigger: their lock-order replays finish and are faithful *)
let test_chimera_fig6 () =
  let replayed =
    List.filter_map
      (fun (b : Bugs.Defs.bug) ->
        let pi = Baselines.Chimera.patch (Bugs.Defs.program_of b ()) in
        match Bugs.Harness.find_trigger ~plan:(plan_of pi.patched) pi.patched with
        | None -> None
        | Some tr ->
          check_faithful b.name (chimera_roundtrip ~sched:(tr.make_sched ()) pi);
          Some b.name)
      Bugs.Defs.all
  in
  Alcotest.(check (list string)) "reproduced by Chimera"
    [ "Ftpserver"; "Lucene-481"; "Lucene-651"; "Tomcat-53498"; "Weblech" ]
    replayed

(* ------------------------------------------------------------------ *)
(* Pinned hook streams                                                  *)
(* ------------------------------------------------------------------ *)

let pr_access b (a : Event.access) =
  (* constant constructors hash to fixed ints *)
  Printf.bprintf b "%d,%d,%s,%s,%d,%d" a.tid a.c (Loc.to_string a.loc)
    (Event.akind_str a.kind) a.site (Hashtbl.hash a.ghost)

let hex b = Digest.to_hex (Digest.string (Buffer.contents b))

(* What each tool's recorder is handed on the VM, digested: the [observe]
   stream (values, spawns, syscalls and finishes included) under the
   Leap and under the Stride hooks, each with its log's space; Clap's
   [on_branch] sequence; Chimera's lock log; and the [collect_trace]
   trace.  Locations print by name, so no digest depends on intern ids. *)
let stream_digests ~sched p =
  let plan = plan_of p in
  let run ?(collect_trace = false) hooks = Vm.run ~hooks ~plan ~collect_trace ~sched:(sched ()) p in
  let observed (h : Interp.hooks) space =
    let b = Buffer.create 4096 in
    let forward = Option.get h.observe in
    let observe ev =
      (match ev with
      | Event.Access (a, v) ->
        pr_access b a;
        Printf.bprintf b "=%s\n" (Value.to_string v)
      | SyscallEvent { tid; idx; name; value } ->
        Printf.bprintf b "sys %d,%d,%s=%s\n" tid idx name (Value.to_string value)
      | ThreadSpawned { parent; child } -> Printf.bprintf b "spawn %d,%d\n" parent child
      | ThreadFinished { tid } -> Printf.bprintf b "finish %d\n" tid);
      forward ev
    in
    ignore (run { h with observe = Some observe });
    Printf.bprintf b "space %d\n" (space ());
    hex b
  in
  let leap = Baselines.Leap.create () and stride = Baselines.Stride.create () in
  let clap =
    let b = Buffer.create 4096 in
    let h = Baselines.Clap.hooks (Baselines.Clap.create ()) in
    let forward = Option.get h.on_branch in
    let on_branch ~tid ~taken =
      Printf.bprintf b "%d%c" tid (if taken then 't' else 'f');
      forward ~tid ~taken
    in
    ignore (run { h with on_branch = Some on_branch });
    hex b
  in
  let chimera =
    let r = Baselines.Chimera.create_recorder () in
    let log = Baselines.Chimera.finalize_recorder r ~outcome:(run (Baselines.Chimera.recorder_hooks r)) in
    let b = Buffer.create 4096 in
    List.map (fun (l, ts) -> (Loc.to_string l, ts)) log.lock_orders
    |> List.sort compare
    |> List.iter (fun (l, ts) ->
           Printf.bprintf b "%s:" l;
           Array.iter (Printf.bprintf b " %d") ts;
           Buffer.add_char b '\n');
    Printf.bprintf b "space %d\n" log.space_longs;
    hex b
  in
  let trace =
    let b = Buffer.create 4096 in
    List.iter
      (fun a -> pr_access b a; Buffer.add_char b '\n')
      (run ~collect_trace:true Interp.default_hooks).trace;
    hex b
  in
  [
    ("leap observe", observed (Baselines.Leap.hooks leap) (fun () -> (Baselines.Leap.finalize leap).space_longs));
    ( "stride observe",
      observed (Baselines.Stride.hooks stride) (fun () -> (Baselines.Stride.finalize stride).space_longs) );
    ("clap on_branch", clap);
    ("chimera lock log", chimera);
    ("trace", trace);
  ]

(* Four workloads under their own scheduler at seed 1, and two Figure-6
   bugs under their triggers; digests in [stream_digests] order *)
let pinned_streams =
  [
    ( "cache4j",
      [ "d3d6f550f8ae140851ef52bc4cdc3576"; "a1e2278554170c0e3baf7d75600d8240";
        "61f8ffdeee6451be91819f876329faf0"; "ba53cda7dd92443b377f686f2cf81564";
        "259b9331bfc34af9691857941c711586" ] );
    ( "ftpserver",
      [ "d3e0db9e295e2014de0bbf1e3fc35789"; "db632bcab9facb3e1600115f889bb331";
        "f7c8388ce661beb44f5b7d7ccdfe0900"; "eebb002dcb17e84d34a62a78b5f80a8b";
        "4ee73eb15d959189f8a87fd88e0f5a3d" ] );
    ( "mp-barrier",
      [ "2edb8ed2260cf30daa7eae26b9568275"; "f1b70620a16fa72da91799b3f077e4f8";
        "e62775772a870339848ccd84ba783613"; "c7137c777ff63649944175a885d7c896";
        "612f0b42f20f942a6b2593954e33ce35" ] );
    ( "jgf-series",
      [ "49605ab3f3ec09ce9ae71a5a67cb30d4"; "57e26b70a93d53ed874c4e210c12fc89";
        "c75d325d6e5289ab7c23ec211c715b78"; "9547f13d8a9d4095aa436c389d6831cb";
        "29b8a1618e48145f941d71b7187ffee2" ] );
    ( "Cache4j",
      [ "0b4246817a669eeb004ba58e979a0f1e"; "91fdd5f0e2e398ac8ef806faa15be12a";
        "9b83a5bc7f8ed78314cb7841a230d58a"; "489e032727415091065a41a83c6e49e7";
        "f7ccb7b3825284aa5d76943dd9062131" ] );
    ( "Tomcat-53498",
      [ "5d3c05682233a3b4cbff970178a8f4f6"; "1597bcf5a644761959362c1951ef5c9a";
        "f1ddf5ec5bd1a77c8c3c2e271d6c61d2"; "0517b29be61b944606f567394f681779";
        "e3e25424d04695e9738e36a38617bef8" ] );
  ]

let test_pinned_streams () =
  let workload name =
    let bm = Option.get (Workloads.by_name name) in
    ((fun () -> Workloads.scheduler ~seed:1 bm), Workloads.program bm)
  in
  let bug name ~seed ~stickiness =
    ( (fun () -> Sched.sticky ~seed ~stickiness),
      Bugs.Defs.program_of (Option.get (Bugs.Defs.by_name name)) () )
  in
  let cases =
    List.map (fun n -> (n, workload n)) [ "cache4j"; "ftpserver"; "mp-barrier"; "jgf-series" ]
    @ [ ("Cache4j", bug "Cache4j" ~seed:1 ~stickiness:2);
        ("Tomcat-53498", bug "Tomcat-53498" ~seed:4 ~stickiness:1) ]
  in
  List.iter
    (fun (name, (sched, p)) ->
      List.iter2
        (fun (what, got) want -> Alcotest.(check string) (name ^ " " ^ what) want got)
        (stream_digests ~sched p) (List.assoc name pinned_streams))
    cases

let () =
  Alcotest.run "baselines"
    [
      ( "leap",
        [
          Alcotest.test_case "replay fidelity" `Quick test_leap_faithful;
          Alcotest.test_case "space accounting" `Quick test_leap_space_is_one_long_per_access;
          Alcotest.test_case "Leap and Stride replay 4 workloads x 2 seeds" `Quick
            test_workload_replays;
        ] );
      ( "stride",
        [
          Alcotest.test_case "replay fidelity" `Quick test_stride_faithful;
          Alcotest.test_case "half-long accounting" `Quick test_stride_space_half;
        ] );
      ( "clap",
        [
          Alcotest.test_case "solver-fragment check" `Quick test_clap_scope_check;
          Alcotest.test_case "branch recording" `Quick test_clap_records_branches;
          Alcotest.test_case "synthesis reproduces a race" `Quick test_clap_synthesis_finds_race;
          Alcotest.test_case "no failure recorded" `Quick test_clap_no_failure;
        ] );
      ( "chimera",
        [
          Alcotest.test_case "patching groups racy methods" `Quick test_chimera_patches_races;
          Alcotest.test_case "locked code unpatched" `Quick test_chimera_no_patch_when_locked;
          Alcotest.test_case "patched code race-free" `Quick test_chimera_patched_is_race_free;
          Alcotest.test_case "lock-order replay" `Quick test_chimera_replay;
          Alcotest.test_case "lock-order replay of 5 Figure-6 bugs" `Quick test_chimera_fig6;
        ] );
      ( "streams",
        [
          Alcotest.test_case "VM hook streams match the digests pinned from the tree walker"
            `Quick test_pinned_streams;
        ] );
    ]
