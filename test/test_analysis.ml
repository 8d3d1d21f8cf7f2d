(* Static analysis tests: call graph, freshness, shared-target detection,
   lock-guard analysis (O2) and race pairs (Chimera input). *)

open Analysis

let analyze ?refine src =
  Analyze.analyze ?refine
    (Lang.Check.validate_exn (Lang.Parser.parse_program src))

(* targets are per-allocation-site partitions (".f@s7"); tests match on
   the name bucket (".f", "g", "[]", "{}") across all partitions *)
let classes_of (a : Analyze.t) (name : string) : Analyze.target_class list =
  Analyze.TM.fold
    (fun t tc acc -> if Sites.target_base t = name then tc :: acc else acc)
    a.targets []

let shared a name =
  List.exists (fun (tc : Analyze.target_class) -> tc.shared) (classes_of a name)

let guarded a name =
  match
    List.filter (fun (tc : Analyze.target_class) -> tc.shared) (classes_of a name)
  with
  | tc :: _ -> tc.guarded_by
  | [] -> None

(* ------------------------------------------------------------------ *)

let test_callgraph_reach () =
  let p =
    Lang.Check.validate_exn
      (Lang.Parser.parse_program
         "fn leaf() { nop; } fn mid() { leaf(); } fn w() { mid(); }
          main { spawn t = w(); join t; leaf(); }")
  in
  let cg = Callgraph.build p in
  Alcotest.(check bool) "leaf reachable from both" true
    (List.length (Callgraph.entries_reaching cg (Some "leaf")) >= 2);
  Alcotest.(check bool) "mid only from w" true
    (Callgraph.entries_reaching cg (Some "mid") = [ "w" ]);
  Alcotest.(check int) "leaf has 2 contexts" 2 (Callgraph.context_count cg (Some "leaf"))

let test_spawn_in_loop_multiplicity () =
  let p =
    Lang.Check.validate_exn
      (Lang.Parser.parse_program
         "fn w() { nop; } main { i = 0; while (i < 3) { spawn t = w(); join t; i = i + 1; } }")
  in
  let cg = Callgraph.build p in
  Alcotest.(check int) "looped spawn multiplicity" 2 (Callgraph.multiplicity cg "w")

let test_fresh_not_shared () =
  (* per-thread scratch objects must not be instrumented *)
  let a =
    analyze
      "class C { f; } fn w() { c = new C; c.f = 1; x = c.f; return x; }
       main { spawn t1 = w(); spawn t2 = w(); join t1; join t2; }"
  in
  Alcotest.(check bool) "fresh field not shared" false (shared a ".f")

let test_escaped_shared () =
  let src =
    "class C { f; } global g;
     fn w() { x = g; x.f = 1; }
     main { c = new C; g = c; spawn t1 = w(); spawn t2 = w(); join t1; join t2; }"
  in
  let a = analyze src in
  Alcotest.(check bool) "escaped field shared" true (shared a ".f");
  (* the global cell escapes too, but it is init-published and then only
     read concurrently — the MHP refinement elides it.  Unrefined, the
     escape analysis alone keeps it instrumented. *)
  Alcotest.(check bool) "published global elided" false (shared a "g");
  let u = analyze ~refine:false src in
  Alcotest.(check bool) "global shared unrefined" true (shared u "g")

let test_single_thread_not_shared () =
  let a = analyze "class C { f; } main { c = new C; c.f = 1; x = c.f; print x; }" in
  Alcotest.(check bool) "main-only not shared" false (shared a ".f")

let test_guarded_detection () =
  let a =
    analyze
      "class C { f; } global g; global l;
       fn w() { sync (l) { g.f = 1; } }
       main { l = new C; c = new C; g = c;
              spawn t1 = w(); spawn t2 = w(); join t1; join t2;
              sync (l) { x = g.f; print x; } }"
  in
  Alcotest.(check (option string)) "consistently guarded" (Some "l") (guarded a ".f")

let test_unguarded_when_mixed () =
  let a =
    analyze
      "class C { f; } global g; global l;
       fn w() { sync (l) { g.f = 1; } }
       fn v() { g.f = 2; }
       main { l = new C; c = new C; g = c;
              spawn t1 = w(); spawn t2 = v(); join t1; join t2; }"
  in
  Alcotest.(check (option string)) "one bare site kills the guard" None (guarded a ".f")

let test_different_locks_not_guarded () =
  let a =
    analyze
      "class C { f; } global g; global l1; global l2;
       fn w() { sync (l1) { g.f = 1; } }
       fn v() { sync (l2) { g.f = 2; } }
       main { l1 = new C; l2 = new C; c = new C; g = c;
              spawn t1 = w(); spawn t2 = v(); join t1; join t2; }"
  in
  Alcotest.(check (option string)) "inconsistent locks" None (guarded a ".f")

let test_param_lock_resolution () =
  (* the lock reaches the function as a parameter bound to one global at all
     call sites: still resolvable *)
  let a =
    analyze
      "class C { f; } global g; global l;
       fn w(m) { sync (m) { g.f = 1; } }
       main { l = new C; c = new C; g = c;
              spawn t1 = w(l); spawn t2 = w(l); join t1; join t2; }"
  in
  Alcotest.(check (option string)) "param lock resolved" (Some "l") (guarded a ".f")

let test_race_pairs () =
  let a =
    analyze
      "class C { f; } global g;
       fn w() { g.f = 1; }
       fn r() { x = g.f; }
       main { c = new C; g = c; spawn t1 = w(); spawn t2 = r(); join t1; join t2; }"
  in
  Alcotest.(check bool) "race detected" true (List.length a.races >= 1);
  let r = List.hd a.races in
  Alcotest.(check bool) "involves a write" true
    (r.t1.kind = Sites.KWrite || r.t2.kind = Sites.KWrite)

let test_no_race_when_guarded () =
  let a =
    analyze
      "class C { f; } global g; global l;
       fn w() { sync (l) { g.f = 1; } }
       fn r() { sync (l) { x = g.f; } }
       main { l = new C; c = new C; g = c; spawn t1 = w(); spawn t2 = r(); join t1; join t2; }"
  in
  Alcotest.(check int) "no race pairs" 0 (List.length a.races)

let test_reads_only_no_race () =
  let a =
    analyze
      "class C { f; } global g;
       fn r() { x = g.f; }
       main { c = new C; g = c; c.f = 1; spawn t1 = r(); spawn t2 = r(); join t1; join t2; }"
  in
  (* the main-thread init write races with reader threads conservatively, but
     reader/reader pairs must not be reported *)
  List.iter
    (fun (r : Analyze.race_pair) ->
      Alcotest.(check bool) "pair has a write" true
        (r.t1.kind = Sites.KWrite || r.t2.kind = Sites.KWrite))
    a.races

(* ------------------------------------------------------------------ *)
(* Precision corner cases                                              *)
(* ------------------------------------------------------------------ *)

let test_escape_via_field_store () =
  (* a freshly allocated object stored into a field of an escaping object
     escapes through the heap closure, even though no global ever holds it
     directly *)
  let a =
    analyze
      "class C { f; box; } global g;
       fn w() { b = g; c = new C; b.box = c; c.f = 1; x = c.f; }
       main { r = new C; g = r; spawn t1 = w(); spawn t2 = w(); join t1; join t2; }"
  in
  Alcotest.(check bool) "field of heap-published object shared" true (shared a ".f")

let test_same_field_different_sites () =
  (* same field name, two allocation sites: only the partition reached from
     two thread contexts is shared — the other stays un-instrumented even
     though both escape *)
  let src =
    "class C { f; } global g; global h;
     fn w() { x = g; x.f = 1; }
     fn v() { y = h; p = y.f; }
     main { a = new C; g = a; b = new C; h = b;
            spawn t1 = w(); spawn t2 = w(); spawn t3 = v(); join t1; join t2; join t3; }"
  in
  let a = analyze src in
  let classes = classes_of a ".f" in
  Alcotest.(check int) "two .f partitions" 2 (List.length classes);
  Alcotest.(check int) "exactly one partition shared" 1
    (List.length (List.filter (fun (tc : Analyze.target_class) -> tc.shared) classes))

let test_distinct_lock_sites_inconsistent () =
  (* both locks resolve (through local aliases) but to different allocation
     sites: the guard must be rejected, not silently merged *)
  let a =
    analyze
      "class C { f; } global g; global l1; global l2;
       fn w() { a = l1; sync (a) { g.f = 1; } }
       fn v() { b = l2; sync (b) { g.f = 2; } }
       main { l1 = new C; l2 = new C; c = new C; g = c;
              spawn t1 = w(); spawn t2 = v(); join t1; join t2; }"
  in
  Alcotest.(check (option string)) "distinct lock objects rejected" None (guarded a ".f")

let test_init_phase_publication () =
  (* an unguarded init write before the first spawn neither breaks the lock
     guard nor gets instrumented: the spawn's ghost write orders it with
     every thread (safe publication) *)
  let a =
    analyze
      "class C { f; } global g; global l;
       fn w() { sync (l) { g.f = 1; } }
       main { l = new C; c = new C; g = c; c.f = 0;
              spawn t1 = w(); spawn t2 = w(); join t1; join t2; }"
  in
  Alcotest.(check (option string)) "guard survives init write" (Some "l")
    (guarded a ".f");
  let init_write =
    List.find
      (fun (s : Sites.info) -> s.fn = None && s.kind = Sites.KWrite
        && Sites.target_base s.target = ".f")
      a.sites
  in
  Alcotest.(check bool) "init write flagged" true init_write.init_phase;
  let plan = Analyze.shared_sids a in
  Alcotest.(check bool) "init write elided from plan" false
    (Hashtbl.find plan init_write.sid)

let test_spawned_loop_lock_not_unique () =
  (* a lock allocated inside a body spawned in a loop denotes one object per
     thread: must-alias requires a unique site, so the guard is rejected *)
  let a =
    analyze
      "class C { f; } global g;
       fn w() { m = new C; sync (m) { g.f = 1; } }
       main { c = new C; g = c; i = 0;
              while (i < 2) { spawn t = w(); spawn u = w();
                              join t; join u; i = i + 1; } }"
  in
  Alcotest.(check bool) "target still shared" true (shared a ".f");
  Alcotest.(check (option string)) "per-thread lock rejected" None (guarded a ".f")

let test_lock_via_local_alias () =
  (* the lock flows through two local copies: points-to must-alias still
     resolves it to the global's allocation site *)
  let src =
    "class C { f; } global g; global l;
     fn w() { a = l; b = a; sync (b) { g.f = 1; } }
     main { l = new C; c = new C; g = c;
            spawn t1 = w(); spawn t2 = w(); join t1; join t2; }"
  in
  let a = analyze src in
  Alcotest.(check (option string)) "alias chain resolved" (Some "l") (guarded a ".f")

let test_plan_consistency () =
  (* the transformer's plan marks exactly the shared non-fresh sites *)
  let p =
    Lang.Check.validate_exn
      (Lang.Parser.parse_program
         "class C { f; } global g;
          fn w() { scratch = new C; scratch.f = 1; y = scratch.f; g = y; }
          main { spawn t1 = w(); spawn t2 = w(); join t1; join t2; x = g; }")
  in
  let tr = Instrument.Transformer.transform p in
  Alcotest.(check bool) "some sites instrumented" true (tr.instrumented_sites > 0);
  Alcotest.(check bool) "not all sites instrumented" true
    (tr.instrumented_sites < tr.total_access_sites)

let test_weave_output () =
  let p =
    Lang.Check.validate_exn
      (Lang.Parser.parse_program
         "global g; fn w() { g = g + 1; } main { g = 0; spawn a = w(); spawn b = w(); join a; join b; }")
  in
  let tr = Instrument.Transformer.transform p in
  let woven = Instrument.Transformer.weave tr p in
  let hooks =
    Lang.Ast.fold_stmts
      (fun n s -> match s.node with Lang.Ast.Opaque (_, name, _) when String.length name > 2 -> n + 1 | _ -> n)
      0 woven
  in
  Alcotest.(check bool) "hooks woven" true (hooks > 0);
  (* the woven program still validates and runs *)
  let woven = Lang.Check.validate_exn woven in
  let o = Runtime.Interp.run ~sched:Runtime.(Sched.round_robin ()) woven in
  Alcotest.(check bool) "woven program runs" true (o.status = Runtime.Interp.AllFinished)

(* ------------------------------------------------------------------ *)
(* Callgraph direct unit tests                                          *)
(* ------------------------------------------------------------------ *)

let test_callgraph_recursion () =
  (* mutual recursion: the reachability closure must terminate, and both
     functions sit in every entry's reach that calls into the cycle *)
  let p =
    Lang.Check.validate_exn
      (Lang.Parser.parse_program
         "fn even(n) { if (n > 0) { odd(n - 1); } return 0; }
          fn odd(n) { if (n > 0) { even(n - 1); } return 1; }
          fn w() { even(4); }
          main { spawn t = w(); join t; odd(3); }")
  in
  let cg = Callgraph.build p in
  Alcotest.(check (list string)) "cycle reached from both entries"
    [ "main"; "w" ]
    (Callgraph.entries_reaching cg (Some "even"));
  Alcotest.(check (list string)) "odd too (via the cycle and directly)"
    [ "main"; "w" ]
    (Callgraph.entries_reaching cg (Some "odd"));
  Alcotest.(check int) "two contexts execute the cycle" 2
    (Callgraph.context_count cg (Some "even"));
  (* a self-recursive entry is still one thread *)
  Alcotest.(check int) "spawned entry multiplicity" 1 (Callgraph.multiplicity cg "w")

let test_callgraph_call_resolution () =
  (* calls resolve through intermediate frames; spawn targets are entries,
     plain callees are not *)
  let p =
    Lang.Check.validate_exn
      (Lang.Parser.parse_program
         "fn leaf() { nop; } fn mid() { leaf(); }
          fn w1() { mid(); } fn w2() { mid(); }
          main { spawn a = w1(); spawn b = w2(); join a; join b; }")
  in
  let cg = Callgraph.build p in
  Alcotest.(check (list string)) "leaf reached from both spawned entries"
    [ "w1"; "w2" ]
    (Callgraph.entries_reaching cg (Some "leaf"));
  Alcotest.(check int) "two thread contexts" 2 (Callgraph.context_count cg (Some "leaf"));
  Alcotest.(check (list string)) "main body reached only by main" [ "main" ]
    (Callgraph.entries_reaching cg None);
  Alcotest.(check int) "main body is one context" 1 (Callgraph.context_count cg None)

let test_callgraph_unreachable () =
  (* a function never called nor spawned has no executing context, and its
     accesses must not force instrumentation of the target they touch *)
  let src =
    "class C { f; } global g;
     fn dead() { x = g; x.f = 99; }
     fn w() { y = g; v = y.f; return v; }
     main { c = new C; c.f = 0; g = c; spawn t1 = w(); spawn t2 = w();
            join t1; join t2; }"
  in
  let p = Lang.Check.validate_exn (Lang.Parser.parse_program src) in
  let cg = Callgraph.build p in
  Alcotest.(check (list string)) "no entry reaches dead code" []
    (Callgraph.entries_reaching cg (Some "dead"));
  Alcotest.(check int) "zero contexts" 0 (Callgraph.context_count cg (Some "dead"));
  (* the only write of .f sits in dead code: live accesses are read-only,
     so the partition carries no race and no instrumentation *)
  let a = analyze src in
  Alcotest.(check bool) "dead write does not share the target" false (shared a ".f")

(* ------------------------------------------------------------------ *)
(* MHP refinement                                                       *)
(* ------------------------------------------------------------------ *)

let test_mhp_quiescent_postjoin () =
  (* one writer thread, main reads after joining it: no pair of accesses
     may overlap, so the refined analysis elides the whole partition while
     the escape analysis alone would keep it *)
  let src =
    "class C { n; } global g;
     fn w() { x = g; x.n = x.n + 1; }
     main { c = new C; c.n = 0; g = c; spawn t = w(); join t; print c.n; }"
  in
  let a = analyze src in
  Alcotest.(check bool) "post-join partition elided" false (shared a ".n");
  let u = analyze ~refine:false src in
  Alcotest.(check bool) "kept without MHP refinement" true (shared u ".n")

let test_mhp_loop_spawn_unjoined_kept () =
  (* spawns in a loop with the joins deferred past it: instances of the
     same spawn site coexist, so the write conflicts with itself and the
     partition must stay instrumented even refined *)
  let src =
    "class C { n; } global g;
     fn w() { x = g; x.n = x.n + 1; }
     main { c = new C; c.n = 0; g = c; i = 0;
            while (i < 3) { spawn t = w(); i = i + 1; }
            print c.n; }"
  in
  let a = analyze src in
  Alcotest.(check bool) "multi-instance self-conflict kept" true (shared a ".n")

let test_mhp_loop_spawn_joined_serialized () =
  (* spawn and join in the same loop iteration: each instance's window
     closes before the next opens, so nothing ever overlaps — elided *)
  let src =
    "class C { n; } global g;
     fn w() { x = g; x.n = x.n + 1; }
     main { c = new C; c.n = 0; g = c; i = 0;
            while (i < 3) { spawn t = w(); join t; i = i + 1; }
            print c.n; }"
  in
  let a = analyze src in
  Alcotest.(check bool) "serialized loop-spawn elided" false (shared a ".n");
  let u = analyze ~refine:false src in
  Alcotest.(check bool) "kept without MHP refinement" true (shared u ".n")

(* ------------------------------------------------------------------ *)
(* Pairwise lockset coverage (O2 without a partition-wide guard)        *)
(* ------------------------------------------------------------------ *)

let test_lockset_pairwise_covered () =
  (* no single lock protects every access (guard = None), but every
     conflicting pair shares one: reader r1 holds l1, reader r2 holds l2,
     and the writer holds both.  O2 applies pairwise. *)
  let src =
    "class C { n; } global g; global l1; global l2;
     fn r1() { sync (l1) { x = g; v = x.n; return v; } }
     fn r2() { sync (l2) { x = g; v = x.n; return v; } }
     fn w() { sync (l1) { sync (l2) { x = g; x.n = x.n + 1; } } }
     main { l1 = new C; l2 = new C; c = new C; c.n = 0; g = c;
            spawn a = r1(); spawn b = r2(); spawn d = w();
            join a; join b; join d; }"
  in
  let a = analyze src in
  let tc =
    match List.filter (fun (tc : Analyze.target_class) -> tc.shared) (classes_of a ".n") with
    | tc :: _ -> tc
    | [] -> Alcotest.fail "partition not shared"
  in
  Alcotest.(check (option string)) "no partition-wide guard" None tc.guarded_by;
  Alcotest.(check bool) "pairwise covered" true tc.covered;
  Alcotest.(check int) "covered pairs are not races" 0 (List.length a.races)

(* ------------------------------------------------------------------ *)
(* Lint findings                                                        *)
(* ------------------------------------------------------------------ *)

let test_lint_race_findings () =
  let a =
    analyze
      "class C { n; } global g;
       fn w() { x = g; x.n = x.n + 1; }
       main { c = new C; g = c; spawn t1 = w(); spawn t2 = w(); join t1; join t2; }"
  in
  let fs = Lint.findings a in
  Alcotest.(check bool) "at least one race finding" true
    (List.exists (fun (f : Lint.finding) -> f.cls = Lint.Race) fs);
  (* bare unguarded write/write on a heap object: ww(3) + bare(2) + multi? *)
  Alcotest.(check bool) "ranked with a severity" true
    (List.for_all (fun (f : Lint.finding) -> f.rank >= 1 && f.score >= 0) fs)

let test_lint_atomicity_findings () =
  (* perfect locking, zero races — but the two critical sections are
     MHP-unordered: the check-then-act exposure lint must flag it *)
  let a =
    analyze
      "class C { n; } global g; global lk;
       fn w() { sync (lk) { x = g; x.n = x.n + 1; } }
       main { lk = new C; c = new C; g = c;
              spawn t1 = w(); spawn t2 = w(); join t1; join t2; }"
  in
  Alcotest.(check int) "no race pairs" 0 (List.length a.races);
  let fs = Lint.findings a in
  Alcotest.(check bool) "atomicity suspect reported" true
    (List.exists (fun (f : Lint.finding) -> f.cls = Lint.Atomicity) fs)

(* ------------------------------------------------------------------ *)
(* JSON schema round-trip (the [--json] surface is a pinned contract)   *)
(* ------------------------------------------------------------------ *)

let json_keys = function Lint.Json.Obj kvs -> List.map fst kvs | _ -> []

let get k j =
  match Lint.Json.member k j with
  | Some v -> v
  | None -> Alcotest.fail (Printf.sprintf "missing key %s" k)

let test_json_roundtrip () =
  let src =
    "class C { n; } global g;
     fn w() { x = g; x.n = x.n + 1; }
     main { c = new C; g = c; spawn t1 = w(); spawn t2 = w(); join t1; join t2; }"
  in
  let p = Lang.Check.validate_exn (Lang.Parser.parse_program src) in
  let a = Analyze.analyze p in
  let tr = Instrument.Transformer.transform p in
  let j =
    Lint.analysis_json a ~instrumented:tr.instrumented_sites
      ~guarded:tr.guarded_sites ~total_sites:tr.total_access_sites
  in
  (* encode, re-parse: the parser accepts everything the printer emits *)
  let r = Lint.Json.of_string (Lint.Json.to_string j) in
  Alcotest.(check (list string)) "top-level keys pinned"
    [ "summary"; "targets"; "races" ] (json_keys r);
  Alcotest.(check (list string)) "summary keys pinned"
    [
      "refined"; "total_access_sites"; "instrumented_sites";
      "guarded_sites"; "sequential_sids"; "race_pairs";
    ]
    (json_keys (get "summary" r));
  (match Lint.Json.to_list (get "targets" r) with
  | Some (t :: _) ->
    Alcotest.(check (list string)) "target keys pinned"
      [ "target"; "shared"; "guarded_by"; "covered"; "active_sids"; "sites" ]
      (json_keys t)
  | _ -> Alcotest.fail "no targets in analysis JSON");
  (match Lint.Json.to_list (get "races" r) with
  | Some (f :: _) ->
    Alcotest.(check (list string)) "finding keys pinned"
      [
        "rank"; "class"; "target"; "severity"; "score"; "s1"; "s2";
        "mhp_witness"; "lockset";
      ]
      (json_keys f)
  | _ -> Alcotest.fail "no race findings in analysis JSON");
  (* the counts survive the round trip *)
  let summary = get "summary" r in
  Alcotest.(check (option int)) "instrumented count"
    (Some tr.instrumented_sites)
    (Lint.Json.to_int (get "instrumented_sites" summary));
  Alcotest.(check (option int)) "race count"
    (Some (List.length a.races))
    (Lint.Json.to_int (get "race_pairs" summary));
  (* the lint report shares the same finding encoder *)
  let rep = Lint.Json.of_string (Lint.Json.to_string (Lint.report_json a)) in
  Alcotest.(check (list string)) "report keys pinned" [ "races"; "summary" ]
    (json_keys rep);
  Alcotest.(check (list string)) "report summary keys pinned"
    [ "total"; "race_pairs"; "atomicity_suspects"; "high"; "medium"; "low" ]
    (json_keys (get "summary" rep))

let () =
  Alcotest.run "analysis"
    [
      ( "callgraph",
        [
          Alcotest.test_case "reachability" `Quick test_callgraph_reach;
          Alcotest.test_case "loop spawn multiplicity" `Quick test_spawn_in_loop_multiplicity;
          Alcotest.test_case "recursion terminates" `Quick test_callgraph_recursion;
          Alcotest.test_case "call-chain resolution" `Quick test_callgraph_call_resolution;
          Alcotest.test_case "unreachable functions" `Quick test_callgraph_unreachable;
        ] );
      ( "mhp",
        [
          Alcotest.test_case "quiescent post-join elided" `Quick test_mhp_quiescent_postjoin;
          Alcotest.test_case "unjoined loop spawn kept" `Quick test_mhp_loop_spawn_unjoined_kept;
          Alcotest.test_case "joined loop spawn serialized" `Quick test_mhp_loop_spawn_joined_serialized;
        ] );
      ( "lockset",
        [ Alcotest.test_case "pairwise coverage" `Quick test_lockset_pairwise_covered ] );
      ( "lint",
        [
          Alcotest.test_case "race findings" `Quick test_lint_race_findings;
          Alcotest.test_case "atomicity findings" `Quick test_lint_atomicity_findings;
          Alcotest.test_case "json schema round-trip" `Quick test_json_roundtrip;
        ] );
      ( "sharing",
        [
          Alcotest.test_case "fresh objects local" `Quick test_fresh_not_shared;
          Alcotest.test_case "escaped objects shared" `Quick test_escaped_shared;
          Alcotest.test_case "single-thread data local" `Quick test_single_thread_not_shared;
        ] );
      ( "lock-guards",
        [
          Alcotest.test_case "consistent guard found" `Quick test_guarded_detection;
          Alcotest.test_case "bare site kills guard" `Quick test_unguarded_when_mixed;
          Alcotest.test_case "different locks rejected" `Quick test_different_locks_not_guarded;
          Alcotest.test_case "parameter locks resolved" `Quick test_param_lock_resolution;
        ] );
      ( "precision",
        [
          Alcotest.test_case "escape via field store" `Quick test_escape_via_field_store;
          Alcotest.test_case "per-site field partitions" `Quick test_same_field_different_sites;
          Alcotest.test_case "distinct lock sites rejected" `Quick test_distinct_lock_sites_inconsistent;
          Alcotest.test_case "init-phase publication" `Quick test_init_phase_publication;
          Alcotest.test_case "spawned-loop lock not unique" `Quick test_spawned_loop_lock_not_unique;
          Alcotest.test_case "lock via local alias" `Quick test_lock_via_local_alias;
        ] );
      ( "races",
        [
          Alcotest.test_case "race pair detected" `Quick test_race_pairs;
          Alcotest.test_case "guarded pairs excluded" `Quick test_no_race_when_guarded;
          Alcotest.test_case "read/read excluded" `Quick test_reads_only_no_race;
        ] );
      ( "transformer",
        [
          Alcotest.test_case "plan consistency" `Quick test_plan_consistency;
          Alcotest.test_case "woven source runs" `Quick test_weave_output;
        ] );
    ]
