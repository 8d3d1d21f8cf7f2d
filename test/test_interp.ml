(* Interpreter semantics: arithmetic, control flow, heap, locks,
   wait/notify, spawn/join, crashes, determinism. *)

open Runtime

let run ?(seed = 1) ?(sched = (Sched.round_robin ())) src =
  let p = Lang.Check.validate_exn (Lang.Parser.parse_program src) in
  Interp.run ~seed ~sched p

let outputs_of (o : Interp.outcome) : string list =
  List.concat_map snd o.outputs

let main_prints src expected () =
  let o = run src in
  Alcotest.(check (list string)) "prints" expected (outputs_of o);
  Alcotest.(check bool) "finished" true (o.status = Interp.AllFinished);
  Alcotest.(check int) "no crashes" 0 (List.length o.crashes)

let crashes_with src fragment () =
  let o = run src in
  match o.crashes with
  | [ c ] ->
    let contains hay needle =
      let n = String.length needle and h = String.length hay in
      let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
      n = 0 || go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "crash message %S contains %S" c.msg fragment)
      true (contains c.msg fragment)
  | cs -> Alcotest.failf "expected 1 crash, got %d" (List.length cs)

(* ------------------------------------------------------------------ *)

let arith = main_prints "main { x = (3 + 4) * 2 - 10 / 2; print x; print x % 3; }" [ "9"; "0" ]
let bools =
  main_prints
    "main { a = true && false; b = !a || (1 < 2); print a; print b; print 1 == 1; }"
    [ "false"; "true"; "true" ]

let strings =
  main_prints {|main { s = "ab" + "cd"; print s; n = #strlen(s); print n; }|} [ "abcd"; "4" ]

let control =
  main_prints
    "main { x = 0; i = 0; while (i < 5) { if (i % 2 == 0) { x = x + i; } i = i + 1; } print x; }"
    [ "6" ]

let heap =
  main_prints
    "class P { x; y; } main { p = new P; p.x = 3; p.y = p.x * 2; q = p; print q.y; }"
    [ "6" ]

let arrays =
  main_prints
    "main { a = new[5]; i = 0; while (i < 5) { a[i] = i * i; i = i + 1; } print a[4] + a[3]; }"
    [ "25" ]

let maps =
  main_prints
    {|main { m = newmap; m{"a"} = 1; m{2} = "two"; print m{"a"}; print m{2}; print m{"missing"}; h = maphas(m, 2); print h; }|}
    [ "1"; "two"; "null"; "true" ]

let functions =
  main_prints
    "fn fib(n) { if (n < 2) { return n; } a = fib(n - 1); b = fib(n - 2); return a + b; } main { x = fib(10); print x; }"
    [ "55" ]

let opaques =
  main_prints
    "main { a = #floor_sqrt(17); print a; b = #mix(2, 3); c = #mix(2, 3); print b == c; }"
    [ "4"; "true" ]

(* ---- crashes ---- *)

let npe = crashes_with "class C { f; } main { x = null; y = x.f; }" "null dereference"
let div0 = crashes_with "main { x = 0; y = 10 / x; }" "division by zero"
let oob = crashes_with "main { a = new[3]; x = a[3]; }" "out of bounds"
let oob_neg = crashes_with "main { a = new[3]; i = 0 - 1; x = a[i]; }" "out of bounds"
let assert_fail = crashes_with "main { assert 1 > 2; }" "assertion failed"
let type_err = crashes_with "main { x = 1 + true; }" "type error"
let unbound = crashes_with "main { y = zzz + 1; }" "unbound local"
let bad_unlock = crashes_with "class L {} main { l = new L; unlock l; }" "not held"
let bad_wait = crashes_with "class L {} main { l = new L; wait l; }" "without holding"

let crash_kills_thread_only () =
  let o =
    run
      "global g; fn bad() { x = 1 / 0; } main { g = 0; spawn t = bad(); join t; g = 5; print g; }"
  in
  Alcotest.(check (list string)) "main continues" [ "5" ] (outputs_of o);
  Alcotest.(check int) "one crash" 1 (List.length o.crashes);
  Alcotest.(check bool) "finished" true (o.status = Interp.AllFinished)

(* ---- concurrency ---- *)

let locks_exclusion () =
  (* with sync the result is always exact *)
  List.iter
    (fun seed ->
      let o =
        run ~sched:(Sched.random ~seed)
          "class C { n; } global c; global l;
           fn w(k) { while (k > 0) { sync (l) { c.n = c.n + 1; } k = k - 1; } }
           main { l = new C; c = new C; c.n = 0;
                  spawn a = w(25); spawn b = w(25); join a; join b; print c.n; }"
      in
      Alcotest.(check (list string)) "exact count" [ "50" ] (outputs_of o))
    [ 1; 2; 3; 4; 5 ]

let reentrant_locks =
  main_prints
    "class L { n; } global l;
     main { l = new L; sync (l) { sync (l) { lock l; l.n = 7; unlock l; } } print l.n; }"
    [ "7" ]

let lock_blocks () =
  (* without the lock, races lose updates under some seed *)
  let lost = ref false in
  for seed = 1 to 20 do
    let o =
      run ~sched:(Sched.random ~seed)
        "class C { n; } global c;
         fn w(k) { while (k > 0) { c.n = c.n + 1; k = k - 1; } }
         main { c = new C; c.n = 0; spawn a = w(25); spawn b = w(25); join a; join b; print c.n; }"
    in
    if outputs_of o <> [ "50" ] then lost := true
  done;
  Alcotest.(check bool) "some seed loses updates" true !lost

let deadlock_detected () =
  (* the classic lock-order inversion: some seed must interleave the two
     acquisitions and deadlock *)
  let src =
    "class L {} global l1; global l2;
     fn a() { sync (l1) { yield; yield; yield; sync (l2) { nop; } } }
     fn b() { sync (l2) { yield; yield; yield; sync (l1) { nop; } } }
     main { l1 = new L; l2 = new L; spawn x = a(); spawn y = b(); join x; join y; }"
  in
  let found = ref false in
  for seed = 1 to 50 do
    if not !found then
      match (run ~sched:(Sched.random ~seed) src).status with
      | Interp.Deadlock _ -> found := true
      | _ -> ()
  done;
  Alcotest.(check bool) "some seed deadlocks" true !found

let wait_notify =
  main_prints
    "class B { flag; } global b;
     fn waiter() { sync (b) { while (b.flag == 0) { wait b; } } print 2; }
     main { b = new B; b.flag = 0; spawn w = waiter(); print 1;
            sync (b) { b.flag = 1; notify b; } join w; print 3; }"
    [ "1"; "3"; "2" ]
(* note: outputs are per-thread; main prints 1,3 and the waiter prints 2 *)

let notifyall_wakes_all () =
  let o =
    run
      "class B { flag; n; } global b;
       fn waiter() { sync (b) { while (b.flag == 0) { wait b; } b.n = b.n + 1; } }
       main { b = new B; b.flag = 0; b.n = 0;
              spawn w1 = waiter(); spawn w2 = waiter(); spawn w3 = waiter();
              yield; yield; yield;
              sync (b) { b.flag = 1; notifyall b; }
              join w1; join w2; join w3; print b.n; }"
  in
  Alcotest.(check (list string)) "all three woke" [ "3" ] (outputs_of o)

let join_waits () =
  let o =
    run
      "global g; fn w() { i = 0; while (i < 50) { i = i + 1; } g = 1; }
       main { g = 0; spawn t = w(); join t; print g; }"
  in
  Alcotest.(check (list string)) "join ordered" [ "1" ] (outputs_of o)

let thread_ids_deterministic () =
  (* object ids must be thread-deterministic: same per-thread allocations
     across different schedules *)
  let src =
    "class C { f; } global g;
     fn w() { x = new C; y = new C; x.f = y; return x; }
     main { g = 0; spawn a = w(); spawn b = w(); join a; join b; print 1; }"
  in
  let o1 = run ~sched:(Sched.random ~seed:1) src in
  let o2 = run ~sched:(Sched.random ~seed:9) src in
  Alcotest.(check bool) "both finish" true
    (o1.status = Interp.AllFinished && o2.status = Interp.AllFinished)

let seeded_determinism () =
  let src =
    "global x; fn w(k) { while (k > 0) { x = x + k; k = k - 1; } }
     main { x = 0; spawn a = w(9); spawn b = w(7); join a; join b; print x; }"
  in
  let t1 = (run ~sched:(Sched.sticky ~seed:4 ~stickiness:3) src).reads in
  let t2 = (run ~sched:(Sched.sticky ~seed:4 ~stickiness:3) src).reads in
  Alcotest.(check bool) "same seed, same reads" true (t1 = t2)

let syscall_capture () =
  let o = run "main { t = @time(); r = @rand(100); print r >= 0 && r < 100; }" in
  Alcotest.(check (list string)) "rand in range" [ "true" ] (outputs_of o);
  Alcotest.(check int) "two syscalls recorded" 2 (List.length o.syscalls)

let counters_count_ghosts () =
  (* a spawn/join pair produces ghost accesses: counters are positive even
     without field accesses *)
  let o = run "fn w() { nop; } main { spawn t = w(); join t; }" in
  let main_d = List.assoc 1 o.counters in
  Alcotest.(check bool) "main ticked for ghosts" true (main_d >= 2)

let step_limit () =
  let o =
    Interp.run ~max_steps:100 ~sched:(Sched.round_robin ())
      (Lang.Check.validate_exn (Lang.Parser.parse_program "main { x = 0; while (true) { x = x + 1; } }"))
  in
  Alcotest.(check bool) "hits limit" true (o.status = Interp.StepLimit)

let round_robin_runs_identical () =
  (* regression: [round_robin] used to be a top-level value whose rotation
     cursor was allocated once at module init, so the schedule of one run
     leaked into the next (and across domains).  As a [unit -> t]
     constructor, two fresh instances must produce identical schedules. *)
  let src =
    "global x; fn w(v) { x = x + v; x = x * v; } \
     main { x = 0; spawn a = w(2); spawn b = w(3); join a; join b; print x; }"
  in
  let p = Lang.Check.validate_exn (Lang.Parser.parse_program src) in
  let go () = Vm.run ~collect_trace:true ~sched:(Sched.round_robin ()) p in
  let o1 = go () in
  let o2 = go () in
  let sched_of (o : Interp.outcome) =
    List.map (fun (a : Event.access) -> (a.tid, a.c)) o.trace
  in
  Alcotest.(check (list (pair int int))) "identical schedules" (sched_of o1) (sched_of o2);
  Alcotest.(check (list string)) "identical outputs" (outputs_of o1) (outputs_of o2)

let oracle_detects_difference () =
  let src =
    "global x; fn w(v) { x = v; } main { x = 0; spawn a = w(1); spawn b = w(2); join a; join b; y = x; print y; }"
  in
  let o1 = run ~sched:(Sched.scripted [ 1; 1; 101; 101; 101; 102; 102; 102; 1 ]) src in
  let o2 = run ~sched:(Sched.scripted [ 1; 1; 102; 102; 102; 101; 101; 101; 1 ]) src in
  if outputs_of o1 <> outputs_of o2 then
    Alcotest.(check bool) "oracle flags mismatch" true
      (Interp.replay_matches ~original:o1 ~replay:o2 <> [])
  else Alcotest.(check bool) "schedules coincided" true true

(* Round-robin's pick is a single walk for the first tid above the cursor;
   it must agree with the filter-then-head definition on any runnable list
   (tid order or not) and any cursor. *)
let prop_round_robin_pick =
  QCheck.Test.make ~count:500 ~name:"round-robin pick = filter-above-cursor reference"
    QCheck.(pair (list_of_size Gen.(int_range 1 8) (int_range 0 400)) (int_range (-1) 400))
    (fun (runnable, cursor) ->
      let expected =
        match List.filter (fun t -> t > cursor) runnable with
        | x :: _ -> x
        | [] -> List.hd runnable
      in
      let s = Sched.round_robin () in
      s.load (string_of_int cursor);
      s.pick ~step:0 ~runnable = expected && s.save () = string_of_int expected)

let () =
  Alcotest.run "interp"
    [
      ( "sequential",
        [
          Alcotest.test_case "arithmetic" `Quick arith;
          Alcotest.test_case "booleans" `Quick bools;
          Alcotest.test_case "strings" `Quick strings;
          Alcotest.test_case "control flow" `Quick control;
          Alcotest.test_case "objects" `Quick heap;
          Alcotest.test_case "arrays" `Quick arrays;
          Alcotest.test_case "maps" `Quick maps;
          Alcotest.test_case "recursion" `Quick functions;
          Alcotest.test_case "opaque ops deterministic" `Quick opaques;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "null deref" `Quick npe;
          Alcotest.test_case "division by zero" `Quick div0;
          Alcotest.test_case "index out of bounds" `Quick oob;
          Alcotest.test_case "negative index" `Quick oob_neg;
          Alcotest.test_case "assertion" `Quick assert_fail;
          Alcotest.test_case "type error" `Quick type_err;
          Alcotest.test_case "unbound variable" `Quick unbound;
          Alcotest.test_case "unlock not held" `Quick bad_unlock;
          Alcotest.test_case "wait without monitor" `Quick bad_wait;
          Alcotest.test_case "crash kills only its thread" `Quick crash_kills_thread_only;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "mutual exclusion" `Quick locks_exclusion;
          Alcotest.test_case "reentrant monitors" `Quick reentrant_locks;
          Alcotest.test_case "races lose updates" `Quick lock_blocks;
          Alcotest.test_case "deadlock detection" `Quick deadlock_detected;
          Alcotest.test_case "wait/notify" `Quick wait_notify;
          Alcotest.test_case "notifyAll" `Quick notifyall_wakes_all;
          Alcotest.test_case "join ordering" `Quick join_waits;
          Alcotest.test_case "thread-deterministic ids" `Quick thread_ids_deterministic;
          Alcotest.test_case "seeded runs deterministic" `Quick seeded_determinism;
          Alcotest.test_case "syscalls captured" `Quick syscall_capture;
          Alcotest.test_case "ghost accesses tick counters" `Quick counters_count_ghosts;
          Alcotest.test_case "step limit" `Quick step_limit;
          Alcotest.test_case "fresh round-robin runs identical" `Quick
            round_robin_runs_identical;
          Alcotest.test_case "oracle detects divergence" `Quick oracle_detects_difference;
        ] );
      ("schedulers", [ QCheck_alcotest.to_alcotest prop_round_robin_pick ]);
    ]
