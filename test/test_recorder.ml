(* Recorder and log invariants: Algorithm 1's structure, the prec
   compression, O1 run records, O2 subsumption, space accounting,
   serialization.  QCheck properties run the recorder over many seeds. *)

open Light_core
open Runtime

let prog_src = {|
  class C { f; g; }
  global shared;
  global lk;
  fn worker(id, n) {
    i = 0;
    while (i < n) {
      shared.f = id * 100 + i;
      v = shared.f;
      sync (lk) { lk.g = lk.g + 1; }
      i = i + 1;
    }
  }
  main {
    shared = new C; lk = new C;
    sync (lk) { lk.g = 0; }
    shared.f = 0;
    spawn a = worker(1, 8);
    spawn b = worker(2, 8);
    join a; join b;
    x = shared.f;
    print x;
  }
|}

let program = lazy (Lang.Check.validate_exn (Lang.Parser.parse_program prog_src))

let record ?(seed = 3) ?(stickiness = 4) variant =
  Light.record ~variant ~sched:(Sched.sticky ~seed ~stickiness) (Lazy.force program)

(* ------------------------------------------------------------------ *)
(* Structural invariants                                                *)
(* ------------------------------------------------------------------ *)

let check_log_wellformed (log : Log.t) =
  let counter_of t = Option.value ~default:0 (List.assoc_opt t log.counters) in
  List.iter
    (fun (d : Log.dep) ->
      let rt, rc = d.rf in
      Alcotest.(check bool) "read counter in range" true (rc >= 1 && rc <= counter_of rt);
      Alcotest.(check bool) "span ordered" true (d.rl_c >= rc);
      match d.w with
      | Some (wt, wc) ->
        Alcotest.(check bool) "write counter in range" true (wc >= 1 && wc <= counter_of wt);
        Alcotest.(check bool) "no self-loop into the future" true
          (not (wt = rt && wc >= rc))
      | None -> ())
    log.deps;
  List.iter
    (fun (r : Log.range) ->
      Alcotest.(check bool) "range ordered" true (r.lo <= r.hi);
      Alcotest.(check bool) "range in range" true (r.hi <= counter_of r.rt))
    log.ranges;
  (* per (thread, loc), records must not overlap in counter space *)
  let spans = Hashtbl.create 64 in
  let add t loc lo hi =
    let key = (t, loc) in
    let prev = Option.value ~default:[] (Hashtbl.find_opt spans key) in
    List.iter
      (fun (lo', hi') ->
        if not (hi < lo' || hi' < lo) then
          Alcotest.failf "overlapping records for thread %d: [%d,%d] vs [%d,%d]" t lo hi lo' hi')
      prev;
    Hashtbl.replace spans key ((lo, hi) :: prev)
  in
  List.iter (fun (d : Log.dep) -> add (fst d.rf) d.loc (snd d.rf) d.rl_c) log.deps;
  List.iter (fun (r : Log.range) -> add r.rt r.loc r.lo r.hi) log.ranges

let test_log_wellformed () =
  List.iter
    (fun v -> check_log_wellformed (record v).log)
    [ Light.v_basic; Light.v_o1; Light.v_both ]

let test_basic_has_no_ranges () =
  let r = record Light.v_basic in
  Alcotest.(check int) "V_basic records deps only" 0 (List.length r.log.ranges);
  Alcotest.(check bool) "has deps" true (List.length r.log.deps > 0)

let test_o2_reduces_records () =
  let o1 = record Light.v_o1 in
  let both = record Light.v_both in
  Alcotest.(check bool)
    (Printf.sprintf "O2 shrinks the log (%d -> %d longs)" o1.space_longs both.space_longs)
    true
    (both.space_longs <= o1.space_longs)

let test_o1_never_hurts_space () =
  List.iter
    (fun seed ->
      let basic = record ~seed Light.v_basic in
      let o1 = record ~seed Light.v_o1 in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: O1 %d <= basic %d longs" seed o1.space_longs
           basic.space_longs)
        true
        (o1.space_longs <= basic.space_longs))
    [ 1; 2; 3; 4; 5; 6 ]

let test_counters_match_outcome () =
  let r = record Light.v_both in
  Alcotest.(check bool) "counters copied" true (r.log.counters = r.outcome.counters)

let test_syscalls_recorded () =
  let src = "main { t1 = @time(); t2 = @time(); r = @rand(5); print t1 + t2 + r; }" in
  let p = Lang.Check.validate_exn (Lang.Parser.parse_program src) in
  let r = Light.record ~sched:(Sched.round_robin ()) p in
  Alcotest.(check int) "three syscalls" 3 (List.length r.log.syscalls)

let test_overhead_positive () =
  let r = record Light.v_both in
  Alcotest.(check bool) "nonzero overhead" true (r.overhead > 0.0);
  Alcotest.(check bool) "bounded overhead" true (r.overhead < 5.0)

let test_guarded_skip_count () =
  (* fully lock-disciplined program: O2 must skip all field recording *)
  let src =
    "class C { n; } global lk;
     fn w(k) { while (k > 0) { sync (lk) { lk.n = lk.n + 1; } k = k - 1; } }
     main { lk = new C; sync (lk) { lk.n = 0; }
            spawn a = w(5); spawn b = w(5); join a; join b; }"
  in
  let p = Lang.Check.validate_exn (Lang.Parser.parse_program src) in
  let both = Light.record ~variant:Light.v_both ~sched:(Sched.sticky ~seed:1 ~stickiness:3) p in
  let o1 = Light.record ~variant:Light.v_o1 ~sched:(Sched.sticky ~seed:1 ~stickiness:3) p in
  Alcotest.(check bool)
    (Printf.sprintf "O2 shrinks fully-guarded log (%d < %d)" both.space_longs o1.space_longs)
    true
    (both.space_longs < o1.space_longs);
  (* the remaining records are on ghost locations or on the global slot
     holding the lock reference (read outside the sync region) — never on
     the guarded field *)
  let allowed (l : Loc.t) = Loc.is_ghost l || l.obj = 0 in
  List.iter
    (fun (d : Log.dep) ->
      Alcotest.(check bool) "dep not on guarded field" true (allowed d.loc))
    both.log.deps;
  List.iter
    (fun (r : Log.range) ->
      Alcotest.(check bool) "range not on guarded field" true (allowed r.loc))
    both.log.ranges

(* ------------------------------------------------------------------ *)
(* The five open_run closing shapes (white-box)                         *)
(* ------------------------------------------------------------------ *)

(* Drive the recorder directly with synthetic accesses and assert the exact
   encoding each run shape emits at close (previously covered only
   indirectly through the workload differentials). *)

let loc0 : Loc.t = { obj = 7; fld = 0 }

let outcome0 : Interp.outcome =
  {
    status = Interp.AllFinished;
    steps = 0;
    crashes = [];
    reads = [];
    outputs = [];
    counters = [];
    syscalls = [];
    final_heap = [];
    trace = [];
  }

(* an O1 recorder whose single site 0 is recorded *)
let o1_recorder () = Recorder.create ~variant:Recorder.v_o1 (Bytes.make 1 Runtime.Plan.m_recorded)

let access r ~tid ~c kind =
  Recorder.on_access r
    { Event.tid; c; loc = loc0; kind; site = 0; ghost = Event.NotGhost }

let close (r : Recorder.t) : Log.t = Recorder.finalize r ~outcome:outcome0

let test_shape_reads_only () =
  (* a foreign write, then a pure-read run: closes through the prec map as
     one dep (w_in -> read span) *)
  let r = o1_recorder () in
  access r ~tid:1 ~c:1 Event.Write;  (* clock 1 *)
  access r ~tid:2 ~c:1 Event.Read;   (* clock 2: breaks t1's run *)
  access r ~tid:2 ~c:2 Event.Read;   (* clock 3 *)
  access r ~tid:2 ~c:3 Event.Read;   (* clock 4 *)
  let log = close r in
  Alcotest.(check int) "no ranges" 0 (List.length log.ranges);
  match log.deps with
  | [ d ] ->
    Alcotest.(check bool) "w = t1's write" true (d.w = Some (1, 1));
    Alcotest.(check bool) "rf = first read" true (d.rf = (2, 1));
    Alcotest.(check int) "rl = last read" 3 d.rl_c;
    Alcotest.(check int) "w stamped at clock 1" 1 d.w_obs;
    Alcotest.(check int) "span stamped at clock 4" 4 d.dep_obs
  | ds -> Alcotest.failf "expected exactly one dep, got %d" (List.length ds)

let test_shape_writes_only () =
  (* a pure-write run is dropped: its last write would be referenced by the
     next reader's w_in, earlier writes are blind *)
  let r = o1_recorder () in
  access r ~tid:1 ~c:1 Event.Write;
  access r ~tid:1 ~c:2 Event.Write;
  access r ~tid:1 ~c:3 Event.Write;
  let log = close r in
  Alcotest.(check int) "no deps" 0 (List.length log.deps);
  Alcotest.(check int) "no ranges" 0 (List.length log.ranges)

let test_shape_reads_then_writes () =
  (* [R+ W+]: one dep (w_in -> prefix-read span); the trailing writes
     behave like V_basic writes and need no record of their own *)
  let r = o1_recorder () in
  access r ~tid:1 ~c:1 Event.Write;  (* clock 1: the feeding write *)
  access r ~tid:2 ~c:1 Event.Read;   (* clock 2 *)
  access r ~tid:2 ~c:2 Event.Read;   (* clock 3 *)
  access r ~tid:2 ~c:3 Event.Write;  (* clock 4 *)
  access r ~tid:2 ~c:4 Event.Write;  (* clock 5 *)
  let log = close r in
  Alcotest.(check int) "no ranges" 0 (List.length log.ranges);
  match log.deps with
  | [ d ] ->
    Alcotest.(check bool) "w = w_in" true (d.w = Some (1, 1));
    Alcotest.(check bool) "rf = run lo" true (d.rf = (2, 1));
    Alcotest.(check int) "rl = last prefix read" 2 d.rl_c;
    Alcotest.(check int) "span stamped at the last prefix read" 3 d.dep_obs
  | ds -> Alcotest.failf "expected exactly one dep, got %d" (List.length ds)

let test_shape_writes_then_reads () =
  (* [W+ R+]: one dep (the run's own last write -> trailing read span) *)
  let r = o1_recorder () in
  access r ~tid:2 ~c:1 Event.Write;  (* clock 1 *)
  access r ~tid:2 ~c:2 Event.Write;  (* clock 2: the referenced write *)
  access r ~tid:2 ~c:3 Event.Read;   (* clock 3 *)
  access r ~tid:2 ~c:4 Event.Read;   (* clock 4 *)
  let log = close r in
  Alcotest.(check int) "no ranges" 0 (List.length log.ranges);
  match log.deps with
  | [ d ] ->
    Alcotest.(check bool) "w = own last write" true (d.w = Some (2, 2));
    Alcotest.(check int) "w stamped at clock 2" 2 d.w_obs;
    Alcotest.(check bool) "rf = first read after w" true (d.rf = (2, 3));
    Alcotest.(check int) "rl = run hi" 4 d.rl_c;
    Alcotest.(check int) "span stamped at run hi" 4 d.dep_obs
  | ds -> Alcotest.failf "expected exactly one dep, got %d" (List.length ds)

let test_shape_middle_read () =
  (* a read strictly between two own writes: no single dep carries the
     interval's noninterference constraint — a range record is emitted *)
  let r = o1_recorder () in
  access r ~tid:2 ~c:1 Event.Write;  (* clock 1 *)
  access r ~tid:2 ~c:2 Event.Read;   (* clock 2 *)
  access r ~tid:2 ~c:3 Event.Write;  (* clock 3 *)
  let log = close r in
  Alcotest.(check int) "no deps" 0 (List.length log.deps);
  match log.ranges with
  | [ rg ] ->
    Alcotest.(check int) "owned by t2" 2 rg.rt;
    Alcotest.(check int) "lo" 1 rg.lo;
    Alcotest.(check int) "hi" 3 rg.hi;
    Alcotest.(check bool) "no feeding write (run starts with a write)" true
      (rg.w_in = None);
    Alcotest.(check bool) "no prefix reads" false rg.prefix_reads;
    Alcotest.(check bool) "has a write" true rg.has_write;
    Alcotest.(check int) "lo stamped at clock 1" 1 rg.lo_obs;
    Alcotest.(check int) "hi stamped at clock 3" 3 rg.rng_obs
  | rs -> Alcotest.failf "expected exactly one range, got %d" (List.length rs)

(* ------------------------------------------------------------------ *)
(* Serialization                                                        *)
(* ------------------------------------------------------------------ *)

let test_log_roundtrip () =
  List.iter
    (fun v ->
      let log = (record v).log in
      let log' = Log.of_string (Log.to_string log) in
      Alcotest.(check bool) "deps preserved" true (log.deps = log'.deps);
      Alcotest.(check bool) "ranges preserved" true (log.ranges = log'.ranges);
      Alcotest.(check bool) "syscalls preserved" true (log.syscalls = log'.syscalls);
      Alcotest.(check bool) "counters preserved" true (log.counters = log'.counters);
      Alcotest.(check bool) "flags preserved" true (log.o1 = log'.o1 && log.o2 = log'.o2))
    [ Light.v_basic; Light.v_both ]

let test_log_roundtrip_tricky_values () =
  (* string values and map keys with spaces / percent signs *)
  let src =
    {|global m; main { m = newmap; m{"k 1%x"} = "v 2%y"; a = m{"k 1%x"}; print a; }|}
  in
  let p = Lang.Check.validate_exn (Lang.Parser.parse_program src) in
  let r = Light.record ~sched:(Sched.round_robin ()) p in
  let log' = Log.of_string (Log.to_string r.log) in
  Alcotest.(check bool) "tricky fields roundtrip" true (r.log.deps = log'.deps && r.log.ranges = log'.ranges)

(* the writer emits digit-by-digit; pin the exact bytes of a small log so a
   formatting regression cannot hide behind a parser that accepts it *)
let test_serialization_exact_bytes () =
  let fx = Loc.fld_of_name "f x" in
  let log : Log.t =
    {
      deps =
        [
          { loc = { obj = 3; fld = fx }; w = Some (1, 4); rf = (2, 5); rl_c = 7;
            dep_obs = 11; w_obs = 2 };
          { loc = { obj = 3; fld = -5 }; w = None; rf = (1, 1); rl_c = 1;
            dep_obs = 1; w_obs = 0 };
        ];
      ranges =
        [
          { loc = { obj = 3; fld = fx }; rt = 2; lo = 6; hi = 9; w_in = None;
            prefix_reads = true; has_write = false; rng_obs = 12; lo_obs = 8;
            w_obs = 0 };
        ];
      syscalls = [ (1, 0, "@rand", Runtime.Value.VInt 42) ];
      counters = [ (1, 5); (2, 9) ];
      o1 = true;
      o2 = false;
    }
  in
  let expected =
    Printf.sprintf
      "light-log v3 o1=true o2=false\n\
       F %d f%%20x\n\
       T 1 5\n\
       T 2 9\n\
       D 3/%d 1:4 2:5 7 11 2\n\
       D 3/-5 - 1:1 1 1 0\n\
       R 3/%d 2 6 9 - true false 12 8 0\n\
       S 1 0 @rand i42\n"
      fx fx fx
  in
  Alcotest.(check string) "v3 bytes pinned" expected (Log.to_string log)

(* Every malformed input fails with [Failure] and a message: an integer
   that does not fit in an [int] is a bad line rather than a wrapped
   counter, and a bad header flag is no [Scanf] exception. *)
let test_log_malformed () =
  let hdr = "light-log v3 o1=true o2=false\n" in
  let failure what s =
    match Log.of_string s with
    | _ -> Alcotest.failf "%s: parsed" what
    | exception Failure msg -> msg
    | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  in
  Alcotest.(check string) "overflowing counter" "bad log line: T 1 99999999999999999999999"
    (failure "overflow" (hdr ^ "T 1 99999999999999999999999\n"));
  Alcotest.(check string) "max_int + 1" "bad log line: T 1 4611686018427387904"
    (failure "max_int + 1" (hdr ^ "T 1 4611686018427387904\n"));
  Alcotest.(check string) "min_int - 1" "bad log line: T -4611686018427387905 1"
    (failure "min_int - 1" (hdr ^ "T -4611686018427387905 1\n"));
  Alcotest.(check (list (pair int int))) "the extremes read" [ (min_int, max_int) ]
    (Log.of_string (hdr ^ "T -4611686018427387904 4611686018427387903\n")).counters;
  Alcotest.(check string) "bad header flag" "bad log header: light-log v3 o1=maybe o2=true"
    (failure "header" "light-log v3 o1=maybe o2=true\n");
  Alcotest.(check string) "unknown field id"
    "bad location (field id 9 not in intern table): 0/9"
    (failure "field id" (hdr ^ "D 0/9 1:1 2:1 1 2 1\n"));
  ignore (failure "bad bool value" (hdr ^ "S 1 0 @x bmaybe\n"));
  match Light_core.Epoch.of_string_v4 "light-log v4 o1=true o2=false epoch=x\n" with
  | _ -> Alcotest.fail "v4 header: parsed"
  | exception Failure msg ->
    Alcotest.(check string) "v4 header" "bad log header: light-log v4 o1=true o2=false epoch=x" msg

(* qcheck: serialization round-trips over random logs *)
let log_gen : Log.t QCheck.arbitrary =
  let open QCheck.Gen in
  let field_name =
    oneofl [ "f"; "g"; "count"; "k 1%x"; "a/b:c"; "m%20"; "x y z" ]
  in
  let loc =
    let* obj = int_range (-5) 500 in
    let* fld =
      oneof [ map Loc.fld_of_name field_name; map (fun i -> -(2 * i) - 1) (int_range 0 20) ]
    in
    return { Loc.obj; fld }
  in
  let evt = pair (int_range 1 9) (int_range 1 999) in
  let dep =
    let* loc = loc in
    let* w = opt evt in
    let* rf = evt in
    let* span = int_range 0 50 in
    let* dep_obs = int_range 0 5000 in
    let* w_obs = int_range 0 5000 in
    return { Log.loc; w; rf; rl_c = snd rf + span; dep_obs; w_obs }
  in
  let range =
    let* loc = loc in
    let* rt = int_range 1 9 in
    let* lo = int_range 1 999 in
    let* span = int_range 0 50 in
    let* w_in = opt evt in
    let* prefix_reads = bool in
    let* has_write = bool in
    let* rng_obs = int_range 0 5000 in
    let* lo_obs = int_range 0 5000 in
    let* w_obs = int_range 0 5000 in
    return
      { Log.loc; rt; lo; hi = lo + span; w_in; prefix_reads; has_write; rng_obs;
        lo_obs; w_obs }
  in
  let value =
    let open Runtime.Value in
    oneof
      [
        map (fun n -> VInt n) small_signed_int;
        map (fun b -> VBool b) bool;
        return VNull;
        map (fun o -> VRef o) (int_range 0 99);
        map (fun s -> VStr s) (oneofl [ ""; "v 2%y"; "plain"; "a:b/c" ]);
        map (fun t -> VThread t) (int_range 1 9);
      ]
  in
  let syscall =
    let* t = int_range 1 9 in
    let* i = int_range 0 20 in
    let* name = oneofl [ "@time"; "@rand"; "@strlen" ] in
    let* v = value in
    return (t, i, name, v)
  in
  let gen =
    let* deps = list_size (int_range 0 6) dep in
    let* ranges = list_size (int_range 0 6) range in
    let* syscalls = list_size (int_range 0 4) syscall in
    let* counters = list_size (int_range 0 4) (pair (int_range 1 9) (int_range 1 999)) in
    let* o1 = bool in
    let* o2 = bool in
    return { Log.deps; ranges; syscalls; counters; o1; o2 }
  in
  QCheck.make ~print:Log.to_string gen

let prop_random_log_roundtrip =
  QCheck.Test.make ~count:200 ~name:"random logs round-trip (v3)" log_gen
    (fun log -> Log.of_string (Log.to_string log) = log)

(* qcheck: recorder invariants over random seeds and variants *)
let seed_variant_gen =
  QCheck.make
    ~print:(fun (s, k, v) -> Printf.sprintf "seed=%d stick=%d %s" s k (Recorder.variant_name v))
    QCheck.Gen.(
      triple (int_range 1 50) (int_range 1 12)
        (oneofl [ Recorder.v_basic; Recorder.v_o1; Recorder.v_both ]))

let prop_log_wellformed =
  QCheck.Test.make ~count:60 ~name:"recorder logs well-formed across seeds" seed_variant_gen
    (fun (seed, stickiness, variant) ->
      let r = record ~seed ~stickiness variant in
      check_log_wellformed r.log;
      Log.space_longs r.log >= 0)

let () =
  Alcotest.run "recorder"
    [
      ( "structure",
        [
          Alcotest.test_case "well-formed logs" `Quick test_log_wellformed;
          Alcotest.test_case "V_basic: deps only" `Quick test_basic_has_no_ranges;
          Alcotest.test_case "O2 reduces records" `Quick test_o2_reduces_records;
          Alcotest.test_case "O1 never hurts space" `Quick test_o1_never_hurts_space;
          Alcotest.test_case "counters copied" `Quick test_counters_match_outcome;
          Alcotest.test_case "syscalls recorded" `Quick test_syscalls_recorded;
          Alcotest.test_case "overhead sane" `Quick test_overhead_positive;
          Alcotest.test_case "O2 skips guarded fields" `Quick test_guarded_skip_count;
        ] );
      ( "closing-shapes",
        [
          Alcotest.test_case "reads-only -> prec dep" `Quick test_shape_reads_only;
          Alcotest.test_case "writes-only -> dropped" `Quick test_shape_writes_only;
          Alcotest.test_case "R+W+ -> dep on w_in" `Quick test_shape_reads_then_writes;
          Alcotest.test_case "W+R+ -> dep on own write" `Quick test_shape_writes_then_reads;
          Alcotest.test_case "middle read -> range" `Quick test_shape_middle_read;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "roundtrip" `Quick test_log_roundtrip;
          Alcotest.test_case "tricky values" `Quick test_log_roundtrip_tricky_values;
          Alcotest.test_case "exact bytes pinned" `Quick test_serialization_exact_bytes;
          Alcotest.test_case "malformed logs fail with Failure" `Quick test_log_malformed;
          QCheck_alcotest.to_alcotest prop_random_log_roundtrip;
          QCheck_alcotest.to_alcotest prop_log_wellformed;
        ] );
    ]
