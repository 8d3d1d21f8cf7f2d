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

(* A log's rows, one array each: its deps ([obj fld w_t w_c w_obs rf_t
   rf_c rl_c dep_obs]) and its ranges ([obj fld rt lo hi w_t w_c
   prefix_reads has_write rng_obs lo_obs w_obs]). *)
let rows (a : int array) (width : int) : int array list =
  List.init (Array.length a / width) (fun k -> Array.sub a (k * width) width)

let deps (log : Log.t) = rows log.deps Log.dep_width
let ranges (log : Log.t) = rows log.ranges Log.range_width

let check_log_wellformed (log : Log.t) =
  let counter_of t = Option.value ~default:0 (List.assoc_opt t log.counters) in
  List.iter
    (fun d ->
      let wt = d.(Log.d_wt) and wc = d.(Log.d_wc) and rt = d.(Log.d_rft) and rc = d.(Log.d_rfc) in
      Alcotest.(check bool) "read counter in range" true (rc >= 1 && rc <= counter_of rt);
      Alcotest.(check bool) "span ordered" true (d.(Log.d_rl) >= rc);
      if wt >= 0 then begin
        Alcotest.(check bool) "write counter in range" true (wc >= 1 && wc <= counter_of wt);
        Alcotest.(check bool) "no self-loop into the future" true
          (not (wt = rt && wc >= rc))
      end)
    (deps log);
  List.iter
    (fun r ->
      Alcotest.(check bool) "range ordered" true (r.(Log.r_lo) <= r.(Log.r_hi));
      Alcotest.(check bool) "range in range" true (r.(Log.r_hi) <= counter_of r.(Log.r_t)))
    (ranges log);
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
  List.iter (fun d -> add d.(Log.d_rft) (d.(0), d.(1)) d.(Log.d_rfc) d.(Log.d_rl)) (deps log);
  List.iter (fun r -> add r.(Log.r_t) (r.(0), r.(1)) r.(Log.r_lo) r.(Log.r_hi)) (ranges log)

let test_log_wellformed () =
  List.iter
    (fun v -> check_log_wellformed (record v).log)
    [ Light.v_basic; Light.v_o1; Light.v_both ]

let test_basic_has_no_ranges () =
  let r = record Light.v_basic in
  Alcotest.(check int) "V_basic records deps only" 0 (Log.n_ranges r.log);
  Alcotest.(check bool) "has deps" true (Log.n_deps r.log > 0)

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
  let allowed row = Loc.is_ghost { Loc.obj = row.(0); fld = row.(1) } || row.(0) = 0 in
  List.iter
    (fun d -> Alcotest.(check bool) "dep not on guarded field" true (allowed d))
    (deps both.log);
  List.iter
    (fun r -> Alcotest.(check bool) "range not on guarded field" true (allowed r))
    (ranges both.log)

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

(* the recorder's one entry point for accesses *)
let on_shared (r : Recorder.t) = Option.get (Recorder.hooks r).on_shared

let access r ~tid ~c kind =
  on_shared r ~tid ~c ~obj:loc0.obj ~fld:loc0.fld ~kind ~site:0 ~ghost:Event.NotGhost

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
  Alcotest.(check int) "no ranges" 0 (Log.n_ranges log);
  match deps log with
  | [ [| _; _; w_t; w_c; w_obs; rf_t; rf_c; rl_c; dep_obs |] ] ->
    Alcotest.(check (pair int int)) "w = t1's write" (1, 1) (w_t, w_c);
    Alcotest.(check (pair int int)) "rf = first read" (2, 1) (rf_t, rf_c);
    Alcotest.(check int) "rl = last read" 3 rl_c;
    Alcotest.(check int) "w stamped at clock 1" 1 w_obs;
    Alcotest.(check int) "span stamped at clock 4" 4 dep_obs
  | ds -> Alcotest.failf "expected exactly one dep, got %d" (List.length ds)

let test_shape_writes_only () =
  (* a pure-write run is dropped: its last write would be referenced by the
     next reader's w_in, earlier writes are blind *)
  let r = o1_recorder () in
  access r ~tid:1 ~c:1 Event.Write;
  access r ~tid:1 ~c:2 Event.Write;
  access r ~tid:1 ~c:3 Event.Write;
  let log = close r in
  Alcotest.(check int) "no deps" 0 (Log.n_deps log);
  Alcotest.(check int) "no ranges" 0 (Log.n_ranges log)

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
  Alcotest.(check int) "no ranges" 0 (Log.n_ranges log);
  match deps log with
  | [ [| _; _; w_t; w_c; _; rf_t; rf_c; rl_c; dep_obs |] ] ->
    Alcotest.(check (pair int int)) "w = w_in" (1, 1) (w_t, w_c);
    Alcotest.(check (pair int int)) "rf = run lo" (2, 1) (rf_t, rf_c);
    Alcotest.(check int) "rl = last prefix read" 2 rl_c;
    Alcotest.(check int) "span stamped at the last prefix read" 3 dep_obs
  | ds -> Alcotest.failf "expected exactly one dep, got %d" (List.length ds)

let test_shape_writes_then_reads () =
  (* [W+ R+]: one dep (the run's own last write -> trailing read span) *)
  let r = o1_recorder () in
  access r ~tid:2 ~c:1 Event.Write;  (* clock 1 *)
  access r ~tid:2 ~c:2 Event.Write;  (* clock 2: the referenced write *)
  access r ~tid:2 ~c:3 Event.Read;   (* clock 3 *)
  access r ~tid:2 ~c:4 Event.Read;   (* clock 4 *)
  let log = close r in
  Alcotest.(check int) "no ranges" 0 (Log.n_ranges log);
  match deps log with
  | [ [| _; _; w_t; w_c; w_obs; rf_t; rf_c; rl_c; dep_obs |] ] ->
    Alcotest.(check (pair int int)) "w = own last write" (2, 2) (w_t, w_c);
    Alcotest.(check int) "w stamped at clock 2" 2 w_obs;
    Alcotest.(check (pair int int)) "rf = first read after w" (2, 3) (rf_t, rf_c);
    Alcotest.(check int) "rl = run hi" 4 rl_c;
    Alcotest.(check int) "span stamped at run hi" 4 dep_obs
  | ds -> Alcotest.failf "expected exactly one dep, got %d" (List.length ds)

let test_shape_middle_read () =
  (* a read strictly between two own writes: no single dep carries the
     interval's noninterference constraint — a range record is emitted *)
  let r = o1_recorder () in
  access r ~tid:2 ~c:1 Event.Write;  (* clock 1 *)
  access r ~tid:2 ~c:2 Event.Read;   (* clock 2 *)
  access r ~tid:2 ~c:3 Event.Write;  (* clock 3 *)
  let log = close r in
  Alcotest.(check int) "no deps" 0 (Log.n_deps log);
  match ranges log with
  | [ [| _; _; rt; lo; hi; w_t; _; prefix_reads; has_write; rng_obs; lo_obs; _ |] ] ->
    Alcotest.(check int) "owned by t2" 2 rt;
    Alcotest.(check int) "lo" 1 lo;
    Alcotest.(check int) "hi" 3 hi;
    Alcotest.(check int) "no feeding write (run starts with a write)" (-1) w_t;
    Alcotest.(check int) "no prefix reads" 0 prefix_reads;
    Alcotest.(check int) "has a write" 1 has_write;
    Alcotest.(check int) "lo stamped at clock 1" 1 lo_obs;
    Alcotest.(check int) "hi stamped at clock 3" 3 rng_obs
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
  let b = Log.builder () in
  (* obj fld w_t w_c w_obs rf_t rf_c rl_c dep_obs *)
  Log.add_dep b 3 fx 1 4 2 2 5 7 11;
  Log.add_dep b 3 (-5) (-1) (-1) 0 1 1 1 1;
  (* obj fld rt lo hi w_t w_c prefix_reads has_write rng_obs lo_obs w_obs *)
  Log.add_range b 3 fx 2 6 9 (-1) (-1) 1 0 12 8 0;
  let log =
    {
      (Log.build b ~o1:true ~o2:false) with
      syscalls = [ (1, 0, "@rand", Runtime.Value.VInt 42) ];
      counters = [ (1, 5); (2, 9) ];
    }
  in
  let expected =
    "light-log v3 o1=true o2=false\n\
     F 0 f%20x\n\
     T 1 5\n\
     T 2 9\n\
     D 3/0 1:4 2:5 7 11 2\n\
     D 3/-5 - 1:1 1 1 0\n\
     R 3/0 2 6 9 - true false 12 8 0\n\
     S 1 0 @rand i42\n"
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
  (* [Log.parse] locates the same failures: the line, and the byte offset
     of the token being read *)
  let located what s =
    match Log.parse s with
    | Ok _ -> Alcotest.failf "%s: parsed" what
    | Error (e : Log.error) -> (e.line, e.byte, e.msg)
  in
  let loc3 = Alcotest.(triple int int string) in
  Alcotest.check loc3 "overflow, located" (3, 40, "bad log line: T 1 99999999999999999999999")
    (located "overflow" (hdr ^ "T 1 5\nT 1 99999999999999999999999\n"));
  Alcotest.check loc3 "blank lines counted"
    (5, 40, "bad location (field id 9 not in intern table): 0/9")
    (located "field id" (hdr ^ "\nT 1 5\n\nD 0/9 1:1 2:1 1 2 1\n"));
  Alcotest.check loc3 "a missing token, at the line's end"
    (2, 46, "bad log line: D 0/-3 - 1:1 1 2")
    (located "short D" (hdr ^ "D 0/-3 - 1:1 1 2\n"));
  Alcotest.check loc3 "an extra token" (2, 36, "bad log line: T 1 5 6")
    (located "long T" (hdr ^ "T 1 5 6\n"));
  Alcotest.check loc3 "the header" (1, 0, "bad log header: light-log v3 o1=maybe o2=true")
    (located "header" "light-log v3 o1=maybe o2=true\n");
  Alcotest.check loc3 "a negative source thread" (2, 37, "bad log line: D 0/-3 -1:4 1:1 1 2 0")
    (located "negative tid" (hdr ^ "D 0/-3 -1:4 1:1 1 2 0\n"));
  (* v4: every failure names the header or the offending line *)
  let failure_v4 what s =
    match Epoch.of_string_v4 s with
    | Ok _ -> Alcotest.failf "%s: parsed" what
    | Error (e : Log.error) -> e.msg
  in
  Alcotest.(check string) "v4 header" "bad log header: light-log v4 o1=true o2=false epoch=x"
    (failure_v4 "v4 header" "light-log v4 o1=true o2=false epoch=x\n");
  let v4 ?(pre = "") ?(e = "E 0 0 59 30") ?(rng = "C rng 00")
      ?(obj = "C obj 0 $globals 1 x n") ?(thread = "C thread 1 run 0 0 0 0 0 true 0 1") () =
    String.concat "\n"
      [ "light-log v4 o1=true o2=false epoch=60" ^ pre; e; "C sched 0"; rng; obj;
        thread; "c frame - 1 q6 3 u u u"; "F 4 x"; "T 1 6"; "D 0/4 - 1:1 1 2 0"; "" ]
  in
  Alcotest.(check int) "well-formed v4 parses" 1
    (match Epoch.of_string_v4 (v4 ()) with Ok f -> List.length f.f_chunks | Error _ -> 0);
  Alcotest.(check (option (pair int int))) "v4 errors are located" (Some (2, 45))
    (match Epoch.of_string_v4 (v4 ~e:"E 0 0 5x9 30" ()) with
    | Error e -> Some (e.line, e.byte)
    | Ok _ -> None);
  Alcotest.(check string) "record line before the first E line" "bad log line: T 1 6"
    (failure_v4 "pre-E line" (v4 ~pre:"\nT 1 6" ()));
  Alcotest.(check string) "hex token in a C thread line"
    "bad log line: C thread 0x1 run 0 0 0 0 0 true 0 1"
    (failure_v4 "hex" (v4 ~thread:"C thread 0x1 run 0 0 0 0 0 true 0 1" ()));
  (* the rng token is restored by unmarshalling: anything but even-length
     lowercase hex fails here, located, not in the restore *)
  List.iter
    (fun tok ->
      Alcotest.(check string) ("rng token " ^ tok) ("bad log line: C rng " ^ tok)
        (failure_v4 "rng" (v4 ~rng:("C rng " ^ tok) ())))
    [ "0g"; "000"; "0A"; "00 11" ];
  Alcotest.(check (option (pair int int))) "a bad rng token is located" (Some (4, 67))
    (match Epoch.of_string_v4 (v4 ~rng:"C rng 0z" ()) with
    | Error e -> Some (e.line, e.byte)
    | Ok _ -> None);
  Alcotest.(check string) "C obj field count" "bad log line: C obj 0 $globals 7 x n"
    (failure_v4 "obj count" (v4 ~obj:"C obj 0 $globals 7 x n" ()));
  Alcotest.(check string) "frame count above the frames" "bad log line: F 4 x"
    (failure_v4 "frames over" (v4 ~thread:"C thread 1 run 0 0 0 0 0 true 0 2" ()));
  Alcotest.(check string) "frame count below the frames" "bad log line: c frame - 1 q6 3 u u u"
    (failure_v4 "frames under" (v4 ~thread:"C thread 1 run 0 0 0 0 0 true 0 0" ()));
  Alcotest.(check string) "bad E integer" "bad log line: E 0 0 5x9 30"
    (failure_v4 "E int" (v4 ~e:"E 0 0 5x9 30" ()))

(* Parsing appends each dep and range row in place and copies the rows
   once at the end (into the major heap at these sizes), so the minor words
   per record come from the few T and S lines alone; one boxed value per
   dep or range line would exceed the bound. *)
let test_parse_allocation () =
  List.iter
    (fun name ->
      let bm = Option.get (Workloads.by_name name) in
      let r =
        Light.record ~sched:(Workloads.scheduler ~seed:1 bm) ~seed:1 (Workloads.program bm)
      in
      let txt = Log.to_string r.log and n = Log.num_records r.log in
      if n < 200 then Alcotest.failf "%s: %d records, fewer than 200" name n;
      let w0 = Gc.minor_words () in
      let log = Sys.opaque_identity (Log.of_string txt) in
      let per = (Gc.minor_words () -. w0) /. float n in
      Alcotest.(check int) (name ^ ": every record read") n (Log.num_records log);
      if per > 8. then Alcotest.failf "%s: %.1f minor words per record (%d records)" name per n)
    [
      "dacapo-avrora"; "dacapo-xalan"; "stamp-intruder"; "tomcat-kernel"; "mp-queue"; "mp-fanin";
      "stamp-vacation";
    ]

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
  (* each record appends its row *)
  let dep =
    let* (loc : Loc.t) = loc in
    let* w = opt evt in
    let* rf_t, rf_c = evt in
    let* span = int_range 0 50 in
    let* dep_obs = int_range 0 5000 in
    let* w_obs = int_range 0 5000 in
    let w_t, w_c = Option.value w ~default:(-1, -1) in
    return (fun b -> Log.add_dep b loc.obj loc.fld w_t w_c w_obs rf_t rf_c (rf_c + span) dep_obs)
  in
  let range =
    let* (loc : Loc.t) = loc in
    let* rt = int_range 1 9 in
    let* lo = int_range 1 999 in
    let* span = int_range 0 50 in
    let* w_in = opt evt in
    let* prefix_reads = bool in
    let* has_write = bool in
    let* rng_obs = int_range 0 5000 in
    let* lo_obs = int_range 0 5000 in
    let* w_obs = int_range 0 5000 in
    let w_t, w_c = Option.value w_in ~default:(-1, -1) in
    return (fun b ->
        Log.add_range b loc.obj loc.fld rt lo (lo + span) w_t w_c (Bool.to_int prefix_reads)
          (Bool.to_int has_write) rng_obs lo_obs w_obs)
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
    let b = Log.builder () in
    List.iter (fun add -> add b) (deps @ ranges);
    return { (Log.build b ~o1 ~o2) with syscalls; counters }
  in
  QCheck.make ~print:Log.to_string gen

let prop_random_log_roundtrip =
  QCheck.Test.make ~count:200 ~name:"random logs round-trip (v3)" log_gen
    (fun log -> Log.of_string (Log.to_string log) = log)

(* The v3 text as [string_of_int] and [Printf] write it: the reference
   for the direct writer, which sizes each integer and fills its digits in
   backwards. *)
let reference_to_string (l : Log.t) : string =
  let b = Buffer.create 256 in
  let i = string_of_int in
  let src t c = if t < 0 then "-" else i t ^ ":" ^ i c in
  let flag v = if v <> 0 then "true" else "false" in
  Printf.bprintf b "light-log v3 o1=%b o2=%b\n" l.o1 l.o2;
  (* named fields are numbered in order of first appearance *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (row : int array) ->
      let fld = row.(1) in
      if fld >= 0 && not (Hashtbl.mem seen fld) then begin
        let n = Hashtbl.length seen in
        Hashtbl.add seen fld n;
        Printf.bprintf b "F %s %s\n" (i n) (Log.enc_field (Loc.fld_name fld))
      end)
    (deps l @ ranges l);
  let fld f = i (if f >= 0 then Hashtbl.find seen f else f) in
  List.iter (fun (t, c) -> Printf.bprintf b "T %s %s\n" (i t) (i c)) l.counters;
  List.iter
    (fun d ->
      Printf.bprintf b "D %s/%s %s %s:%s %s %s %s\n" (i d.(0)) (fld d.(1))
        (src d.(Log.d_wt) d.(Log.d_wc))
        (i d.(Log.d_rft)) (i d.(Log.d_rfc)) (i d.(Log.d_rl)) (i d.(Log.d_obs))
        (i d.(Log.d_wobs)))
    (deps l);
  List.iter
    (fun r ->
      Printf.bprintf b "R %s/%s %s %s %s %s %s %s %s %s %s\n" (i r.(0)) (fld r.(1))
        (i r.(Log.r_t)) (i r.(Log.r_lo)) (i r.(Log.r_hi))
        (src r.(Log.r_wt) r.(Log.r_wc))
        (flag r.(Log.r_prefix)) (flag r.(Log.r_write)) (i r.(Log.r_obs))
        (i r.(Log.r_loobs)) (i r.(Log.r_wobs)))
    (ranges l);
  List.iter
    (fun (t, k, n, v) -> Printf.bprintf b "S %s %s %s %s\n" (i t) (i k) n (Log.value_str v))
    l.syscalls;
  Buffer.contents b

(* Integers at the writer's edges: the extremes, every power of ten and
   its predecessor (where the digit count changes), their negations, and
   arbitrary ones. *)
let edge_int : int QCheck.Gen.t =
  let open QCheck.Gen in
  let rec pow10 k = if k = 0 then 1 else 10 * pow10 (k - 1) in
  let tens = List.init 19 pow10 in
  frequency
    [
      (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 1 ]);
      (3, map2 (fun p d -> p - d) (oneofl tens) (int_range 0 1));
      (3, map2 (fun p d -> d - p) (oneofl tens) (int_range 0 1));
      (2, int);
      (2, small_signed_int);
    ]

let nonneg_int : int QCheck.Gen.t = QCheck.Gen.map (fun n -> n land max_int) edge_int

(* Random rows across the whole [int] range: negative object and
   array-element ids, [-1] init sources, and thread ids (which the reader
   requires to be non-negative) up to [max_int]. *)
let wide_log_gen : Log.t QCheck.arbitrary =
  let open QCheck.Gen in
  let fld =
    oneof
      [
        map Loc.fld_of_name (oneofl [ "f"; "count"; "k 1%x"; "x y z" ]);
        map (fun n -> -1 - (n land max_int)) edge_int;
      ]
  in
  let src =
    frequency [ (1, return (-1, -1)); (1, map (fun c -> (-1, c)) edge_int);
                (3, pair nonneg_int edge_int) ]
  in
  let dep =
    let* obj = edge_int and* fld = fld and* w_t, w_c = src and* rf_t = nonneg_int in
    let* rf_c = edge_int and* rl = edge_int and* obs = edge_int and* w_obs = edge_int in
    return (fun b -> Log.add_dep b obj fld w_t w_c w_obs rf_t rf_c rl obs)
  in
  let range =
    let* obj = edge_int and* fld = fld and* rt = edge_int and* lo = edge_int in
    let* hi = edge_int and* w_t, w_c = src and* prefix = int_range 0 1 in
    let* write = int_range 0 1 and* obs = edge_int and* lo_obs = edge_int in
    let* w_obs = edge_int in
    return (fun b -> Log.add_range b obj fld rt lo hi w_t w_c prefix write obs lo_obs w_obs)
  in
  let gen =
    let* deps = list_size (int_range 0 30) dep in
    let* ranges = list_size (int_range 0 30) range in
    let* counters = list_size (int_range 0 4) (pair edge_int edge_int) in
    let* syscalls =
      list_size (int_range 0 3)
        (map2 (fun (t, k) n -> (t, k, "@rand", Runtime.Value.VInt n)) (pair edge_int edge_int)
           edge_int)
    in
    let* o1 = bool and* o2 = bool in
    let b = Log.builder () in
    List.iter (fun add -> add b) (deps @ ranges);
    return { (Log.build b ~o1 ~o2) with syscalls; counters }
  in
  QCheck.make ~print:reference_to_string gen

let prop_writer_reference =
  QCheck.Test.make ~count:300 ~name:"v3 writer = string_of_int reference, re-read identically"
    wide_log_gen (fun log ->
      let txt = Log.to_string log in
      if txt <> reference_to_string log then QCheck.Test.fail_report "writer differs";
      (* the reader's normal form (a [-] source reads back as -1:-1) writes
         the same text *)
      if Log.to_string (Log.of_string txt) <> txt then
        QCheck.Test.fail_report "re-read log writes other bytes";
      true)

(* [Log.add_int], which the v4 snapshot writer also calls, writes what
   [string_of_int] does, one integer at a time and into a growing sink. *)
let prop_add_int =
  QCheck.Test.make ~count:300 ~name:"Log.add_int = string_of_int"
    (QCheck.make ~print:QCheck.Print.(list int) QCheck.Gen.(list_size (int_range 1 40) edge_int))
    (fun ns ->
      let all = Log.sink 0 in
      List.for_all
        (fun n ->
          let one = Log.sink 0 in
          Log.add_int one n;
          Log.add_int all n;
          Log.add_char all ' ';
          Log.contents one = string_of_int n)
        ns
      && Log.contents all = String.concat "" (List.map (fun n -> string_of_int n ^ " ") ns))

(* Once every location has been seen, the access hook allocates nothing,
   in either variant: one probe of the location index finds the last
   write, the open run and the stripe, closing a run reuses its
   descriptor and its thread's prec entry, a v_basic read finds its prec
   entry by a second int probe, and the stripe count moves in place.  The
   accesses are built before the measured pass; the warm-up pass numbers
   the two locations and both threads' prec entries. *)
let test_access_allocation () =
  let la : Loc.t = { obj = 7; fld = 0 } and lb : Loc.t = { obj = 8; fld = -3 } in
  let pass =
    [|
      (1, 1, la, Event.Write); (* switch: closes t2's write-only run *)
      (1, 2, la, Event.Write); (* extend *)
      (2, 1, la, Event.Read);  (* switch: t1's run dropped, t2 reads t1:2 *)
      (2, 2, la, Event.Read);  (* extend *)
      (1, 3, la, Event.Read);  (* switch: t2's reads flush into its prec entry *)
      (1, 4, la, Event.Write); (* extend: R+ W+ *)
      (2, 3, la, Event.Write); (* switch: t1's run closes as one dep *)
      (2, 4, lb, Event.Write);
      (1, 5, lb, Event.Read);  (* switch on the second location *)
      (2, 5, lb, Event.Read);
      (2, 6, la, Event.Write);
    |]
  in
  List.iter
    (fun variant ->
      let f = on_shared (Recorder.create ~variant (Bytes.make 1 Runtime.Plan.m_recorded)) in
      let run_pass () =
        for k = 0 to Array.length pass - 1 do
          let tid, c, (l : Loc.t), kind = pass.(k) in
          f ~tid ~c ~obj:l.obj ~fld:l.fld ~kind ~site:0 ~ghost:Event.NotGhost
        done
      in
      run_pass ();
      let w0 = Gc.minor_words () in
      for _ = 1 to 100 do
        run_pass ()
      done;
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check (float 0.)) (Recorder.variant_name variant ^ ": minor words") 0. words)
    [ Recorder.v_both; Recorder.v_basic ]

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
          Alcotest.test_case "known locations: no allocation per access" `Quick
            test_access_allocation;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "roundtrip" `Quick test_log_roundtrip;
          Alcotest.test_case "tricky values" `Quick test_log_roundtrip_tricky_values;
          Alcotest.test_case "exact bytes pinned" `Quick test_serialization_exact_bytes;
          Alcotest.test_case "malformed logs fail with Failure" `Quick test_log_malformed;
          Alcotest.test_case "parsing allocates <= 8 minor words per record" `Quick
            test_parse_allocation;
          QCheck_alcotest.to_alcotest prop_random_log_roundtrip;
          QCheck_alcotest.to_alcotest prop_writer_reference;
          QCheck_alcotest.to_alcotest prop_add_int;
          QCheck_alcotest.to_alcotest prop_log_wellformed;
        ] );
    ]
