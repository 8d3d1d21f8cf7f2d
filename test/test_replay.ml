(* End-to-end determinism: record -> constraint generation -> IDL solving ->
   gated replay -> Theorem-1 oracle.  This is the repository's core
   correctness property, exercised over a family of programs covering the
   whole feature surface, many schedules, and all recorder variants —
   including regressions for historical soundness bugs. *)

open Light_core
open Runtime

let parse src = Lang.Check.validate_exn (Lang.Parser.parse_program src)

let roundtrip ?(seed = 1) ?(stickiness = 4) ?(variant = Light.v_both) p =
  Light.record_and_replay ~variant ~sched:(Sched.sticky ~seed ~stickiness) p

(* The seeds x variants matrix fans out across the engine's batch driver —
   this both exercises the engine under tier-1 and cuts the suite's
   wall-clock when LIGHT_JOBS > 1.  Failure messages come from job labels,
   so diagnostics are identical for any pool size. *)
let assert_faithful name p ~seeds ~variants =
  Engine.Batch.grid ~variants ~seeds
    ~sched:(fun ~seed -> Sched.sticky ~seed ~stickiness:4)
    ~label:name p
  |> Engine.Batch.roundtrips
  |> List.iter (fun (rt : Engine.Batch.roundtrip) ->
         match rt.rt_result with
         | Error e -> Alcotest.failf "%s: solver: %s" rt.rt_job.label e
         | Ok (r, rr) ->
           (match rr.replay_outcome.status with
           | Interp.AllFinished -> ()
           | Deadlock _ -> Alcotest.failf "%s: replay deadlock" rt.rt_job.label
           | GateStuck _ -> Alcotest.failf "%s: replay gate stuck" rt.rt_job.label
           | StepLimit -> Alcotest.failf "%s: replay step limit" rt.rt_job.label);
           if rr.faithful <> [] then
             Alcotest.failf "%s: %s" rt.rt_job.label (String.concat "; " rr.faithful);
           (* the solved schedule must be a valid linearization of the log *)
           match rr.report.schedule with
           | None -> Alcotest.failf "%s: no schedule" rt.rt_job.label
           | Some sch ->
             (match Validate.check ~zones:true r.log sch with
             | [] -> ()
             | vs ->
               Alcotest.failf "%s: invalid schedule: %s" rt.rt_job.label
                 (String.concat "; " vs)))

let all_variants = [ Light.v_basic; Light.v_o1; Light.v_both ]
let seeds = [ 1; 2; 3; 5; 8; 13 ]

(* ------------------------------------------------------------------ *)
(* Program family                                                      *)
(* ------------------------------------------------------------------ *)

let racy_fields = {|
  global x; global y;
  fn w1() { x = 1; y = x + 1; x = y * 2; }
  fn w2() { x = 5; y = x + 3; x = y * 7; }
  main { x = 0; y = 0; spawn a = w1(); spawn b = w2(); join a; join b; print x; print y; }
|}

let locked_counter = {|
  class C { n; } global c; global l;
  fn w(k) { while (k > 0) { sync (l) { c.n = c.n + 1; } k = k - 1; } }
  main { l = new C; c = new C; c.n = 0;
         spawn a = w(12); spawn b = w(12); join a; join b; print c.n; }
|}

let array_races = {|
  global arr;
  fn m(id, iters) {
    i = 0;
    while (i < iters) { arr[i % 4] = arr[(i + 1) % 4] + id; i = i + 1; }
  }
  main { arr = new[4];
         spawn a = m(1, 6); spawn b = m(2, 6); spawn c = m(3, 6);
         join a; join b; join c;
         x = arr[0] + arr[1] + arr[2] + arr[3]; print x; }
|}

let map_races = {|
  global tbl;
  fn m(id, iters) {
    i = 0;
    while (i < iters) {
      tbl{id % 2} = i;
      has = maphas(tbl, 1 - (id % 2));
      if (has) { w = tbl{1 - (id % 2)}; i = i + w - w; }
      i = i + 1;
    }
  }
  main { tbl = newmap; spawn a = m(1, 6); spawn b = m(2, 6); join a; join b; print 0; }
|}

let wait_notify = {|
  class C { flag; n; } global m;
  fn producer() { sync (m) { m.n = 42; m.flag = 1; notify m; } }
  fn consumer() { sync (m) { while (m.flag == 0) { wait m; } print m.n; } }
  main { m = new C; m.flag = 0; m.n = 0;
         spawn c = consumer(); spawn p = producer(); join c; join p; }
|}

let notifyall_two_waiters = {|
  class C { phase; n; } global m;
  fn waiter() { sync (m) { while (m.phase == 0) { wait m; } m.n = m.n + 1; } }
  main { m = new C; m.phase = 0; m.n = 0;
         spawn w1 = waiter(); spawn w2 = waiter();
         yield; yield;
         sync (m) { m.phase = 1; notifyall m; }
         join w1; join w2; print m.n; }
|}

let syscalls_prog = {|
  class B { n; m; } global shared;
  fn w(id, iters) {
    i = 0;
    while (i < iters) {
      shared.n = shared.n + id;
      t = @time(); r = @rand(10);
      shared.m = t + r;
      i = i + 1;
    }
  }
  main { shared = new B; shared.n = 0; shared.m = 0;
         spawn a = w(1, 6); spawn b = w(2, 6); join a; join b;
         print shared.n; print shared.m; }
|}

let crashing = {|
  class S { valid; data; } global sess; global sink;
  fn invalidate() { sess.data = null; sess.valid = 0; }
  fn access(r) {
    i = 0;
    while (i < r) {
      v = sess.valid;
      if (v == 1) { d = sess.data; x = d.valid; sink.valid = x; }
      i = i + 1;
    }
  }
  main { sess = new S; sink = new S; aux = new S; aux.valid = 9;
         sess.valid = 1; sess.data = aux;
         spawn a = access(4); spawn b = invalidate(); join a; join b; print 1; }
|}

let blind_writes = {|
  global x; global y;
  fn w1() { x = 10; x = 20; y = 1; }      // x=10 is blind if never read
  fn w2() { v = x; y = v; }
  main { x = 0; y = 0; spawn a = w1(); spawn b = w2(); join a; join b; print y; }
|}

let deep_calls = {|
  global acc;
  fn add(v) { acc = acc + v; return acc; }
  fn twice(v) { a = add(v); b = add(v); return a + b; }
  fn w(id) { r = twice(id); return r; }
  main { acc = 0; spawn a = w(3); spawn b = w(5); join a; join b; print acc; }
|}

let family =
  [
    ("racy-fields", racy_fields);
    ("locked-counter", locked_counter);
    ("array-races", array_races);
    ("map-races", map_races);
    ("wait-notify", wait_notify);
    ("notifyall", notifyall_two_waiters);
    ("syscalls", syscalls_prog);
    ("crashing", crashing);
    ("blind-writes", blind_writes);
    ("deep-calls", deep_calls);
  ]

let family_tests =
  List.map
    (fun (name, src) ->
      Alcotest.test_case name `Quick (fun () ->
          assert_faithful name (parse src) ~seeds ~variants:all_variants))
    family

(* ------------------------------------------------------------------ *)
(* Crash reproduction detail                                           *)
(* ------------------------------------------------------------------ *)

let test_crash_site_reproduced () =
  let p = parse crashing in
  let found = ref false in
  for seed = 1 to 40 do
    if not !found then begin
      let sched = Sched.sticky ~seed ~stickiness:2 in
      let r = Light.record ~sched p in
      if r.outcome.crashes <> [] then begin
        found := true;
        match Light.replay r with
        | Error e -> Alcotest.failf "solver: %s" e
        | Ok rr ->
          let key (c : Interp.crash) = (c.tid, c.site, c.c, c.msg) in
          Alcotest.(check bool) "identical crash (thread, site, counter, message)" true
            (List.map key r.outcome.crashes = List.map key rr.replay_outcome.crashes);
          (* a crash on one side only is named by the oracle *)
          let n = List.length r.outcome.crashes in
          let c = List.hd r.outcome.crashes in
          let named ~orig ~rep side =
            [
              Printf.sprintf
                "crashes differ: original %d, replay %d; first only in %s: (%d, %d, %d, %S)"
                orig rep side c.tid c.site c.c c.msg;
            ]
          in
          let matches original replay = Interp.replay_matches ~original ~replay in
          Alcotest.(check (list string)) "a lost crash is named"
            (named ~orig:n ~rep:0 "original")
            (matches r.outcome { rr.replay_outcome with crashes = [] });
          Alcotest.(check (list string)) "an extra crash is named"
            (named ~orig:0 ~rep:n "replay")
            (matches { r.outcome with crashes = [] } rr.replay_outcome);
          Alcotest.(check (list string)) "a changed message is named"
            (named ~orig:n ~rep:n "original")
            (matches r.outcome
               { rr.replay_outcome with
                 crashes = { c with msg = "other" } :: List.tl rr.replay_outcome.crashes })
      end
    end
  done;
  Alcotest.(check bool) "a crashing schedule was found" true !found

(* ------------------------------------------------------------------ *)
(* Constraint generation (Section 4.2 worked example)                  *)
(* ------------------------------------------------------------------ *)

(* A log's rows, one array each: its deps ([obj fld w_t w_c w_obs rf_t
   rf_c rl_c dep_obs]) and its ranges ([obj fld rt lo hi w_t w_c
   prefix_reads has_write rng_obs lo_obs w_obs]). *)
let rows (a : int array) (width : int) : int array list =
  List.init (Array.length a / width) (fun k -> Array.sub a (k * width) width)

let deps (log : Log.t) = rows log.deps Log.dep_width
let ranges (log : Log.t) = rows log.ranges Log.range_width

(* a log of the rows the functions in [adds] append, in order *)
let log_of (adds : (Log.builder -> unit) list) : Log.t =
  let b = Log.builder () in
  List.iter (fun add -> add b) adds;
  Log.build b ~o1:false ~o2:false

let test_constraints_shape () =
  let p = parse racy_fields in
  let r = Light.record ~variant:Light.v_basic ~sched:(Sched.sticky ~seed:1 ~stickiness:4) p in
  let cs = Light_core.Constraints.generate r.log in
  Alcotest.(check bool) "has variables" true (cs.problem.nvars > 0);
  Alcotest.(check bool) "has hard atoms" true (cs.n_hard > 0);
  (* every interval endpoint has a variable *)
  let has_var e = Light_core.Constraints.var_of cs e <> None in
  let tb = cs.table in
  Array.iter
    (fun k ->
      Alcotest.(check bool) "start var" true (has_var (tb.tid.(k), tb.lo.(k)));
      Alcotest.(check bool) "end var" true (has_var (tb.tid.(k), tb.hi.(k))))
    tb.order

let test_schedule_respects_deps () =
  let p = parse racy_fields in
  let r = Light.record ~variant:Light.v_basic ~sched:(Sched.sticky ~seed:2 ~stickiness:4) p in
  let report = Light_core.Replayer.solve r.log in
  match report.schedule with
  | None -> Alcotest.fail "unsat"
  | Some sch ->
    let rank = Replayer.rank sch in
    List.iter
      (fun d ->
        if d.(Log.d_wt) >= 0 then
          match rank (d.(Log.d_wt), d.(Log.d_wc)), rank (d.(Log.d_rft), d.(Log.d_rfc)) with
          | Some rw, Some rr -> Alcotest.(check bool) "write before read" true (rw < rr)
          | _ -> Alcotest.fail "dep endpoints unranked")
      (deps r.log)

(* ------------------------------------------------------------------ *)
(* Feasibility under replay of larger mixes                             *)
(* ------------------------------------------------------------------ *)

let torture = {|
  class Node { v; next; }
  class Box { n; m; }
  global shared; global arr; global tbl; global lk; global phase;
  fn mixer(id, iters) {
    local = new Box;
    local.n = id;
    i = 0;
    while (i < iters) {
      shared.n = shared.n + id;
      v = shared.m;
      if (v == null) { shared.m = id * 10; }
      arr[i % 4] = arr[(i + 1) % 4] + id;
      tbl{id % 2} = i;
      has = maphas(tbl, 1 - (id % 2));
      if (has) { w = tbl{1 - (id % 2)}; local.n = local.n + w; }
      sync (lk) { lk.n = lk.n + 1; sync (lk) { lk.m = lk.n * 2; } }
      t = @time(); r = @rand(10);
      local.n = local.n + t + r;
      i = i + 1;
    }
    return local.n;
  }
  fn waiter() {
    sync (lk) { while (phase == 0) { wait lk; } }
    shared.n = shared.n * 2;
  }
  main {
    shared = new Box; shared.n = 0; shared.m = null;
    arr = new[4]; tbl = newmap;
    lk = new Box; lk.n = 0; lk.m = 0; phase = 0;
    spawn w1 = waiter(); spawn w2 = waiter();
    spawn m1 = mixer(1, 8); spawn m2 = mixer(2, 8); spawn m3 = mixer(3, 8);
    join m1; join m2; join m3;
    sync (lk) { phase = 1; notifyall lk; }
    join w1; join w2;
    print shared.n; print lk.m;
    x = arr[0] + arr[1] + arr[2] + arr[3]; print x;
  }
|}

let test_torture () =
  assert_faithful "torture" (parse torture) ~seeds:[ 1; 2; 3; 4; 5 ]
    ~variants:all_variants

(* qcheck: determinism across random (seed, stickiness, variant, program) *)
let config_gen =
  QCheck.make
    ~print:(fun (name, s, k, v) ->
      Printf.sprintf "%s seed=%d stick=%d %s" name s k (Recorder.variant_name v))
    QCheck.Gen.(
      let progs = List.map fst family in
      oneofl progs >>= fun name ->
      triple (int_range 1 200) (int_range 1 16)
        (oneofl [ Light.v_basic; Light.v_o1; Light.v_both ])
      >>= fun (s, k, v) -> return (name, s, k, v))

let prop_replay_faithful =
  QCheck.Test.make ~count:120 ~name:"replay faithful for random configurations" config_gen
    (fun (name, seed, stickiness, variant) ->
      let p = parse (List.assoc name family) in
      match roundtrip ~seed ~stickiness ~variant p with
      | Error _ -> false
      | Ok (r, rr) ->
        rr.faithful = []
        && rr.replay_outcome.status = Interp.AllFinished
        && (match rr.report.schedule with
           | Some sch -> Validate.check ~zones:true r.log sch = []
           | None -> false))

(* ------------------------------------------------------------------ *)
(* Pruned generation vs the naive pairwise oracle                       *)
(* ------------------------------------------------------------------ *)

(* Random bounded synthetic logs, unconstrained by recorder invariants:
   overlapping and nested intervals, dangling sources, self-feeding
   writes, and unsatisfiable tangles all appear, exercising both
   directions of the equisatisfiability claim (see constraints.ml,
   "Pruning").  Both generators assign variable indices by the same
   interval scan, so a model of one problem can be evaluated directly
   against the other. *)
let synth_log_gen =
  QCheck.Gen.(
    let evt = pair (int_range 0 2) (int_range 0 6) in
    let loc_g = map (fun o -> Runtime.Loc.field o "f") (int_range 0 2) in
    let dep_g =
      loc_g >>= fun (loc : Loc.t) ->
      opt evt >>= fun w ->
      evt >>= fun (rf_t, rf_c) ->
      int_range 0 2 >>= fun span ->
      int_range 0 40 >>= fun dep_obs ->
      int_range 0 40 >>= fun w_obs ->
      let w_t, w_c = Option.value w ~default:(-1, -1) in
      return (fun b ->
          Log.add_dep b loc.obj loc.fld w_t w_c w_obs rf_t rf_c (rf_c + span) dep_obs)
    in
    let range_g =
      loc_g >>= fun (loc : Loc.t) ->
      int_range 0 2 >>= fun rt ->
      int_range 0 5 >>= fun lo ->
      int_range 0 3 >>= fun span ->
      opt evt >>= fun w_in ->
      bool >>= fun prefix_reads ->
      bool >>= fun has_write ->
      int_range 0 40 >>= fun rng_obs ->
      int_range 0 40 >>= fun lo_obs ->
      int_range 0 40 >>= fun w_obs ->
      let w_t, w_c = Option.value w_in ~default:(-1, -1) in
      return (fun b ->
          Log.add_range b loc.obj loc.fld rt lo (lo + span) w_t w_c (Bool.to_int prefix_reads)
            (Bool.to_int has_write) rng_obs lo_obs w_obs)
    in
    pair (list_size (int_range 0 5) dep_g) (list_size (int_range 0 4) range_g)
    >>= fun (deps, ranges) -> return (log_of (deps @ ranges)))

let sat_in (p : Dlsolver.Idl.problem) (m : int array) =
  List.for_all (fun (a : Dlsolver.Idl.atom) -> m.(a.u) - m.(a.v) <= a.k) p.hard
  && Array.for_all
       (fun cl ->
         Array.exists (fun (a : Dlsolver.Idl.atom) -> m.(a.u) - m.(a.v) <= a.k) cl)
       p.clauses

let prop_pruned_equisat =
  QCheck.Test.make ~count:400
    ~name:"pruned constraint generation equisatisfiable with the naive oracle"
    (QCheck.make ~print:Log.to_string synth_log_gen)
    (fun log ->
      let pruned = Constraints.generate log in
      let naive = Constraints.generate ~naive:true log in
      let budget =
        { Dlsolver.Idl.max_backtracks = 100_000; max_conflicts = max_int; max_time_s = 10.0 }
      in
      match
        ( Dlsolver.Idl.solve ~budget ?hint:pruned.hint pruned.problem,
          Dlsolver.Idl.solve ~budget ?hint:naive.hint naive.problem )
      with
      | Sat (m, _), Sat _ ->
        (* stronger than sat-agreement: the pruned model must satisfy the
           naive system verbatim (every dropped clause was entailed), and
           the schedule built from it must validate against the log *)
        sat_in naive.problem m
        && Validate.check ~zones:true log (Replayer.build_schedule log pruned m) = []
      | Unsat _, Unsat _ -> true
      | Aborted _, _ | _, Aborted _ -> QCheck.assume_fail ()
      | _ -> false)

(* An interval of the constraint table, as a value. *)
type iv = {
  iv_loc : Loc.t;
  start_e : Log.evt;
  end_e : Log.evt;
  writes : bool;
  reads : bool;
  src : Log.evt option option;
      (** [None]: no incoming dependence; [Some None]: virtual init write;
          [Some (Some w)]: recorded write *)
  obs : int;
  src_obs : int;
}

(* The table's live rows: the recorded intervals in log order, then the
   live singletons by location in reverse [Loc.Map] order, each location's
   by the log position of the last interval naming the write (the order
   the list-based view listed them in). *)
let table_intervals (log : Log.t) : iv list =
  let tb = Constraints.table_of_log log in
  let has = Constraints.has tb in
  let of_row k =
    let recorded = k < tb.n_base in
    {
      iv_loc = tb.locs.(tb.grank.(k));
      start_e = (tb.tid.(k), tb.lo.(k));
      end_e = (tb.tid.(k), tb.hi.(k));
      writes = has k Constraints.f_writes;
      reads = has k Constraints.f_reads;
      src =
        (if not (recorded && has k Constraints.f_sourced) then None
         else if tb.src.(k) >= 0 then Some (Some (tb.et.(tb.src.(k)), tb.ec.(tb.src.(k))))
         else Some None);
      obs = tb.obs.(k);
      src_obs = (if recorded then tb.src_obs.(k) else 0);
    }
  in
  let m = Array.length tb.tid in
  let singletons =
    List.init (m - tb.n_base) (fun i -> m - 1 - i)
    |> List.filter (fun k -> has k Constraints.f_writes)
  in
  List.init tb.n_base of_row
  @ List.map of_row (List.stable_sort (fun a b -> compare tb.grank.(b) tb.grank.(a)) singletons)

(* The singleton materialization as it was first written: a list scan of
   the location's intervals per source write, grouped through [Loc.Map]. *)
let reference_intervals (log : Log.t) : iv list =
  let loc row = { Loc.obj = row.(0); fld = row.(1) } in
  let src row wt wc = if row.(wt) < 0 then None else Some (row.(wt), row.(wc)) in
  let base =
    List.map
      (fun d ->
        {
          iv_loc = loc d;
          start_e = (d.(Log.d_rft), d.(Log.d_rfc));
          end_e = (d.(Log.d_rft), d.(Log.d_rl));
          writes = false;
          reads = true;
          src = Some (src d Log.d_wt Log.d_wc);
          obs = d.(Log.d_obs);
          src_obs = d.(Log.d_wobs);
        })
      (deps log)
    @ List.map
        (fun r ->
          {
            iv_loc = loc r;
            start_e = (r.(Log.r_t), r.(Log.r_lo));
            end_e = (r.(Log.r_t), r.(Log.r_hi));
            writes = r.(Log.r_write) <> 0;
            reads = true;
            src = (if r.(Log.r_prefix) <> 0 then Some (src r Log.r_wt Log.r_wc) else None);
            obs = r.(Log.r_obs);
            src_obs = r.(Log.r_wobs);
          })
        (ranges log)
  in
  let by_loc =
    List.fold_left
      (fun m (iv : iv) ->
        Loc.Map.update iv.iv_loc (fun p -> Some (iv :: Option.value ~default:[] p)) m)
      Loc.Map.empty base
  in
  let singletons =
    Loc.Map.fold
      (fun loc ivs acc ->
        let covered (t, c) =
          List.exists
            (fun (iv : iv) -> fst iv.start_e = t && snd iv.start_e <= c && c <= snd iv.end_e)
            ivs
        in
        let seen = Hashtbl.create 8 in
        List.fold_left
          (fun acc (iv : iv) ->
            match iv.src with
            | Some (Some w) when not (Hashtbl.mem seen w || covered w) ->
              Hashtbl.add seen w ();
              {
                iv_loc = loc;
                start_e = w;
                end_e = w;
                writes = true;
                reads = false;
                src = None;
                obs = iv.src_obs;
                src_obs = 0;
              }
              :: acc
            | _ -> acc)
          acc ivs)
      by_loc []
  in
  base @ singletons

let prop_intervals_reference =
  QCheck.Test.make ~count:400 ~name:"table rows = list-scan reference"
    (QCheck.make ~print:Log.to_string synth_log_gen)
    (fun log -> table_intervals log = reference_intervals log)

(* [var_of] finds a variable exactly where [evts] has its event, with and
   without an extra event; the grid covers every event the synthetic logs
   can name and some they cannot, so unreferenced events meet [None]. *)
let prop_var_of =
  QCheck.Test.make ~count:400 ~name:"var_of cs e = Some v iff cs.evts.(v) = e"
    (QCheck.make ~print:Log.to_string synth_log_gen)
    (fun log ->
      List.for_all
        (fun extra_events ->
          let cs = Constraints.generate ~extra_events log in
          let var = Hashtbl.create 16 in
          Array.iteri (fun v e -> Hashtbl.replace var e v) cs.evts;
          Hashtbl.length var = Array.length cs.evts
          && List.for_all
               (fun t ->
                 List.for_all
                   (fun c ->
                     Constraints.var_of cs (t, c) = Hashtbl.find_opt var (t, c))
                   (List.init 13 (fun c -> c - 1)))
               (List.init 5 (fun t -> t - 1)))
        [ []; [ (3, 4) ] ])

(* The thread-chain order is derived from [Hashtbl.hash]'s bucket
   positions; the generator's own copy of the hash must agree with it. *)
let prop_stdhash =
  QCheck.Test.make ~count:1000 ~name:"Stdhash = Hashtbl.hash on ints and int pairs"
    QCheck.(
      pair
        (oneof [ small_signed_int; int ])
        (oneof [ small_signed_int; int; always min_int; always max_int ]))
    (fun (a, b) ->
      Constraints.Stdhash.int a = Hashtbl.hash a
      && Constraints.Stdhash.int b = Hashtbl.hash b
      && Constraints.Stdhash.pair a b = Hashtbl.hash (a, b))

(* Locations whose name order differs from their id order: array elements
   past #9 ("#10" < "#9"), ghosts ("$lock", "$cond", "$thread"), globals
   and fields of several objects. *)
let loc_gen =
  QCheck.Gen.(
    int_range 0 3 >>= fun o ->
    oneof
      [
        map (fun i -> Loc.elem o i) (int_range 0 25);
        map (fun f -> Loc.field o f) (oneofl [ "a"; "b"; "len"; "next"; "x" ]);
        return (Loc.lock_ghost o);
        return (Loc.cond_ghost o);
        return (Loc.thread_ghost o);
        map Loc.global (oneofl [ "g"; "h" ]);
      ])

(* One dep per location, reading the initial value (so no singleton
   joins): [Constraints.location_rows] groups the rows by location in
   [Loc.Map] order, each group in reverse log order. *)
let prop_by_location_order =
  QCheck.Test.make ~count:400 ~name:"location_rows groups in Loc.Map order"
    QCheck.(
      make
        ~print:(fun ls -> String.concat " " (List.map Loc.to_string ls))
        Gen.(list_size (int_range 0 40) loc_gen))
    (fun locs ->
      let log =
        log_of
          (List.mapi
             (fun k (l : Loc.t) b -> Log.add_dep b l.obj l.fld (-1) (-1) 0 0 k k k)
             locs)
      in
      let tb = Constraints.table_of_log log in
      let reference =
        List.fold_left
          (fun m (k, l) -> Loc.Map.update l (fun p -> Some (k :: Option.value ~default:[] p)) m)
          Loc.Map.empty
          (List.mapi (fun k l -> (k, l)) locs)
        |> Loc.Map.bindings
      in
      Array.to_list (Array.mapi (fun g rows -> (tb.locs.(g), rows)) (Constraints.location_rows tb))
      = reference)

(* ------------------------------------------------------------------ *)
(* Pinned replay admission                                              *)
(* ------------------------------------------------------------------ *)

open Replay_fp

let solved (r : Light.recording) =
  match (Replayer.solve r.log).schedule with
  | Some sch -> sch
  | None -> Alcotest.fail "unsat"

(* the 28 workloads at scale 1 and seed 1, then the 8 Figure-6 bugs under
   their triggering schedule; [only] picks workloads by name *)
let pinned_recordings ?(only = fun _ -> true) () =
  List.filter_map
    (fun (bm : Workloads.benchmark) ->
      if not (only bm.name) then None
      else
        Some
          ( bm.name,
            Light.record ~sched:(Workloads.scheduler ~seed:1 bm) ~seed:1
              (Workloads.program bm) ))
    Workloads.all
  @ List.map
      (fun (b : Bugs.Defs.bug) ->
        let p = Bugs.Defs.program_of b () in
        match Bugs.Harness.find_trigger p with
        | Some tr -> (b.name, Light.record ~sched:(tr.make_sched ()) p)
        | None -> Alcotest.failf "%s: no trigger" b.name)
      Bugs.Defs.all

let epoch_steps name =
  let bm = Option.get (Workloads.by_name name) in
  let pp = Light.prepare (Workloads.program bm) in
  let r =
    Epoch.record_epochs ~sched:(Workloads.scheduler ~seed:3 bm) ~seed:3 ~epoch_len:400 pp
  in
  List.mapi
    (fun k ck ->
      match Epoch.replay_chunk pp ck with
      | Ok rr -> Printf.sprintf "%d:%s" rr.rr_steps (status_str rr.rr_status)
      | Error e -> Alcotest.failf "%s: epoch %d: %s" name k e)
    r.er_file.f_chunks

(* Swap the solved ranks of main's spawn write for thread 101 and that
   thread's first constrained event: the child is then due before it
   exists, so the gate must stall.  Returns the run, the swapped schedule,
   the spawn write and the child's event. *)
let inverted_replay engine =
  let p = parse racy_fields in
  let r = Light.record ~variant:Light.v_basic ~sched:(Sched.sticky ~seed:1 ~stickiness:4) p in
  let cs = Constraints.generate r.log in
  match Dlsolver.Idl.solve ?hint:cs.hint cs.problem with
  | Sat (model, _) ->
    let order = (Replayer.build_schedule r.log cs model).order in
    let child = Array.find_opt (fun (t, _) -> t = 101) order |> Option.get in
    let spawn =
      List.find_map
        (fun d ->
          if (d.(Log.d_rft), d.(Log.d_rfc)) = child && d.(Log.d_wt) >= 0 then
            Some (d.(Log.d_wt), d.(Log.d_wc))
          else None)
        (deps r.log)
      |> Option.get
    in
    let var e = Option.get (Constraints.var_of cs e) in
    let m = Array.copy model in
    m.(var child) <- model.(var spawn);
    m.(var spawn) <- model.(var child);
    let sch = Replayer.build_schedule r.log cs m in
    (gated_run engine p ~plan:r.plan sch, sch, spawn, child)
  | _ -> Alcotest.fail "unsat"

(* Reference fingerprints of the replay runs above.  A change to the gate
   or to the engines' enabledness bookkeeping must admit the same runnable
   set at every step, so it must reproduce them exactly on both engines. *)
let pinned_replays =
  [
    ("jgf-series", "33898 done a539464c1bc893795a0e604ae30d6215");
    ("jgf-crypt", "24682 done 8c4b38818978c316b2449da65e0a9298");
    ("jgf-sparse", "20074 done a0dcd19cdcf22f12d7602ba940bc3562");
    ("stamp-bayes", "23914 done 5fa8e4f2d2466ae87a3108d1dfa63dd1");
    ("stamp-genome", "19687 done bc266863413848f376375acbf79a2f90");
    ("stamp-intruder", "13930 done 0299b115a7060332164f92bc3cf1010f");
    ("stamp-kmeans", "25834 done 6f63a17ec1e90c95de38beeb72ee40a4");
    ("stamp-labyrinth", "32362 done 67bdb20e7b6ac807bfa9076658937fe3");
    ("stamp-ssca2", "17770 done 3678aa3754363a9b87a7acb73e9f7df3");
    ("stamp-vacation", "22764 done b490fb736df946da1ecfa965596272f8");
    ("stamp-yada", "15850 done 2f7530deec0a2e1b089f6dfbe9376362");
    ("cache4j", "16618 done b1902d2b4e73668e82e27faff9469f27");
    ("ftpserver", "18894 done 3a9676d421ed101519a643875a7534e2");
    ("weblech", "19305 done 7b5bcbbab03cfe58990f526b009f8018");
    ("hedc", "19682 done bdbcd5f33f7544c1fcef3bc64b39f387");
    ("tomcat-kernel", "23534 done c9155a425c4b3f57a8839b87238f6103");
    ("jigsaw", "19690 done fb4ae086c704e9564fc4f0f0ef766724");
    ("openjms", "21232 done b363c11b19ea9fef1458c6c47ffdfcc9");
    ("dacapo-avrora", "12778 done 2ca657be388e0969ba7d25f7f2838278");
    ("dacapo-h2", "24685 done 797e33e32354e0af5b0453024aa8a474");
    ("dacapo-lusearch", "20458 done aae08951996ff788a32ff3d8027a6741");
    ("dacapo-luindex", "20458 done 25013144e642ab7faa91f542ea13c345");
    ("dacapo-sunflow", "32362 done 4211e62ee7ae4b1e590c02ded8ae720a");
    ("dacapo-xalan", "12778 done 8fe0b26aa444db0d40467ada708daa74");
    ("mp-queue", "4429 done f9225732d06914322903714ce402e37e");
    ("mp-pipeline", "4878 done efb642376b519a56c18fe787e9a00f15");
    ("mp-fanin", "5035 done e311fb1dc1a9103dae16b1bdf16848a5");
    ("mp-barrier", "6146 done a93c3ff995a8e09287d9c086bd638f26");
    ("Cache4j", "98 done bec6b44b6f49286a6a22ed5d0de2da33");
    ("Ftpserver", "48 done 24da50ed20fe2944ea8ad45c8437cd4b");
    ("Lucene-481", "51 done b2c12fdbb91a3144c1cb1e6ecb843bc9");
    ("Lucene-651", "108 done 9f6ff185230ebded984cb73f928f3dfd");
    ("Tomcat-37458", "33 done d99ac3b199ff5762baa4fdd9759ddeb6");
    ("Tomcat-50885", "55 done f45076471be865acac3b949fce8a4b3a");
    ("Tomcat-53498", "91 done 2093a1b20dfc653b7a06990b1237acbe");
    ("Weblech", "43 done 8af2d5ad9da51dcd08c0b39b2312ee88");
  ]

let pinned_epochs =
  [
    ( "mp-queue",
      [
        "400:stuck101,103,104,105,106,107,108"; "400:stuck101,104,105,106,108";
        "401:stuck101,102,105,107,108"; "402:stuck101,105,107";
        "400:stuck101,102,103,104,105,107,108"; "400:stuck103,108";
        "400:stuck101,102,104,105,108"; "400:stuck101,102,104";
        "401:stuck101,102,103,104,105,108"; "400:stuck1,103,105,106,107,108";
        "400:stuck1"; "8:done";
      ] );
    ( "mp-barrier",
      [
        "406:stuck102,104,105,106,107,108"; "406:stuck101,102,103,104,105,107";
        "400:stuck103,104"; "400:stuck101,102";
        "403:stuck101,102,104,105,106,107"; "401:stuck106";
        "402:stuck102,103,104,108"; "401:stuck101,102,104,105,106,107,108";
        "402:stuck106,108"; "400:stuck101,103,104,106";
        "400:stuck101,102,103,104,105,108"; "402:stuck105,108";
        "400:stuck102,105,106"; "403:stuck101,103,104,105,106,107,108";
        "401:stuck106,108"; "146:done";
      ] );
  ]

let test_pinned_replays () =
  List.iter
    (fun (name, (r : Light.recording)) ->
      let sch = solved r in
      List.iter
        (fun engine ->
          Alcotest.(check string)
            (name ^ "/" ^ Vm.engine_name engine)
            (List.assoc name pinned_replays)
            (fingerprint (gated_run engine r.program ~plan:r.plan sch)))
        [ Vm.Tree; Vm.Bytecode ])
    (pinned_recordings ())

let test_pinned_epochs () =
  List.iter
    (fun (name, steps) -> Alcotest.(check (list string)) name steps (epoch_steps name))
    pinned_epochs

(* The stalled main thread waits at its spawn write, whose turn comes only
   after the child's event that the cursor can never pass. *)
let test_inverted_order_stuck () =
  List.iter
    (fun engine ->
      let tag = Vm.engine_name engine in
      let o, sch, spawn, child = inverted_replay engine in
      Alcotest.(check string) tag "2 stuck1 d41d8cd98f00b204e9800998ecf8427e" (fingerprint o);
      let c = List.assoc 1 o.counters + 1 in
      let k = Replayer.wait_rank sch ~tid:1 ~c in
      Alcotest.(check (pair int int)) (tag ^ ": main waits at its spawn write") spawn sch.order.(k);
      Alcotest.(check (option int)) (tag ^ ": the spawn's own rank") (Some k) (Replayer.rank sch spawn);
      Alcotest.(check bool) (tag ^ ": the child's event ranks first") true
        (Option.get (Replayer.rank sch child) < k);
      Alcotest.(check string) (tag ^ ": named")
        (Printf.sprintf "thread 1 waits at counter %d for rank %d: event (1,%d)" c k c)
        (Replayer.describe_wait sch ~tid:1 ~c);
      Alcotest.(check (option string)) (tag ^ ": the cursor's holder, never spawned")
        (Some "cursor held at rank 0 by event (101,1): thread 101 stopped at counter 0")
        (Replayer.describe_cursor sch ~counters:o.counters))
    [ Vm.Tree; Vm.Bytecode ]

(* The rank protocol: the VM asks [wait] about a pending access [(tid, c)]
   once, so a gated run makes at most one call per executed shared access
   plus one per thread (the access it ends on or waits at).  A counting
   wrapper over [Replayer.wait_rank] ([on_shared] counts the accesses: it
   fires on every one) changes no answer, so the pinned fingerprints hold
   on both engines. *)
let contended = [ "dacapo-avrora"; "dacapo-xalan"; "stamp-vacation"; "mp-queue"; "mp-barrier" ]

let test_rank_protocol () =
  List.iter
    (fun (name, (r : Light.recording)) ->
      let sch = solved r in
      List.iter
        (fun engine ->
          let tag = name ^ "/" ^ Vm.engine_name engine in
          let calls = ref 0 and accesses = ref 0 in
          let asked : (int * int, unit) Hashtbl.t = Hashtbl.create 1024 in
          let wrap (h : Interp.hooks) =
            match h.gate, h.on_shared with
            | Some (Rank r), Some on_shared ->
              let wait ~tid ~c =
                incr calls;
                if engine = Vm.Bytecode && Hashtbl.mem asked (tid, c) then
                  Alcotest.failf "%s: (%d,%d) asked twice" tag tid c;
                Hashtbl.replace asked (tid, c) ();
                let w = r.wait ~tid ~c in
                if w <> Replayer.wait_rank sch ~tid ~c then
                  Alcotest.failf "%s: the driver's wait is not wait_rank" tag;
                w
              in
              let on_shared ~tid ~c ~obj ~fld ~kind ~site ~ghost =
                incr accesses;
                on_shared ~tid ~c ~obj ~fld ~kind ~site ~ghost
              in
              { h with gate = Some (Rank { r with wait }); on_shared = Some on_shared }
            | _ -> Alcotest.failf "%s: the driver's gate is not a rank gate" tag
          in
          let o = gated_run ~wrap engine r.program ~plan:r.plan sch in
          Alcotest.(check string) tag (List.assoc name pinned_replays) (fingerprint o);
          let bound = !accesses + List.length o.counters in
          if engine = Vm.Bytecode && !calls > bound then
            Alcotest.failf "%s: %d wait_rank calls > %d accesses + threads" tag !calls bound)
        [ Vm.Tree; Vm.Bytecode ])
    (pinned_recordings ~only:(fun n -> List.mem n contended) ())

(* The pick belongs to the gate: a rank-gated VM run picks round-robin
   among the admitted threads and never asks the scheduler it is given,
   so a random scheduler replays to the pinned fingerprints too. *)
let test_vm_gated_pick () =
  List.iter
    (fun (name, (r : Light.recording)) ->
      let sch = solved r in
      List.iter
        (fun seed ->
          let o =
            Vm.run ~hooks:(Replayer.driver sch ~plan:r.plan) ~plan:r.plan ~collect_trace:true
              ~max_steps:10_000_000 ~sched:(Sched.random ~seed) r.program
          in
          Alcotest.(check string)
            (Printf.sprintf "%s/random(%d)" name seed)
            (List.assoc name pinned_replays) (fingerprint o))
        [ 1; 7 ])
    (pinned_recordings ~only:(fun n -> List.mem n contended) ())

(* The tree walker picks as the VM does: given a random scheduler, a
   rank-gated replay of stamp-vacation steps the same interleaving on both
   engines, the pinned one. *)
let test_tree_gated_pick () =
  let name = "stamp-vacation" in
  let r = List.assoc name (pinned_recordings ~only:(String.equal name) ()) in
  let sch = solved r in
  let fp engine =
    fingerprint (gated_run ~sched:(Sched.random ~seed:1) engine r.program ~plan:r.plan sch)
  in
  let tree = fp Vm.Tree in
  Alcotest.(check string) "tree walker = VM" (fp Vm.Bytecode) tree;
  Alcotest.(check string) "pinned" (List.assoc name pinned_replays) tree

(* The VM admits by rank only: a predicate gate, which the baselines'
   replays need, is refused before the run starts. *)
let test_vm_rejects_pred () =
  let p = parse racy_fields in
  let hooks = { Interp.default_hooks with gate = Some (Pred (fun _ -> true)) } in
  match Vm.run ~hooks ~sched:(Sched.round_robin ()) p with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "Vm.run ran a Pred gate"

(* Allocation of a gated VM step against an ungated round-robin one, on
   the same program and plan, for every workload: minor-heap words are
   deterministic for a given run, so the bound is exact, not a timing.
   Neither engine builds a [Loc.t] to call the access hook, so the
   worst rows are dacapo-avrora at 1.08x and dacapo-xalan at 1.08x.  The
   driver is built outside the measured run. *)
let test_replay_alloc () =
  List.iter
    (fun name ->
      let bm = Option.get (Workloads.by_name name) in
      let p = Workloads.program ~scale:1 bm in
      let r = Light.record ~sched:(Workloads.scheduler ~seed:1 bm) ~seed:1 p in
      let bp = Lang.Compile.lower (Interp.compile p) in
      let words_per_step hooks =
        let w0 = Gc.minor_words () in
        let o =
          Vm.run_program ?hooks ~plan:r.plan ~max_steps:10_000_000
            ~sched:(Sched.round_robin ()) bp
        in
        (Gc.minor_words () -. w0) /. float_of_int o.steps
      in
      let ungated = words_per_step None in
      let hooks = Replayer.driver (solved r) ~plan:r.plan in
      let gated = words_per_step (Some hooks) in
      if gated > 1.15 *. ungated then
        Alcotest.failf "%s: gated replay %.1f words/step > 1.15 x ungated %.1f" name gated
          ungated)
    (List.map (fun (bm : Workloads.benchmark) -> bm.name) Workloads.all)

(* One thread changing another's status or enabledness while the other
   waits: a notify and unlock moving a waiter InWait -> Notified ->
   Reacquiring, a lock release unblocking a contender, a child's exit
   releasing a join.  Each program must replay faithfully whichever engine
   recorded or replays it. *)
let lock_handoff = {|
  class C { n; } global l; global c;
  fn holder() { sync (l) { i = 0; while (i < 6) { c.n = c.n + 1; i = i + 1; } } }
  fn contender() { sync (l) { c.n = c.n * 2; } }
  main { l = new C; c = new C; c.n = 0;
         spawn a = holder(); spawn b = contender(); join a; join b; print c.n; }
|}

let spawn_join = {|
  global x;
  fn child(k) { while (k > 0) { x = x + k; k = k - 1; } }
  main { x = 0; spawn a = child(3); join a; spawn b = child(2); v = x; join b; print v; print x; }
|}

let test_cache_edges () =
  List.iter
    (fun (name, src, ghost) ->
      let p = parse src in
      let seen = ref false in
      List.iter
        (fun seed ->
          List.iter
            (fun rec_engine ->
              let r =
                Light.record ~engine:rec_engine ~sched:(Sched.sticky ~seed ~stickiness:2) p
              in
              let sch = solved r in
              List.iter
                (fun engine ->
                  let o = gated_run engine p ~plan:r.plan sch in
                  let tag =
                    Printf.sprintf "%s seed=%d %s->%s" name seed
                      (Vm.engine_name rec_engine) (Vm.engine_name engine)
                  in
                  Alcotest.(check string) (tag ^ ": status") "done" (status_str o.status);
                  Alcotest.(check (list string)) (tag ^ ": faithful") []
                    (Interp.replay_matches ~original:r.outcome ~replay:o);
                  if List.exists (fun (a : Event.access) -> a.ghost = ghost) o.trace then
                    seen := true)
                [ Vm.Tree; Vm.Bytecode ])
            [ Vm.Tree; Vm.Bytecode ])
        [ 1; 2; 3; 4; 5; 6 ];
      Alcotest.(check bool) (name ^ ": path exercised") true !seen)
    [
      ("wait-notify", wait_notify, Event.WaitReacqRead);
      ("lock-handoff", lock_handoff, Event.LockAcqRead);
      ("spawn-join", spawn_join, Event.JoinRead);
    ]

(* The VM's gated loop keeps the enabled set across steps and re-filters
   it through the gate each step; the tree walker rebuilds its runnable
   list every step, so it is the reference.  Each case replays on both
   engines and requires equal fingerprints (steps, status, access-order
   digest). *)
let same_replay ?wrap tag p ~plan sch =
  let tree = gated_run ?wrap Vm.Tree p ~plan sch in
  let vm = gated_run ?wrap Vm.Bytecode p ~plan sch in
  Alcotest.(check string) (tag ^ ": vm = tree") (fingerprint tree) (fingerprint vm);
  vm

(* no lock, wait or join between the writer's [x = 7] and the reader's
   read of [x]: the gate alone holds the reader, and admits it once the
   write runs, while both threads stay enabled *)
let gate_flip = {|
  global x; global y;
  fn writer() { i = 0; while (i < 3) { y = y + i; i = i + 1; } x = 7; while (i > 0) { i = i - 1; } }
  fn reader() { v = x; y = v; }
  main { x = 0; y = 0; spawn a = writer(); spawn b = reader(); join a; join b; print y; }
|}

let test_cache_gate_flip () =
  let p = parse gate_flip in
  let flips = ref 0 in
  List.iter
    (fun seed ->
      let r = Light.record ~sched:(Sched.sticky ~seed ~stickiness:3) p in
      (* the reader's accesses whose wait rank was ahead of the cursor
         when asked: one that then executes was held, then admitted *)
      let denied = Hashtbl.create 16 in
      let wrap (h : Interp.hooks) =
        match h.gate, h.on_shared with
        | Some (Rank r), Some on_shared ->
          let wait ~tid ~c =
            let w = r.wait ~tid ~c in
            if tid = 102 && !(r.cursor) < w then Hashtbl.replace denied c ();
            w
          in
          let on_shared ~tid ~c ~obj ~fld ~kind ~site ~ghost =
            if tid = 102 && Hashtbl.mem denied c then begin
              incr flips;
              Hashtbl.remove denied c
            end;
            on_shared ~tid ~c ~obj ~fld ~kind ~site ~ghost
          in
          { h with gate = Some (Rank { r with wait }); on_shared = Some on_shared }
        | _ -> Alcotest.fail "the driver's gate is not a rank gate"
      in
      let tag = Printf.sprintf "gate-flip seed=%d" seed in
      let o = same_replay ~wrap tag p ~plan:r.plan (solved r) in
      Alcotest.(check string) (tag ^ ": status") "done" (status_str o.status);
      Alcotest.(check (list string)) (tag ^ ": faithful") []
        (Interp.replay_matches ~original:r.outcome ~replay:o))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  Alcotest.(check bool) "reader held, then admitted" true (!flips > 0)

(* two waiters and one [notify] at a time: the replayer steers the wakeup
   to the recorded waiter *)
let steered_notify = {|
  class C { go; n; } global m;
  fn waiter(id) { sync (m) { while (m.go == 0) { wait m; } m.go = m.go - 1; m.n = m.n * 10 + id; } }
  main { m = new C; m.go = 0; m.n = 0;
         spawn w1 = waiter(1); spawn w2 = waiter(2);
         yield; yield; yield;
         sync (m) { m.go = m.go + 1; notify m; }
         yield;
         sync (m) { m.go = m.go + 1; notify m; }
         join w1; join w2; print m.n; }
|}

let test_cache_handoff_wakeup () =
  List.iter
    (fun (name, src) ->
      let p = parse src in
      let handoffs = ref 0 and steered = ref 0 in
      List.iter
        (fun seed ->
          let r = Light.record ~sched:(Sched.sticky ~seed ~stickiness:2) p in
          let wrap (h : Interp.hooks) =
            let choose = Option.get h.choose_wakeup in
            let choose_wakeup ~lock ~waiters =
              let w = choose ~lock ~waiters in
              if List.length waiters >= 2 then incr steered;
              w
            in
            { h with choose_wakeup = Some choose_wakeup }
          in
          let tag = Printf.sprintf "%s seed=%d" name seed in
          let o = same_replay ~wrap tag p ~plan:r.plan (solved r) in
          Alcotest.(check string) (tag ^ ": status") "done" (status_str o.status);
          Alcotest.(check (list string)) (tag ^ ": faithful") []
            (Interp.replay_matches ~original:r.outcome ~replay:o);
          (* a lock acquired by a thread other than its last releaser *)
          let last_rel = Hashtbl.create 4 in
          List.iter
            (fun (a : Event.access) ->
              match a.ghost with
              | Event.LockRelWrite | WaitRelWrite -> Hashtbl.replace last_rel a.loc a.tid
              | LockAcqRead | WaitReacqRead -> (
                match Hashtbl.find_opt last_rel a.loc with
                | Some t when t <> a.tid -> incr handoffs
                | _ -> ())
              | _ -> ())
            o.trace)
        [ 1; 2; 3; 4; 5; 6; 7; 8 ];
      Alcotest.(check bool) (name ^ ": lock handed off") true (!handoffs > 0);
      if name = "steered-notify" then
        Alcotest.(check bool) (name ^ ": wakeup steered among two waiters") true
          (!steered > 0))
    [ ("lock-handoff", lock_handoff); ("steered-notify", steered_notify) ]

(* Stuck versus deadlocked.  The inverted schedule stalls on the gate with
   the enabled set cached since main's first step: [GateStuck [1]]
   (test_inverted_order_stuck).  A deadlock recorded by a lock-order
   inversion empties the enabled set and must replay to the same
   [Deadlock] thread list. *)
let lock_inversion = {|
  class L {} global l1; global l2;
  fn a() { sync (l1) { yield; yield; sync (l2) { nop; } } }
  fn b() { sync (l2) { yield; yield; sync (l1) { nop; } } }
  main { l1 = new L; l2 = new L; spawn x = a(); spawn y = b(); join x; join y; }
|}

let test_cache_deadlock () =
  let p = parse lock_inversion in
  let deadlocks =
    List.filter_map
      (fun seed ->
        let r = Light.record ~sched:(Sched.random ~seed) p in
        match r.outcome.status with Interp.Deadlock _ -> Some (seed, r) | _ -> None)
      (List.init 30 (fun i -> i + 1))
  in
  Alcotest.(check bool) "some seed deadlocks" true (deadlocks <> []);
  List.iter
    (fun (seed, (r : Light.recording)) ->
      let tag = Printf.sprintf "lock-inversion seed=%d" seed in
      let o = same_replay tag p ~plan:r.plan (solved r) in
      Alcotest.(check string) (tag ^ ": status") (status_str r.outcome.status)
        (status_str o.status))
    deadlocks

(* A statement whose address does not evaluate (here a null [v.n]) makes
   no access, but it is a shared-access statement, so the rank rule holds
   it until the access it would take, the crash's exit write, is due: on
   both engines alike, and the replay stays faithful. *)
let null_store = {|
  class C { n; } global c; global x;
  fn w(k) { v = c; if (k > 1) { v = null; } x = x + 1; v.n = 2; x = x + 1; }
  main { c = new C; x = 0; spawn a = w(1); spawn b = w(2); x = x + 5; c.n = x;
         join a; join b; print x; }
|}

let test_address_crash () =
  let p = parse null_store in
  List.iter
    (fun seed ->
      let r = Light.record ~sched:(Sched.sticky ~seed ~stickiness:2) p in
      let tag = Printf.sprintf "null-store seed=%d" seed in
      Alcotest.(check int) (tag ^ ": recorded crash") 1 (List.length r.outcome.crashes);
      let o = same_replay tag p ~plan:r.plan (solved r) in
      Alcotest.(check (list string)) (tag ^ ": faithful") []
        (Interp.replay_matches ~original:r.outcome ~replay:o))
    (List.init 20 (fun i -> i + 1))

(* Both admission rules and blind-write suppression on a hand-built
   three-event schedule: thread 1 reads [f] over counters 1..3 from thread
   2's write (2,1), solved as (1,1) < (2,1) < (1,3).  A compound
   transition's second access runs without a gate check, so (1,3) can
   execute ahead of rank 1; thread 1's next access must then still wait.
   Neither engine passes a ghost write to [suppress_write]. *)
let test_gate_tables () =
  let f = Loc.field 7 "f" and g = Loc.field 7 "g" in
  (* obj fld w_t w_c w_obs rf_t rf_c rl_c dep_obs *)
  let log = log_of [ (fun b -> Log.add_dep b f.obj f.fld 2 1 0 1 1 3 0) ] in
  let cs = Constraints.generate log in
  let model = Array.make (Array.length cs.evts) 0 in
  List.iteri (fun k e -> model.(Option.get (Constraints.var_of cs e)) <- k) [ (1, 1); (2, 1); (1, 3) ];
  let sch = Replayer.build_schedule log cs model in
  let hooks = Replayer.driver sch ~plan:Plan.all_shared in
  let cursor =
    match hooks.gate with Some (Rank r) -> r.cursor | _ -> Alcotest.fail "not a rank gate"
  in
  let on_shared = Option.get hooks.on_shared in
  let suppress = Option.get hooks.suppress_write in
  let admitted (tid, c) = !cursor >= Replayer.wait_rank sch ~tid ~c in
  let suppressed ?(loc = f) (tid, c) = suppress ~tid ~c ~obj:loc.Loc.obj ~fld:loc.fld ~site:1 in
  let run (tid, c) = on_shared ~tid ~c ~obj:f.obj ~fld:f.fld ~kind:Read ~site:1 ~ghost:NotGhost in
  let chk what expected got = Alcotest.(check bool) what expected got in
  Alcotest.(check (list (option int))) "ranks" [ Some 0; None; Some 2; Some 1; None ]
    (List.map (Replayer.rank sch) [ (1, 1); (1, 2); (1, 3); (2, 1); (3, 1) ]);
  Alcotest.(check (list int)) "wait ranks" [ 0; 1; 2; 3; 1; 0 ]
    (List.map
       (fun (tid, c) -> Replayer.wait_rank sch ~tid ~c)
       [ (1, 1); (1, 2); (1, 3); (1, 4); (2, 1); (3, 1) ]);
  chk "rank 0 is due" true (admitted (1, 1));
  chk "rank 2 is not" false (admitted (1, 3));
  run (1, 1);
  chk "unconstrained after its predecessor" true (admitted (1, 2));
  chk "rank 2 waits for rank 1" false (admitted (1, 3));
  run (1, 3);
  chk "past the table: waits for the last rank" false (admitted (1, 4));
  chk "unknown thread runs" true (admitted (3, 1));
  run (2, 1);
  chk "past the table once it ran" true (admitted (1, 4));
  chk "interior write kept" false (suppressed (1, 2));
  chk "constrained write kept" false (suppressed (1, 3));
  chk "write to another location suppressed" true (suppressed ~loc:g (1, 2));
  chk "write past the interval suppressed" true (suppressed (1, 4))

(* The linear-time rank order equals a comparison sort by (model value,
   event), on value ranges narrow enough to force ties and wide enough to
   need several radix passes. *)
let prop_rank_order =
  QCheck.Test.make ~count:300 ~name:"rank order = sort by (model, event)"
    QCheck.(
      make
        Gen.(
          int_range 0 60 >>= fun n ->
          oneofl [ 3; 5000; 1 lsl 40 ] >>= fun range ->
          pair
            (array_size (return n) (int_range (-range) range))
            (array_size (return n) (pair (int_range 0 3) (int_range 0 9)))))
    (fun (model, evts) ->
      let expected =
        List.init (Array.length model) Fun.id
        |> List.sort (fun i j -> compare (model.(i), evts.(i)) (model.(j), evts.(j)))
        |> List.map (fun i -> evts.(i))
      in
      Array.to_list (Array.map (fun i -> evts.(i)) (Replayer.rank_order evts model))
      = expected)

(* ------------------------------------------------------------------ *)
(* Pinned constraint systems                                            *)
(* ------------------------------------------------------------------ *)

(* Everything [generate] hands on: the order of the hard atoms, of the
   clauses and of each clause's literals reaches the solver and so the
   schedule, which equisatisfiability alone would not notice. *)
let render_system (cs : Constraints.t) =
  let b = Buffer.create 65536 in
  let atom (a : Dlsolver.Idl.atom) = Printf.bprintf b "%d,%d,%d;" a.u a.v a.k in
  Printf.bprintf b "nvars %d\nhard " cs.problem.nvars;
  List.iter atom cs.problem.hard;
  Buffer.add_string b "\nclauses ";
  Array.iter
    (fun cl ->
      Array.iter atom cl;
      Buffer.add_char b '|')
    cs.problem.clauses;
  Buffer.add_string b "\nhint ";
  (match cs.hint with
  | Some h -> Array.iter (Printf.bprintf b "%d,") h
  | None -> Buffer.add_string b "none");
  Buffer.add_string b "\nevts ";
  Array.iter (fun (t, c) -> Printf.bprintf b "%d.%d," t c) cs.evts;
  let g = cs.gen_stats in
  Printf.bprintf b "\nstats %d %d %d %d\n" g.n_pairs g.n_pruned g.n_unit g.n_dedup;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* the 8 Figure-6 bugs under their triggering schedule, then four
   contended workloads at scale 1 and seed 1 *)
let generate_recordings () =
  List.map
    (fun (b : Bugs.Defs.bug) ->
      let p = Bugs.Defs.program_of b () in
      match Bugs.Harness.find_trigger p with
      | Some tr -> (b.name, (Light.record ~sched:(tr.make_sched ()) p).log)
      | None -> Alcotest.failf "%s: no trigger" b.name)
    Bugs.Defs.all
  @ List.map
      (fun name ->
        let bm = Option.get (Workloads.by_name name) in
        ( name,
          (Light.record ~sched:(Workloads.scheduler ~seed:1 bm) ~seed:1 (Workloads.program bm))
            .log ))
      [ "mp-queue"; "dacapo-avrora"; "stamp-intruder"; "tomcat-kernel" ]

(* Per log: the pruned and the naive system, plain and under the
   relaxation of the log's first exploration flip. *)
let generated_digests () =
  List.concat_map
    (fun (name, log) ->
      let relaxed =
        match Explore.log_candidates ~limit:1 log with
        | f :: _ ->
          let free, extra_events = Explore.relaxation log [ f ] in
          if free = [] then Alcotest.failf "%s: the flip frees no pin" name;
          [
            (name ^ "/flip", render_system (Constraints.generate ~free ~extra_events log));
            ( name ^ "/flip/naive",
              render_system (Constraints.generate ~naive:true ~free ~extra_events log) );
          ]
        | [] -> []
      in
      [
        (name, render_system (Constraints.generate log));
        (name ^ "/naive", render_system (Constraints.generate ~naive:true log));
      ]
      @ relaxed)
    (generate_recordings ())

(* [n] logs of [synth_log_gen]'s shapes, drawn from a fixed [Random]
   seed (not through QCheck, whose generators may change between
   releases) *)
let synthetic_logs n : Log.t list =
  let st = Random.State.make [| 13 |] in
  let int lo hi = lo + Random.State.int st (hi - lo + 1) in
  let evt () =
    let t = int 0 2 in
    (t, int 0 6)
  in
  let opt f = if Random.State.bool st then Some (f ()) else None in
  let dep b =
    let (loc : Loc.t) = Loc.field (int 0 2) "f" in
    let w = opt evt in
    let rf_t, rf_c = evt () in
    let rl_c = rf_c + int 0 2 in
    let dep_obs = int 0 40 in
    let w_obs = int 0 40 in
    let w_t, w_c = Option.value w ~default:(-1, -1) in
    Log.add_dep b loc.obj loc.fld w_t w_c w_obs rf_t rf_c rl_c dep_obs
  in
  let range b =
    let (loc : Loc.t) = Loc.field (int 0 2) "f" in
    let rt = int 0 2 in
    let lo = int 0 5 in
    let hi = lo + int 0 3 in
    let w_in = opt evt in
    let prefix_reads = Random.State.bool st in
    let has_write = Random.State.bool st in
    let rng_obs = int 0 40 in
    let lo_obs = int 0 40 in
    let w_obs = int 0 40 in
    let w_t, w_c = Option.value w_in ~default:(-1, -1) in
    Log.add_range b loc.obj loc.fld rt lo hi w_t w_c (Bool.to_int prefix_reads)
      (Bool.to_int has_write) rng_obs lo_obs w_obs
  in
  List.init n (fun _ ->
      let b = Log.builder () in
      for _ = 1 to int 0 5 do dep b done;
      for _ = 1 to int 0 4 do range b done;
      Log.build b ~o1:false ~o2:false)

(* Synthetic logs, pruned and naive, plain and with the first dep's pin
   freed and an extra event: nested intervals, unit reductions, dedup and
   cyclic hard graphs that recorded logs rarely produce. *)
let synthetic_digest () =
  synthetic_logs 300
  |> List.concat_map (fun (log : Log.t) ->
         let free =
           if Log.n_deps log > 0 then [ (log.deps.(Log.d_rft), log.deps.(Log.d_rfc)) ] else []
         in
         List.concat_map
           (fun naive ->
             [
               render_system (Constraints.generate ~naive log);
               render_system (Constraints.generate ~naive ~free ~extra_events:[ (0, 9) ] log);
             ])
           [ false; true ])
  |> String.concat "" |> Digest.string |> Digest.to_hex

(* Reference digests of [render_system] for the logs above. *)
let pinned_systems =
  [
    ("Cache4j", "9301c887dd832fe91d0621bf944995ea");
    ("Cache4j/naive", "b80a8a492c954168bb7ff15d87904fda");
    ("Cache4j/flip", "b6f9e12c7558a762ef14f8fcd4209669");
    ("Cache4j/flip/naive", "b8d86ff30a2ea49ccb454ea0b1f97533");
    ("Ftpserver", "1e030668397683c28230a4f015ffd90b");
    ("Ftpserver/naive", "da3c282852fe457c605792c35e1c5e89");
    ("Ftpserver/flip", "2cdcd3d444d4723bbd2c94a48204880a");
    ("Ftpserver/flip/naive", "32947a69dfdf1077f97048a38c9f89e6");
    ("Lucene-481", "36dbecd5c53ec45828c7acc47aca985e");
    ("Lucene-481/naive", "f0d46404558ef239d55fd495272b45c9");
    ("Lucene-481/flip", "e0d244d335ec3cc0d32f545cbcd9fe40");
    ("Lucene-481/flip/naive", "14fc3c85660380b7d7134a0d562468f1");
    ("Lucene-651", "9d4a386ba83552e69fdf466f1a0c925c");
    ("Lucene-651/naive", "08b3c09cfdadf54ce6c269d2015e4793");
    ("Lucene-651/flip", "f69b151d5ca8f7548f23c27f2802fe3f");
    ("Lucene-651/flip/naive", "1810ef2f99a2bff114de002f16f5f731");
    ("Tomcat-37458", "dab73847033045c6a9301bbcee6af597");
    ("Tomcat-37458/naive", "857376c55537875753fee805fc89813d");
    ("Tomcat-37458/flip", "8abdadfa7e0bbb78c98cea18e8f7acc3");
    ("Tomcat-37458/flip/naive", "b32d399592dbd37d4972d25c11fe7dfc");
    ("Tomcat-50885", "84c96bce9e3ad45c7c76b8d551eea618");
    ("Tomcat-50885/naive", "1591feb53d316d9806b156700887d0f8");
    ("Tomcat-50885/flip", "df11b3177af6d5216a6742fba3faf64c");
    ("Tomcat-50885/flip/naive", "a6a251b4703527dedf55add5d888fc47");
    ("Tomcat-53498", "607e50bc38913d2e36ff78ca16a5be3e");
    ("Tomcat-53498/naive", "fd3b56575580111b64861eea44d304cc");
    ("Tomcat-53498/flip", "f46b62f861ec9f5100284c0da7e4e6e3");
    ("Tomcat-53498/flip/naive", "a74ab26335791d343191b269ada5a97a");
    ("Weblech", "9fe922a4aba76a4cf900c0ca1245ace8");
    ("Weblech/naive", "34c0004aaf15b7083b35dc974a4ab65b");
    ("Weblech/flip", "e6d66d585d1023fcb06b788b1ad55745");
    ("Weblech/flip/naive", "2aa472a2d686ad1b2a9e958215e159b1");
    ("mp-queue", "e90470661a58028b55aaa64daec2a3d1");
    ("mp-queue/naive", "4218f499485de2435ef3ea9aabda9ba4");
    ("mp-queue/flip", "5a35ea2a30fc21f4803776b4a2146c28");
    ("mp-queue/flip/naive", "689d8b620fc65112bc3e87ca2498cb84");
    ("dacapo-avrora", "d4707de5bca7e463c63e06c93cfd6aa7");
    ("dacapo-avrora/naive", "05341b847cb9123b35366fde5e1e923c");
    ("dacapo-avrora/flip", "7d13e4cbd68771ba65acffb71c64e050");
    ("dacapo-avrora/flip/naive", "108719303741250260a5d6c6992b1af8");
    ("stamp-intruder", "cafe5cc2437f4a82b052610dc8297f8a");
    ("stamp-intruder/naive", "a1f95a0acd4aecda4233f85e43a32b46");
    ("stamp-intruder/flip", "681b2ae5da68ceddf9f6cc17aa55c8d6");
    ("stamp-intruder/flip/naive", "dc8e4afc06076268d564d04509a9cd6d");
    ("tomcat-kernel", "c5f5c897977484109d651a997c6de0a1");
    ("tomcat-kernel/naive", "828058aa5d8042a5fa259a5d1070dc6c");
    ("tomcat-kernel/flip", "2b09cc93be77b1cbf5781d35ea59b49f");
    ("tomcat-kernel/flip/naive", "1d634cf6f01b1c9d40875c6985418a8b");
  ]

let test_pinned_systems () =
  Alcotest.(check (list (pair string string))) "digests" pinned_systems
    (generated_digests ());
  Alcotest.(check string) "synthetic" "d42a1d37bd906b6c439ee98923ec5937" (synthetic_digest ())

let () =
  Alcotest.run "replay"
    [
      ("family", family_tests);
      ( "detail",
        [
          Alcotest.test_case "crash site reproduced" `Quick test_crash_site_reproduced;
          Alcotest.test_case "constraint shape" `Quick test_constraints_shape;
          Alcotest.test_case "schedule respects deps" `Quick test_schedule_respects_deps;
          Alcotest.test_case "torture mix" `Slow test_torture;
        ] );
      ( "gate",
        [
          Alcotest.test_case "admission and suppression tables" `Quick test_gate_tables;
          Alcotest.test_case "pinned replay fingerprints, 36 programs x 2 engines"
            `Quick test_pinned_replays;
          Alcotest.test_case "pinned epoch replay steps" `Quick test_pinned_epochs;
          Alcotest.test_case "inverted order ends GateStuck" `Quick
            test_inverted_order_stuck;
          Alcotest.test_case "cache invalidation edges" `Quick test_cache_edges;
          Alcotest.test_case "cache: admission flips, enabledness still" `Quick
            test_cache_gate_flip;
          Alcotest.test_case "cache: lock hand-off and steered wakeup" `Quick
            test_cache_handoff_wakeup;
          Alcotest.test_case "cache: recorded deadlock replays as Deadlock" `Quick
            test_cache_deadlock;
          Alcotest.test_case "rank protocol: each (tid, c) asked once" `Quick
            test_rank_protocol;
          Alcotest.test_case "gated VM replay allocates <= 1.15x an ungated run" `Quick
            test_replay_alloc;
          Alcotest.test_case "a gated VM run picks round-robin, whatever the scheduler"
            `Quick test_vm_gated_pick;
          Alcotest.test_case "a gated tree-walker run picks as the VM does" `Quick
            test_tree_gated_pick;
          Alcotest.test_case "the VM refuses a predicate gate" `Quick test_vm_rejects_pred;
          Alcotest.test_case "address crash waits its turn on both engines" `Quick
            test_address_crash;
        ] );
      ( "generate",
        [
          Alcotest.test_case "pinned systems: 12 recorded + 300 synthetic logs" `Quick
            test_pinned_systems;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_replay_faithful;
          QCheck_alcotest.to_alcotest ~long:false prop_pruned_equisat;
          QCheck_alcotest.to_alcotest ~long:false prop_intervals_reference;
          QCheck_alcotest.to_alcotest ~long:false prop_var_of;
          QCheck_alcotest.to_alcotest ~long:false prop_stdhash;
          QCheck_alcotest.to_alcotest ~long:false prop_by_location_order;
          QCheck_alcotest.to_alcotest ~long:false prop_rank_order;
        ] );
    ]
