(** The pipeline benchmark's workloads: record → reproduce → serve.

    Each workload is a closed loop driven by one process.  It builds its
    inputs from the seed (set-up, done several times and timed), runs one
    warm-up round, then timed rounds until the requested seconds have
    passed, and checks every output it produces.  Layers are timed from
    outside, around calls into their public functions ({!Trace.span}), so
    the untraced run executes the same calls without the clock reads.

    - [record-contended] / [record-local]: native and recorded runs of the
      same prepared programs, back to back, alternating which goes first.
      The contended programs share hot objects in short same-thread runs,
      so the recorder and log writer do the most work per step; on the
      local ones the recorder is mostly bypassed.
    - [reproduce]: v3 logs recorded during set-up (the eight Figure-6 bugs
      at Table-1 scale x 4 with background load, plus eight suite
      programs) each go log bytes → parse → solve → replay → check.
    - [service]: the record service over all 28 programs in 5,000-step
      sessions, on a pool of one domain per core, against a pooled native
      pass over the same sessions. *)

open Light_core
module Interp = Runtime.Interp

type config = {
  seed : int;
  seconds : float;  (** length of the timed phase *)
  smoke : bool;     (** scale 1, one set-up, no warm-up, one round *)
}

type metric = { name : string; unit_ : string }

let m name unit_ = { name; unit_ }

let end_to_end =
  [
    m "overhead_x" "x";
    m "steps_per_s" "steps/s";
    m "ops_per_s" "1/s";
    m "op_p50_ms" "ms";
    m "op_p90_ms" "ms";
    m "log_bytes_per_kstep" "B/kstep";
    m "setup_s" "s";
    m "peak_rss_mb" "MB";
  ]

(* A layer a workload never calls reads 0.  Times of layers that only some
   workloads call are given as a share of the timed phase (%), so that
   every time in ms is one that all workloads measure. *)
let per_layer =
  [
    m "lang.parse_ms" "ms";
    m "lang.compile_ms" "ms";
    m "instrument.transform_ms" "ms";
    m "instrument.sites" "count";
    m "runtime.native_pct" "%";
    m "runtime.native_steps_per_s" "steps/s";
    m "runtime.alloc_words_per_step" "words/step";
    m "recorder.record_pct" "%";
    m "recorder.self_frac" "fraction";
    m "recorder.alloc_words_per_step" "words/step";
    m "recorder.records_per_kstep" "1/kstep";
    m "recorder.space_longs_per_kstep" "longs/kstep";
    m "recorder.hits_per_kstep" "1/kstep";
    m "recorder.records_per_hit" "ratio";
    m "log.serialize_pct" "%";
    m "log.serialize_mb_per_s" "MB/s";
    m "log.parse_pct" "%";
    m "log.parse_mb_per_s" "MB/s";
    m "log.bytes" "B";
    m "constraints.generate_pct" "%";
    m "constraints.clauses_pre" "count";
    m "constraints.clauses_post" "count";
    m "constraints.vars" "count";
    m "constraints.alloc_words" "words";
    m "solver.solve_pct" "%";
    m "solver.decisions" "count";
    m "solver.backtracks" "count";
    m "solver.conflicts" "count";
    m "replayer.schedule_pct" "%";
    m "replayer.replay_pct" "%";
    m "replayer.replay_steps_per_s" "steps/s";
    m "replayer.replay_over_native" "x";
    m "validate.check_pct" "%";
    m "validate.mismatches" "count";
    m "service.run_pct" "%";
    m "service.queue_wait_frac" "fraction";
    m "service.run_steps_per_s" "steps/s";
    m "service.inline_frac" "fraction";
    m "service.recorders_created" "count";
    m "bqueue.peak" "count";
    m "bqueue.blocked_pushes" "count";
    m "bqueue.blocked_pops" "count";
    m "trace.glue_pct" "%";
  ]

let workloads = [ "record-contended"; "record-local"; "reproduce"; "service" ]

type result = {
  attempted : int;
  failed : int;
  values : (string * float) list;
      (** every end-to-end metric; also every per-layer one when traced *)
}

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let now = Unix.gettimeofday

(* Every timed operation starts from a fully collected heap.  Otherwise the
   major-GC work left by the previous operation lands in a random later
   one, which made 10% of the recordings 20-50% slower and the p90 of a
   run swing by 20% between processes. *)
let timed f =
  Trace.span "bench.gc" Gc.full_major;
  Trace.item (fun () ->
      let t0 = now () in
      let v = f () in
      (v, now () -. t0))

let median xs = (Metrics.Stats.summarize xs).median
let pctl p xs = Service.percentile p (Array.of_list xs)

(* A latency percentile: per round, over that round's operations, then the
   median over rounds.  Items differ in size and each has one operation
   per round, so a percentile of all samples pooled lands on the boundary
   between two items and reads the tail of one of them. *)
let op_pctl p (rounds : float list list) = median (List.map (pctl p) rounds)
let ratio a b = if b > 0.0 then a /. b else 0.0
let fsum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs
let sum = fsum Fun.id

let bench name =
  match Workloads.by_name name with Some b -> b | None -> invalid_arg name

(* operations attempted and failed by the current workload run *)
let attempted = ref 0
let failed = ref 0

let complain label what = Printf.eprintf "pipebench: FAIL %s: %s\n%!" label what

(* per-item timings on stderr, for a reader of one run; quiet in smoke mode *)
let report cfg fmt = Printf.ksprintf (fun s -> if not cfg.smoke then prerr_string s) fmt

let note_op ok =
  incr attempted;
  if not ok then incr failed

(* An item that raises is one failed operation, not a dead benchmark. *)
let guarded label f =
  try f () with e ->
    complain label (Printexc.to_string e);
    note_op false

(** Parse, instrument and compile one program as {!Light.prepare} does,
    one span per layer.  Returns the prepared program and its number of
    instrumented sites. *)
let prepare (src : string) : Light.prepared * int =
  let p =
    Trace.span "lang.parse" (fun () ->
        Lang.Check.validate_exn (Lang.Parser.parse_program src))
  in
  let tr = Trace.span "instrument.transform" (fun () -> Instrument.Transformer.transform p) in
  let pp = Trace.span "lang.compile" (fun () -> Light.prepare ~plan:tr.plan p) in
  (pp, tr.instrumented_sites)

let native_run pp ~sched ~seed : Interp.outcome =
  Trace.span "runtime.native" (fun () ->
      Interp.run_compiled ~plan:(Light.prepared_plan pp) ~seed ~sched
        (Light.prepared_compiled pp))

(** Build the inputs at least three times and until a second has been
    spent on it, and report the median build time.  One build takes
    milliseconds for most workloads, and in about one process in four
    the host runs a few hundred milliseconds of builds 1.5x slower; a
    median over a full second of builds does not follow such a stretch.
    Every rebuild must give the same [digest] as the first. *)
let setup cfg ?(digest = fun _ -> "") (build : unit -> 'a) :
    'a * float * (float * float) list =
  let t_start = now () in
  let enough k =
    if cfg.smoke then k >= 1 else k >= 3 && now () -. t_start >= 1.0
  in
  let rec go k first last times wins =
    if enough k then (Option.get last, median times, wins)
    else begin
      Gc.full_major ();
      let t0 = now () in
      let v = build () in
      let t1 = now () in
      let d = digest v in
      (match first with
      | Some d0 when d0 <> d ->
        complain "setup" "a rebuild of the inputs differs from the first";
        note_op false
      | _ -> ());
      go (k + 1) (Some (Option.value first ~default:d)) (Some v)
        ((t1 -. t0) :: times) ((t0, t1) :: wins)
    end
  in
  go 0 None None [] []

(** Run an operation and the native run of the same work back to back;
    callers alternate which goes first, so drift and GC debt fall on both
    alike. *)
let pair ~native_first native op =
  if native_first then
    let n = native () in
    (n, op ())
  else
    let o = op () in
    (native (), o)

let first_round cfg = if cfg.smoke then 0 else -1

(** One warm-up round (numbered -1), then timed rounds numbered from 0
    until [cfg.seconds] have passed and at least [min_rounds] ran.
    Returns the timed window. *)
let run_rounds cfg ~min_rounds (round : int -> unit) : float * float =
  if first_round cfg < 0 then round (-1);
  let lo = now () in
  let n = ref 0 in
  let more () =
    if cfg.smoke then !n < 1 else !n < min_rounds || now () -. lo < cfg.seconds
  in
  while more () do
    round !n;
    incr n
  done;
  (lo, now ())

(* what one recording contributes to the recorder/log layer metrics *)
type rec_stats = { steps : int; records : int; hits : int; longs : int; bytes : int }

let rec_stats (r : Light.recording) (text : string) : rec_stats =
  {
    steps = r.outcome.steps;
    records = Log.num_records r.log;
    hits = Array.fold_left ( + ) 0 r.site_hits;
    longs = r.space_longs;
    bytes = String.length text;
  }

(* Geomean over items of the median ratio of an operation to the native
   run it was paired with; [per] holds each item's (native s, op s). *)
let paired_overhead (per : (float * float) list list) =
  Report.Experiments.geomean_f (List.map (fun s -> median (List.map (fun (n, o) -> o /. n) s)) per)

(* Geomean over logs of v3 bytes per 1000 recorded steps: every program
   weighs the same, so the two or three largest logs, whose size swings
   most with the schedule, do not set the figure alone. *)
let log_bytes_per_kstep (logs : (int * int) list) =
  Report.Experiments.geomean_f
    (List.map (fun (bytes, steps) -> 1000.0 *. ratio (float_of_int bytes) (float_of_int steps)) logs)

let recorder_layers (rs : rec_stats list) =
  let f g = fsum (fun r -> float_of_int (g r)) rs in
  let steps = f (fun r -> r.steps) in
  [
    ("recorder.records_per_kstep", 1000.0 *. ratio (f (fun r -> r.records)) steps);
    ("recorder.space_longs_per_kstep", 1000.0 *. ratio (f (fun r -> r.longs)) steps);
    ("recorder.hits_per_kstep", 1000.0 *. ratio (f (fun r -> r.hits)) steps);
    ("recorder.records_per_hit", ratio (f (fun r -> r.records)) (f (fun r -> r.hits)));
    ("log.bytes", f (fun r -> r.bytes));
  ]

(* what a workload hands back to [run] *)
type measured = {
  e2e : (string * float) list;
  layers : (string * float) list;  (** the workload's own per-layer values *)
  setup_s : float;
  setup_wins : (float * float) list;
  window : float * float;          (** the timed phase *)
  sites : int;
}

(* ------------------------------------------------------------------ *)
(* record-contended / record-local                                     *)
(* ------------------------------------------------------------------ *)

let contended =
  [ "dacapo-avrora"; "dacapo-xalan"; "stamp-intruder"; "tomcat-kernel"; "mp-queue"; "mp-fanin" ]

let local =
  [ "jgf-series"; "dacapo-sunflow"; "stamp-labyrinth"; "dacapo-lusearch"; "stamp-kmeans" ]

(* One recorded program under one schedule.  Each program is recorded
   under [schedules] seeds: how much a log holds depends on where the
   context switches fall, so a single schedule per program makes the log
   size of a run swing by 5% with the seed. *)
type prog = { bm : Workloads.benchmark; pp : Light.prepared; seed : int }

let schedules = 4

let record_workload cfg (names : string list) : measured =
  let scale = if cfg.smoke then 1 else 4 in
  let (progs, sites), setup_s, setup_wins =
    setup cfg (fun () ->
        let prepared =
          List.map
            (fun name ->
              let bm = bench name in
              (bm, prepare (Workloads.generate ~scale bm.params)))
            names
        in
        ( Array.of_list
            (List.concat_map
               (fun (bm, (pp, _)) ->
                 List.init schedules (fun k -> { bm; pp; seed = (cfg.seed * schedules) + k }))
               prepared),
          List.fold_left (fun a (_, (_, s)) -> a + s) 0 prepared ))
  in
  let np = Array.length progs in
  let samples = Array.make np [] in  (* (native s, record + serialize s) *)
  let rounds = ref [] in              (* record + serialize s of each item, per round *)
  let digests = Array.make np "" in
  let stats = Array.make np None in
  let native_steps = ref 0 and rec_steps = ref 0 and ser_bytes = ref 0 in
  let round r =
    let this = ref [] in
    Array.iteri
      (fun i x ->
        let sched () = Workloads.scheduler ~seed:x.seed x.bm in
        let native () = timed (fun () -> native_run x.pp ~sched:(sched ()) ~seed:x.seed) in
        let record () =
          timed (fun () ->
              let rc =
                Trace.span "recorder.record" (fun () ->
                    Light.record_prepared ~sched:(sched ()) ~seed:x.seed x.pp)
              in
              (rc, Trace.span "log.serialize" (fun () -> Log.to_string rc.log)))
        in
        guarded x.bm.name (fun () ->
            let (n, tn), ((rc, text), tr) = pair ~native_first:(r land 1 = 0) native record in
            let mism =
              Trace.span "validate.check" (fun () ->
                  Interp.replay_matches ~original:n ~replay:rc.outcome)
            in
            let d = Digest.string text in
            if digests.(i) = "" then digests.(i) <- d;
            if mism <> [] then
              complain x.bm.name ("recorded run differs from native: " ^ List.hd mism);
            if d <> digests.(i) then complain x.bm.name "log differs across rounds";
            note_op (mism = [] && d = digests.(i));
            if r >= 0 then begin
              samples.(i) <- (tn, tr) :: samples.(i);
              this := tr :: !this;
              native_steps := !native_steps + n.steps;
              rec_steps := !rec_steps + rc.outcome.steps;
              ser_bytes := !ser_bytes + String.length text;
              if stats.(i) = None then stats.(i) <- Some (rec_stats rc text)
            end))
      progs;
    if r >= 0 then rounds := !this :: !rounds
  in
  let lo, hi = run_rounds cfg ~min_rounds:5 round in
  Array.iteri
    (fun i x ->
      let s = samples.(i) in
      report cfg "  %-18s seed %4d %8d steps  native %7.2f ms  record %7.2f ms  %7d B\n" x.bm.name x.seed
        (match stats.(i) with Some st -> st.steps | None -> 0)
        (1000.0 *. median (List.map fst s))
        (1000.0 *. median (List.map snd s))
        (match stats.(i) with Some st -> st.bytes | None -> 0))
    progs;
  let per = Array.to_list samples in
  let stats = List.filter_map Fun.id (Array.to_list stats) in
  let med_rec = List.map (fun s -> median (List.map snd s)) per in
  let steps = fsum (fun s -> float_of_int s.steps) stats in
  let agg = Trace.aggregate ~lo ~hi in
  let native = Trace.get agg "runtime.native"
  and recd = Trace.get agg "recorder.record"
  and ser = Trace.get agg "log.serialize" in
  {
    e2e =
      [
        ("overhead_x", paired_overhead per);
        ("steps_per_s", ratio steps (sum med_rec));
        ("ops_per_s", ratio (float_of_int np) (sum med_rec));
        ("op_p50_ms", 1000.0 *. op_pctl 50.0 !rounds);
        ("op_p90_ms", 1000.0 *. op_pctl 90.0 !rounds);
        ("log_bytes_per_kstep", log_bytes_per_kstep (List.map (fun s -> (s.bytes, s.steps)) stats));
      ];
    layers =
      [
        ("runtime.native_steps_per_s", ratio (float_of_int !native_steps) native.self_s);
        ("runtime.alloc_words_per_step", ratio native.alloc_words (float_of_int !native_steps));
        ("recorder.self_frac", ratio (recd.self_s -. native.self_s) recd.self_s);
        ("recorder.alloc_words_per_step", ratio recd.alloc_words (float_of_int !rec_steps));
        ("log.serialize_mb_per_s", ratio (float_of_int !ser_bytes /. 1e6) ser.self_s);
      ]
      @ recorder_layers stats;
    setup_s;
    setup_wins;
    window = (lo, hi);
    sites;
  }

(* ------------------------------------------------------------------ *)
(* reproduce                                                           *)
(* ------------------------------------------------------------------ *)

let reproduce_suite =
  contended @ [ "stamp-vacation"; "jgf-series" ]

type item = {
  label : string;
  pp : Light.prepared;
  sched : unit -> Runtime.Sched.t;
  seed : int;
  bug : bool;
  text : string;               (** the v3 log: the item's input *)
  original : Interp.outcome;   (** the recorded run *)
  rstats : rec_stats;
}

type counts = {
  clauses_pre : int;
  clauses_post : int;
  vars : int;
  decisions : int;
  backtracks : int;
  conflicts : int;
}

let counts (gs : Constraints.gen_stats) ~clauses ~vars (st : Dlsolver.Idl.stats) =
  {
    clauses_pre = gs.n_pairs;
    clauses_post = clauses;
    vars;
    decisions = st.decisions;
    backtracks = st.backtracks;
    conflicts = st.theory_conflicts;
  }

let reproduce_items cfg () : item array * int =
  let record label (pp, sites) ~sched ~seed ~bug =
    let rc =
      Trace.span "recorder.record" (fun () ->
          Light.record_prepared ~sched:(sched ()) ~seed pp)
    in
    let text = Trace.span "log.serialize" (fun () -> Log.to_string rc.log) in
    ( { label; pp; sched; seed; bug; text; original = rc.outcome; rstats = rec_stats rc text },
      sites )
  in
  let bugs =
    List.filter_map
      (fun (b : Bugs.Defs.bug) ->
        let scale = if cfg.smoke then 1 else b.table1_scale * 4 in
        let ((pp, _) as prep) =
          prepare (Bugs.Defs.inject_background (b.source scale) ~iters:(scale * 4))
        in
        match
          Trace.span "bugs.find_trigger" (fun () ->
              Bugs.Harness.find_trigger (Light.prepared_program pp))
        with
        | Some tr -> Some (record b.name prep ~sched:tr.make_sched ~seed:0 ~bug:true)
        | None ->
          complain b.name "no triggering schedule found";
          note_op false;
          None)
      Bugs.Defs.all
  in
  let suite =
    List.map
      (fun name ->
        let bm = bench name in
        let scale = if cfg.smoke then 1 else 4 in
        record name
          (prepare (Workloads.generate ~scale bm.params))
          ~sched:(fun () -> Workloads.scheduler ~seed:cfg.seed bm)
          ~seed:cfg.seed ~bug:false)
      reproduce_suite
  in
  let all = bugs @ suite in
  (Array.of_list (List.map fst all), List.fold_left (fun a (_, s) -> a + s) 0 all)

(** Solve a parsed log.  Untraced, through {!Replayer.solve}; traced,
    through the public pieces it composes, in its order, one span each. *)
let solve_log (log : Log.t) : (Replayer.schedule * counts, string) Stdlib.result =
  if !Trace.enabled then begin
    let cs = Trace.span "constraints.generate" (fun () -> Constraints.generate log) in
    match Trace.span "solver.solve" (fun () -> Dlsolver.Idl.solve ?hint:cs.hint cs.problem) with
    | Sat (model, st) ->
      let sch = Trace.span "replayer.schedule" (fun () -> Replayer.build_schedule log cs model) in
      Ok (sch, counts cs.gen_stats ~clauses:cs.n_clauses ~vars:cs.problem.nvars st)
    | Unsat _ -> Error "constraint system unsatisfiable"
    | Aborted _ -> Error "solver budget exhausted"
  end
  else begin
    let rep = Replayer.solve log in
    match rep.schedule with
    | Some sch ->
      Ok (sch, counts rep.gen_stats ~clauses:rep.n_clauses ~vars:rep.n_vars rep.solver_stats)
    | None when rep.result_kind = Replayer.SolverAborted -> Error "solver budget exhausted"
    | None -> Error "constraint system unsatisfiable"
  end

(** Log bytes → checked replay.  [check_order] also solves the log with
    {!Replayer.solve} and requires the same schedule order. *)
let reproduce_item ~check_order (it : item) : (int * counts) option =
  let log = Trace.span "log.parse" (fun () -> Log.of_string it.text) in
  match solve_log log with
  | Error e ->
    complain it.label e;
    None
  | Ok (sch, c) ->
    let out =
      Trace.span "replayer.replay" (fun () ->
          Replayer.replay (Light.prepared_program it.pp) ~plan:(Light.prepared_plan it.pp) sch)
    in
    let mism, crash_ok =
      Trace.span "validate.check" (fun () ->
          ( Interp.replay_matches ~original:it.original ~replay:out,
            (not it.bug) || Bugs.Harness.crashes_match it.original out ))
    in
    if mism <> [] then complain it.label ("replay not faithful: " ^ List.hd mism);
    if not crash_ok then complain it.label "crash signature not reproduced";
    let order_ok =
      (not check_order)
      ||
      match (Replayer.solve log).schedule with
      | Some s -> s.order = sch.order
      | None -> false
    in
    if not order_ok then complain it.label "schedule order differs from Replayer.solve";
    if mism = [] && crash_ok && order_ok then Some (out.steps, c) else None

let reproduce_workload cfg : measured =
  let (items, sites), setup_s, setup_wins =
    setup cfg
      ~digest:(fun (its, _) ->
        Digest.string (String.concat "" (Array.to_list (Array.map (fun it -> it.text) its))))
      (reproduce_items cfg)
  in
  let ni = Array.length items in
  let samples = Array.make ni [] in  (* (native s, reproduce s) *)
  let rounds = ref [] in  (* per round: replayed steps, reproduce s, each item's s *)
  let first = ref None in             (* per-item counts of the first timed round *)
  let mismatches = ref 0 and native_steps = ref 0 and replay_steps = ref 0 in
  let parsed_bytes = ref 0 in
  let round r =
    let steps = ref 0 and times = ref [] and cs = ref [] in
    Array.iteri
      (fun i it ->
        let native () = snd (timed (fun () -> native_run it.pp ~sched:(it.sched ()) ~seed:it.seed)) in
        let repro () = timed (fun () -> reproduce_item ~check_order:(r = first_round cfg) it) in
        guarded it.label (fun () ->
            let tn, (res, tr) = pair ~native_first:((r + i) land 1 = 0) native repro in
            note_op (res <> None);
            if r >= 0 then begin
              samples.(i) <- (tn, tr) :: samples.(i);
              times := tr :: !times;
              native_steps := !native_steps + it.original.steps;
              parsed_bytes := !parsed_bytes + String.length it.text;
              match res with
              | Some (s, c) ->
                steps := !steps + s;
                replay_steps := !replay_steps + s;
                cs := c :: !cs
              | None -> incr mismatches
            end))
      items;
    if r >= 0 then begin
      rounds := (float_of_int !steps, sum !times, !times) :: !rounds;
      if !first = None then first := Some !cs
    end
  in
  let lo, hi = run_rounds cfg ~min_rounds:3 round in
  let per = Array.to_list samples in
  let rstats = Array.to_list (Array.map (fun it -> it.rstats) items) in
  let cs = Option.value ~default:[] !first in
  let csum f = float_of_int (List.fold_left (fun a c -> a + f c) 0 cs) in
  let agg = Trace.aggregate ~lo ~hi in
  let nrounds = float_of_int (List.length !rounds) in
  let native = Trace.get agg "runtime.native" and replay = Trace.get agg "replayer.replay" in
  let setup_agg =
    match setup_wins with (a, b) :: _ -> Trace.aggregate ~lo:a ~hi:b | [] -> Hashtbl.create 1
  in
  let srec = Trace.get setup_agg "recorder.record" and sser = Trace.get setup_agg "log.serialize" in
  let rsum g = float_of_int (List.fold_left (fun a r -> a + g r) 0 rstats) in
  {
    e2e =
      [
        ("overhead_x", paired_overhead per);
        ("steps_per_s", median (List.map (fun (s, w, _) -> ratio s w) !rounds));
        ("ops_per_s", median (List.map (fun (_, w, _) -> ratio (float_of_int ni) w) !rounds));
        ("op_p50_ms", 1000.0 *. op_pctl 50.0 (List.map (fun (_, _, ts) -> ts) !rounds));
        ("op_p90_ms", 1000.0 *. op_pctl 90.0 (List.map (fun (_, _, ts) -> ts) !rounds));
        ("log_bytes_per_kstep", log_bytes_per_kstep (List.map (fun r -> (r.bytes, r.steps)) rstats));
      ];
    layers =
      [
        ("runtime.native_steps_per_s", ratio (float_of_int !native_steps) native.self_s);
        ("runtime.alloc_words_per_step", ratio native.alloc_words (float_of_int !native_steps));
        ("recorder.alloc_words_per_step", ratio srec.alloc_words (rsum (fun r -> r.steps)));
        ("log.serialize_mb_per_s", ratio (rsum (fun r -> r.bytes) /. 1e6) sser.self_s);
        ( "log.parse_mb_per_s",
          ratio (float_of_int !parsed_bytes /. 1e6) (Trace.get agg "log.parse").self_s );
        ("constraints.clauses_pre", csum (fun c -> c.clauses_pre));
        ("constraints.clauses_post", csum (fun c -> c.clauses_post));
        ("constraints.vars", csum (fun c -> c.vars));
        ("constraints.alloc_words", ratio (Trace.get agg "constraints.generate").alloc_words nrounds);
        ("solver.decisions", csum (fun c -> c.decisions));
        ("solver.backtracks", csum (fun c -> c.backtracks));
        ("solver.conflicts", csum (fun c -> c.conflicts));
        ("replayer.replay_steps_per_s", ratio (float_of_int !replay_steps) replay.self_s);
        ("replayer.replay_over_native", ratio replay.self_s native.self_s);
        ("validate.mismatches", float_of_int !mismatches);
      ]
      @ recorder_layers rstats;
    setup_s;
    setup_wins;
    window = (lo, hi);
    sites;
  }

(* ------------------------------------------------------------------ *)
(* service                                                             *)
(* ------------------------------------------------------------------ *)

let session_steps = 5_000
let queue_capacity = 64

let service_workload cfg : measured =
  let (sessions, sites), setup_s, setup_wins =
    setup cfg (fun () ->
        let corpus =
          Array.of_list
            (List.map
               (fun (bm : Workloads.benchmark) -> (bm, prepare (Workloads.generate bm.params)))
               Workloads.all)
        in
        let nc = Array.length corpus in
        let n = if cfg.smoke then 2 * nc else 25 * nc in
        ( Array.init n (fun i ->
              let bm, (pp, _) = corpus.(i mod nc) in
              Service.session ~label:bm.name ~seed:(cfg.seed + i) ~max_steps:session_steps
                ~sched:(fun () -> Workloads.scheduler ~seed:(cfg.seed + 1000 + i) bm)
                pp),
          Array.fold_left (fun a (_, (_, s)) -> a + s) 0 corpus ))
  in
  let n = Array.length sessions in
  (* Warm-up: one serial pass assigns every runtime intern id in session
     order, so later passes log the same bytes; its per-session digests are
     the reference for every timed pass. *)
  let reference, _ =
    Trace.span "service.run" (fun () ->
        Engine.Pool.with_pool ~size:1 (fun p1 ->
            Service.run ~pool:p1 ~queue_capacity ~keep_logs:true sessions))
  in
  let ref_digest = Array.map (fun (r : Service.result_) -> r.sr_digest) reference in
  let ref_steps = Array.map (fun (r : Service.result_) -> r.sr_steps) reference in
  let total_steps = float_of_int (Array.fold_left ( + ) 0 ref_steps) in
  let logs =
    Array.to_list
      (Array.map
         (fun (r : Service.result_) ->
           ((match r.sr_log with Some l -> String.length l | None -> 0), r.sr_steps))
         reference)
  in
  let bytes = List.fold_left (fun a (b, _) -> a + b) 0 logs in
  let bytes_per_kstep = log_bytes_per_kstep logs in
  let longs = Array.fold_left (fun a (r : Service.result_) -> a + r.sr_space_longs) 0 reference in
  Array.iter
    (fun (r : Service.result_) ->
      let ok = r.sr_status = Service.Done in
      if not ok then complain r.sr_label "reference session did not finish";
      note_op ok)
    reference;
  let pool = Engine.Pool.get_default () in
  let passes = ref [] in  (* (service s, native s) *)
  let latencies = ref [] and stats = ref [] and results = ref [] in
  let round r =
    let service () =
      timed (fun () ->
          Trace.span "service.run" (fun () ->
              Service.run ~pool ~queue_capacity ~on_full:`Park sessions))
    in
    let native () =
      timed (fun () ->
          Trace.span "runtime.native" (fun () ->
              Engine.Pool.map_array pool sessions ~f:(fun _ (s : Service.session) ->
                  (Interp.run_compiled ~plan:(Light.prepared_plan s.ss_prepared)
                     ~max_steps:s.ss_max_steps ~seed:s.ss_seed ~sched:(s.ss_sched ())
                     (Light.prepared_compiled s.ss_prepared))
                    .steps)))
    in
    guarded "service" (fun () ->
        let (nsteps, tn), ((res, st), ts) = pair ~native_first:(r land 1 = 0) native service in
        Trace.span "validate.check" (fun () ->
            Array.iteri
              (fun i (x : Service.result_) ->
                let ok =
                  x.sr_status = Service.Done
                  && x.sr_digest = ref_digest.(i)
                  && nsteps.(i) = ref_steps.(i)
                in
                if not ok then complain x.sr_label "session differs from the reference pass";
                note_op ok)
              res);
        if r >= 0 then begin
          passes := (ts, tn) :: !passes;
          latencies := Array.to_list (Service.latencies res) :: !latencies;
          report cfg "  pass %d: service %.3f s, native %.3f s\n%!" r ts tn;
          stats := st :: !stats;
          results := res :: !results
        end)
  in
  let lo, hi = run_rounds cfg ~min_rounds:5 round in
  let agg = Trace.aggregate ~lo ~hi in
  let fl = float_of_int in
  let over_results f = fsum (fun res -> Array.fold_left (fun a x -> a +. f x) 0.0 res) !results in
  let med_stat f = median (List.map (fun (st : Service.stats) -> fl (f st)) !stats) in
  {
    e2e =
      [
        ("overhead_x", median (List.map (fun (s, nt) -> s /. nt) !passes));
        ("steps_per_s", median (List.map (fun (s, _) -> total_steps /. s) !passes));
        ("ops_per_s", median (List.map (fun (s, _) -> fl n /. s) !passes));
        ("op_p50_ms", 1000.0 *. op_pctl 50.0 !latencies);
        ("op_p90_ms", 1000.0 *. op_pctl 90.0 !latencies);
        ("log_bytes_per_kstep", bytes_per_kstep);
      ];
    layers =
      [
        ( "runtime.native_steps_per_s",
          ratio (total_steps *. fl (List.length !passes)) (Trace.get agg "runtime.native").self_s );
        ("recorder.space_longs_per_kstep", 1000.0 *. ratio (fl longs) total_steps);
        ("log.bytes", fl bytes);
        ( "service.queue_wait_frac",
          ratio
            (over_results (fun (x : Service.result_) -> x.sr_queue_s))
            (over_results (fun (x : Service.result_) -> x.sr_queue_s +. x.sr_run_s)) );
        ( "service.run_steps_per_s",
          ratio
            (over_results (fun (x : Service.result_) -> fl x.sr_steps))
            (over_results (fun (x : Service.result_) -> x.sr_run_s)) );
        ("service.inline_frac", ratio (med_stat (fun st -> st.st_inline_runs)) (fl n));
        ("service.recorders_created", med_stat (fun st -> st.st_recorders_created));
        ("bqueue.peak", med_stat (fun st -> st.st_queue.bq_peak));
        ("bqueue.blocked_pushes", med_stat (fun st -> st.st_queue.bq_blocked_pushes));
        ("bqueue.blocked_pops", med_stat (fun st -> st.st_queue.bq_blocked_pops));
      ];
    setup_s;
    setup_wins;
    window = (lo, hi);
    sites;
  }

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* per-layer values every workload measures the same way *)
let common_layers (ms : measured) =
  let lo, hi = ms.window in
  let setup_ms name =
    median
      (List.map
         (fun (a, b) -> 1000.0 *. (Trace.get (Trace.aggregate ~lo:a ~hi:b) name).self_s)
         ms.setup_wins)
  in
  let agg = Trace.aggregate ~lo ~hi in
  (* share of the timed phase, not counting the collections between operations *)
  let busy = hi -. lo -. (Trace.get agg "bench.gc").dur_s in
  let share name = 100.0 *. ratio (Trace.get agg name).self_s busy in
  let items = Trace.items ~lo ~hi in
  [
    ("lang.parse_ms", setup_ms "lang.parse");
    ("lang.compile_ms", setup_ms "lang.compile");
    ("instrument.transform_ms", setup_ms "instrument.transform");
    ("instrument.sites", float_of_int ms.sites);
    ("runtime.native_pct", share "runtime.native");
    ("recorder.record_pct", share "recorder.record");
    ("log.serialize_pct", share "log.serialize");
    ("log.parse_pct", share "log.parse");
    ("constraints.generate_pct", share "constraints.generate");
    ("solver.solve_pct", share "solver.solve");
    ("replayer.schedule_pct", share "replayer.schedule");
    ("replayer.replay_pct", share "replayer.replay");
    ("validate.check_pct", share "validate.check");
    ("service.run_pct", share "service.run");
    ("trace.glue_pct", 100.0 *. ratio (fsum snd items) (fsum fst items));
  ]

(** Run one workload in this process.  Per-layer values are included
    when tracing is on; a layer the workload never calls reads 0. *)
let run cfg (name : string) : result =
  attempted := 0;
  failed := 0;
  let ms =
    match name with
    | "record-contended" -> record_workload cfg contended
    | "record-local" -> record_workload cfg local
    | "reproduce" -> reproduce_workload cfg
    | "service" -> service_workload cfg
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  let e2e =
    ms.e2e
    @ [
        ("setup_s", ms.setup_s);
        ("peak_rss_mb", float_of_int (Report.Experiments.vm_hwm_kb ()) /. 1024.0);
      ]
  in
  let layers =
    if !Trace.enabled then
      let given = common_layers ms @ ms.layers in
      List.map
        (fun mt -> (mt.name, Option.value ~default:0.0 (List.assoc_opt mt.name given)))
        per_layer
    else []
  in
  { attempted = !attempted; failed = !failed; values = e2e @ layers }
