(** The [light] command-line tool: parse, analyze, run, record, solve and
    replay concurrent programs written in the subject language (.cl files).

    Typical session:
    {v
      light run prog.cl --seed 3
      light analyze prog.cl
      light record prog.cl --seed 3 -o prog.log
      light replay prog.cl prog.log
      light bugs                # reproduce the 8-bug suite (Figure 6)
      light weave prog.cl       # show the instrumented source
    v} *)

open Cmdliner

(* Every file the tool reads or writes (program, log, reproducer, [-o])
   goes through these two: an I/O error prints [light: <path>: <reason>]
   and exits 1, instead of escaping as an uncaught exception. *)
let file_error path msg =
  (* [Sys_error] messages usually, but not always, start with the path *)
  let prefix = path ^ ": " in
  let reason =
    if String.starts_with ~prefix msg then
      String.sub msg (String.length prefix) (String.length msg - String.length prefix)
    else msg
  in
  Printf.eprintf "light: %s: %s\n" path reason;
  exit 1

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> file_error path msg

let write_file path contents =
  try Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents)
  with Sys_error msg -> file_error path msg

let read_program path =
  match Lang.Parser.parse_program (read_file path) with
  | exception (Lang.Lexer.Lex_error (msg, line) | Lang.Parser.Parse_error (msg, line))
    ->
    Error (Printf.sprintf "%s:%d: %s" path line msg)
  | p -> (
    match Lang.Check.validate p with
    | [] -> Ok p
    | errs ->
      Error (String.concat "\n" (List.map Lang.Check.error_to_string errs)))

let or_die = function
  | Ok x -> x
  | Error msg ->
    prerr_endline msg;
    exit 1

let sched_of ~seed ~stickiness =
  if stickiness <= 1 then Runtime.Sched.random ~seed
  else Runtime.Sched.sticky ~seed ~stickiness

let print_outcome (o : Runtime.Interp.outcome) =
  List.iter
    (fun (tid, lines) ->
      List.iter (fun l -> Printf.printf "[thread %d] %s\n" tid l) lines)
    o.outputs;
  List.iter
    (fun (c : Runtime.Interp.crash) ->
      Printf.printf "!! thread %d crashed at line %d (D=%d): %s\n" c.tid c.line c.c c.msg)
    o.crashes;
  (match o.status with
  | Runtime.Interp.AllFinished -> ()
  | Deadlock ts ->
    Printf.printf "!! deadlock: threads %s blocked\n"
      (String.concat "," (List.map string_of_int ts))
  | GateStuck _ -> print_endline "!! replay gate stuck (schedule infeasible)"
  | StepLimit -> print_endline "!! step limit exceeded");
  Printf.printf "(%d steps, %d threads)\n" o.steps (List.length o.counters)

(* For each thread of a stalled replay, the event it waits for, then
   what holds the cursor; [fence] gives a v4 chunk's end-of-epoch counter
   per thread *)
let print_waits (sch : Light_core.Replayer.schedule) ~fence ~counters ts =
  List.iter
    (fun tid ->
      let c = Option.value (List.assoc_opt tid counters) ~default:0 + 1 in
      if c > fence tid then
        Printf.printf "!! thread %d waits at counter %d: past the epoch's end (counter %d)\n"
          tid c (fence tid)
      else print_endline ("!! " ^ Light_core.Replayer.describe_wait sch ~tid ~c))
    ts;
  Option.iter
    (fun line -> print_endline ("!! " ^ line))
    (Light_core.Replayer.describe_cursor sch ~counters)

(* A replay that stalls on the gate or runs out of steps did not follow
   the recorded run; a deadlock may be the recorded behaviour itself. *)
let replay_diverged : Runtime.Interp.status_summary -> bool = function
  | GateStuck _ | StepLimit -> true
  | AllFinished | Deadlock _ -> false

(* ---- common args ---- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"PROGRAM.cl" ~doc:"Subject program")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Scheduler random seed")

let stick_arg =
  Arg.(value & opt int 8 & info [ "stickiness" ] ~doc:"Scheduler run-length (1 = uniform random)")

let variant_conv =
  Arg.enum
    [ ("basic", Light_core.Light.v_basic); ("o1", Light_core.Light.v_o1);
      ("both", Light_core.Light.v_both) ]

let variant_arg =
  Arg.(value & opt variant_conv Light_core.Light.v_both
       & info [ "variant" ] ~doc:"Recorder variant: basic | o1 | both")

let jobs_arg =
  Arg.(value & opt int 0
       & info [ "j"; "jobs" ]
           ~doc:
             "Worker domains for batch experiments (0 = honor LIGHT_JOBS, \
              else one per core capped at 8).  Results are merged in job \
              order, so output is identical for any value.")

(* 0 = the shared default pool (sized from LIGHT_JOBS / core count) *)
let pool_of jobs =
  if jobs <= 0 then Engine.Pool.get_default () else Engine.Pool.create ~size:jobs ()

(* ---- subcommands ---- *)

let run_cmd =
  let run file seed stickiness trace =
    let p = or_die (read_program file) in
    let plan = (Instrument.Transformer.transform p).plan in
    let o =
      Runtime.Interp.run ~plan ~collect_trace:trace ~sched:(sched_of ~seed ~stickiness) p
    in
    print_outcome o;
    if trace then
      List.iter
        (fun a -> Format.printf "%a@." Runtime.Event.pp_access a)
        o.trace
  in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Dump the shared-access trace") in
  Cmd.v (Cmd.info "run" ~doc:"Execute a program under a seeded scheduler")
    Term.(const run $ file_arg $ seed_arg $ stick_arg $ trace)

(* [analyze], [disasm]: the positional target is a .cl file or a built-in
   workload name. *)
let resolve_target (target : string) : Lang.Ast.program =
  if Sys.file_exists target then or_die (read_program target)
  else
    match Workloads.by_name target with
    | Some bm -> Workloads.program bm
    | None ->
      or_die
        (Error
           (Printf.sprintf
              "%s: neither a .cl file nor a workload name\nworkloads: %s"
              target
              (String.concat " "
                 (List.map (fun (b : Workloads.benchmark) -> b.name) Workloads.all))))

let analyze_cmd =
  let run target weave json =
    let p = resolve_target target in
    let tr = Instrument.Transformer.transform p in
    let a = tr.analysis in
    if json then begin
      print_endline
        (Analysis.Lint.Json.to_string
           (Analysis.Lint.analysis_json a ~instrumented:tr.instrumented_sites
              ~guarded:tr.guarded_sites ~total_sites:tr.total_access_sites));
      exit 0
    end;
    print_endline (Analysis.Analyze.summary a);
    Printf.printf "\n  %-18s %-6s %-10s sites (lines)\n" "target" "shared" "guard";
    Analysis.Analyze.TM.iter
      (fun _ (tc : Analysis.Analyze.target_class) ->
        Printf.printf "  %-18s %-6b %-10s %s\n"
          (Analysis.Sites.target_to_string tc.target)
          tc.shared
          (match tc.guarded_by with Some l -> l | None -> "-")
          (String.concat ","
             (List.map (fun (i : Analysis.Sites.info) -> string_of_int i.line) tc.sites)))
      a.targets;
    if a.races <> [] then begin
      Printf.printf "\npotential races (shared, unguarded, >=1 write):\n";
      List.iter
        (fun (r : Analysis.Analyze.race_pair) ->
          Printf.printf "  %s: line %d <-> line %d\n"
            (Analysis.Sites.target_to_string r.on) r.t1.line r.t2.line)
        a.races
    end;
    Printf.printf "\ninstrumented sites: %d of %d; lock-guarded (O2): %d\n"
      tr.instrumented_sites tr.total_access_sites tr.guarded_sites;
    if weave then begin
      Printf.printf "\ninstrumented source:\n";
      Format.printf "%a@." Lang.Pp.pp_program (Instrument.Transformer.weave tr p)
    end
  in
  let target_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PROGRAM" ~doc:"A .cl file or a built-in workload name")
  in
  let weave_flag =
    Arg.(value & flag & info [ "weave" ] ~doc:"Also print the woven source under the plan")
  in
  let json_flag =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the full classification and race list as JSON (lint schema)")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Static analysis: classification, guards, races, instrumented sites")
    Term.(const run $ target_arg $ weave_flag $ json_flag)

(* [lint] additionally accepts the Figure-6 bug names, so the race report
   can be pointed straight at the paper's defects *)
let lint_cmd =
  let resolve (target : string) : Lang.Ast.program =
    if Sys.file_exists target then or_die (read_program target)
    else
      match Workloads.by_name target with
      | Some bm -> Workloads.program bm
      | None -> (
        match Bugs.Defs.by_name target with
        | Some b -> Lang.Check.validate_exn (Lang.Parser.parse_program (b.source 1))
        | None ->
          or_die
            (Error
               (Printf.sprintf
                  "%s: not a .cl file, workload or bug name\nworkloads: %s\nbugs: %s"
                  target
                  (String.concat " "
                     (List.map (fun (b : Workloads.benchmark) -> b.name) Workloads.all))
                  (String.concat " "
                     (List.map (fun (b : Bugs.Defs.bug) -> b.name) Bugs.Defs.all)))))
  in
  let run target json =
    let p = resolve target in
    let a = Analysis.Analyze.analyze p in
    if json then
      print_endline (Analysis.Lint.Json.to_string (Analysis.Lint.report_json a))
    else print_string (Analysis.Lint.report a)
  in
  let target_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PROGRAM"
             ~doc:"A .cl file, a built-in workload name, or a Figure-6 bug name")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Ranked static race report: site pairs that survive every elision \
          argument, with MHP witnesses and Eraser lockset evidence")
    Term.(const run $ target_arg $ json_flag)

(* per-site dynamic hit counts, hottest first, so perf work can target
   actual hot sites rather than geomeans.  In epoch mode the counts are
   the recorder's cumulative totals across every sealed epoch. *)
let print_profile (p : Lang.Ast.program) (site_hits : int array) (topn : int) =
  let stmts : (int, Lang.Ast.stmt) Hashtbl.t = Hashtbl.create 64 in
  Lang.Ast.fold_stmts (fun () (s : Lang.Ast.stmt) -> Hashtbl.replace stmts s.sid s) () p;
  let sites = ref [] in
  Array.iteri
    (fun sid hits -> if hits > 0 then sites := (sid, hits) :: !sites)
    site_hits;
  let sites = List.sort (fun (_, a) (_, b) -> compare (b : int) a) !sites in
  let total = List.fold_left (fun a (_, h) -> a + h) 0 sites in
  Printf.printf "\nsite profile: %d instrumented accesses over %d hot sites"
    total (List.length sites);
  if List.length sites > topn then Printf.printf " (top %d shown)" topn;
  Printf.printf "\n";
  List.iteri
    (fun i (sid, hits) ->
      if i < topn then
        match Hashtbl.find_opt stmts sid with
        | Some s ->
          Printf.printf "  %8d  sid %-4d line %-4d %s\n" hits sid s.line
            (Lang.Pp.stmt_to_string s)
        | None -> Printf.printf "  %8d  sid %-4d (sync ghost)\n" hits sid)
    sites

let disasm_cmd =
  let run target =
    let p = resolve_target target in
    let bp = Lang.Compile.lower (Runtime.Interp.compile p) in
    (* sid -> source statement, the same mapping --profile prints *)
    let stmts : (int, Lang.Ast.stmt) Hashtbl.t = Hashtbl.create 64 in
    Lang.Ast.fold_stmts
      (fun () (s : Lang.Ast.stmt) -> Hashtbl.replace stmts s.sid s)
      () p;
    let annot sid =
      Option.map
        (fun (s : Lang.Ast.stmt) ->
          (* compound statements render their whole body: keep the head line *)
          let txt = Lang.Pp.stmt_to_string s in
          match String.index_opt txt '\n' with
          | Some i -> String.sub txt 0 i ^ " ..."
          | None -> txt)
        (Hashtbl.find_opt stmts sid)
    in
    print_string (Lang.Bytecode.disassemble ~annot bp)
  in
  let target_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PROGRAM" ~doc:"A .cl file or a built-in workload name")
  in
  Cmd.v
    (Cmd.info "disasm"
       ~doc:
         "Print the register-bytecode listing (site ids, source lines, \
          statement boundaries) so hot-site profiles map onto the \
          instruction stream")
    Term.(const run $ target_arg)

let record_cmd =
  let run file seed stickiness variant out profile epoch =
    let p = or_die (read_program file) in
    if epoch > 0 then begin
      (* epoch mode: checkpoint + seal every [epoch] steps, write v4 *)
      let pp = Light_core.Light.prepare ~variant p in
      let r =
        Light_core.Epoch.record_epochs ~sched:(sched_of ~seed ~stickiness)
          ~epoch_len:epoch pp
      in
      print_outcome r.er_outcome;
      let chunks = r.er_file.f_chunks in
      let longs =
        List.fold_left
          (fun a (ck : Light_core.Epoch.chunk) -> a + Light_core.Log.space_longs ck.ck_log)
          0 chunks
      in
      Printf.printf "recorded %d epoch(s) of %d steps, %d longs total\n"
        (List.length chunks) epoch longs;
      List.iter
        (fun (ck : Light_core.Epoch.chunk) ->
          Printf.printf
            "  epoch %d: steps %d..%d, %d deps + %d ranges, clock %d\n" ck.ck_idx
            ck.ck_start_steps ck.ck_steps
            (Light_core.Log.n_deps ck.ck_log)
            (Light_core.Log.n_ranges ck.ck_log)
            ck.ck_clock)
        chunks;
      (match profile with
      | None -> ()
      | Some topn -> print_profile p r.er_site_hits topn);
      match out with
      | Some path ->
        write_file path (Light_core.Epoch.to_string_v4 r.er_file);
        Printf.printf "v4 log written to %s\n" path
      | None -> ()
    end
    else begin
      let r = Light_core.Light.record ~variant ~sched:(sched_of ~seed ~stickiness) p in
      print_outcome r.outcome;
      Printf.printf "recorded %d deps + %d ranges = %d longs (overhead %.0f%%)\n"
        (Light_core.Log.n_deps r.log) (Light_core.Log.n_ranges r.log) r.space_longs
        (100. *. r.overhead);
      (match profile with
      | None -> ()
      | Some topn -> print_profile p r.site_hits topn);
      match out with
      | Some path ->
        write_file path (Light_core.Log.to_string r.log);
        Printf.printf "log written to %s\n" path
      | None -> ()
    end
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Write the log here")
  in
  let profile =
    Arg.(
      value
      & opt ~vopt:(Some 10) (some int) None
      & info [ "profile" ] ~docv:"N"
          ~doc:"Print per-site hit counts and the $(docv) hottest instrumented sites")
  in
  let epoch =
    Arg.(
      value & opt int 0
      & info [ "epoch" ] ~docv:"N"
          ~doc:
            "Epoch-based recording: checkpoint the interpreter and seal the \
             log every $(docv) steps, writing format v4 (0 = monolithic v3)")
  in
  Cmd.v (Cmd.info "record" ~doc:"Record a run with the Light recorder")
    Term.(const run $ file_arg $ seed_arg $ stick_arg $ variant_arg $ out $ profile $ epoch)

let replay_cmd =
  let print_solve (report : Light_core.Replayer.solve_report) =
    Printf.printf
      "generated %d noninterference pairs -> %d clauses (%d entailed, %d unit, %d dedup) in %.3fs\n"
      report.gen_stats.n_pairs report.n_clauses report.gen_stats.n_pruned
      report.gen_stats.n_unit report.gen_stats.n_dedup report.gen_stats.gen_time_s;
    Printf.printf "solved %d vars, %d clauses in %.3fs (%d decisions, %d backtracks, %d conflicts)\n"
      report.n_vars report.n_clauses report.solve_time_s report.solver_stats.decisions
      report.solver_stats.backtracks report.solver_stats.theory_conflicts
  in
  (* true when every chunk replayed to its epoch's end *)
  let replay_chunks (p : Lang.Ast.program) (f : Light_core.Epoch.file) ks =
    let variant = { Light_core.Light.o1 = f.f_o1; o2 = f.f_o2 } in
    let pp = Light_core.Light.prepare ~variant p in
    List.fold_left
      (fun all_ok k ->
        match if k < 0 then None else List.nth_opt f.f_chunks k with
        | None ->
          or_die
            (Error (Printf.sprintf "no epoch %d (log has %d)" k (List.length f.f_chunks)))
        | Some ck -> (
          Printf.printf "== epoch %d (steps %d..%d) ==\n" ck.Light_core.Epoch.ck_idx
            ck.ck_start_steps ck.ck_steps;
          match Light_core.Epoch.replay_chunk pp ck with
          | Error e -> or_die (Error e)
          | Ok rr ->
            print_solve rr.rr_report;
            Printf.printf "replayed %d step(s)\n" rr.rr_steps;
            List.iter
              (fun (tid, lines) ->
                List.iter (fun l -> Printf.printf "[thread %d] %s\n" tid l) lines)
              rr.rr_obs.Runtime.Vm.obs_outputs;
            (* an interior epoch ends on the fence, so the gate stalls by
               design once every thread reaches its watermark *)
            let ok =
              match rr.rr_status with
              | GateStuck _ -> rr.rr_complete
              | s -> not (replay_diverged s)
            in
            if not ok then
              Printf.printf "!! epoch %d: replay stopped short of the epoch's end\n" k;
            (match rr.rr_status, rr.rr_report.schedule with
            | GateStuck ts, Some sch when not rr.rr_complete ->
              let fence tid = Option.value (List.assoc_opt tid ck.ck_log.counters) ~default:0 in
              print_waits sch ~fence ~counters:rr.rr_counters ts
            | _ -> ());
            all_ok && ok))
      true ks
  in
  let run file logfile epoch =
    let p = or_die (read_program file) in
    let txt = read_file logfile in
    (* a malformed log is an error naming the file and the place, not an
       uncaught exception *)
    let parse of_string =
      match of_string txt with
      | Ok l -> l
      | Error (e : Light_core.Log.error) ->
        or_die
          (Error (Printf.sprintf "bad log %s: line %d (byte %d): %s" logfile e.line e.byte e.msg))
    in
    if Light_core.Epoch.is_v4 txt then begin
      let f = parse Light_core.Epoch.of_string_v4 in
      let ks =
        match epoch with
        | Some k -> [ k ]
        | None -> List.mapi (fun i _ -> i) f.f_chunks
      in
      if not (replay_chunks p f ks) then exit 1
    end
    else begin
      (match epoch with
      | Some _ ->
        or_die (Error "--epoch requires a v4 log (record with --epoch N)")
      | None -> ());
      let log = parse Light_core.Log.parse in
      let report = Light_core.Replayer.solve log in
      match report.schedule with
      | None ->
        or_die
          (Error
             (match report.exhausted with
             | Some b -> Light_core.Replayer.budget_exhausted b
             | None -> "constraint system unsatisfiable"))
      | Some sch ->
        print_solve report;
        let plan = (Instrument.Transformer.transform p).plan in
        let o = Light_core.Replayer.replay p ~plan sch in
        print_outcome o;
        (match o.status with
        | GateStuck ts -> print_waits sch ~fence:(fun _ -> max_int) ~counters:o.counters ts
        | _ -> ());
        if replay_diverged o.status then exit 1
    end
  in
  let log_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"LOG" ~doc:"Recorded log file")
  in
  let epoch =
    Arg.(
      value & opt (some int) None
      & info [ "epoch" ] ~docv:"K"
          ~doc:
            "Replay only epoch $(docv) of a v4 log, from its checkpoint — \
             O(epoch) work (default: every epoch in order)")
  in
  Cmd.v (Cmd.info "replay" ~doc:"Compute a schedule from a log and replay it")
    Term.(const run $ file_arg $ log_arg $ epoch)

let roundtrip_cmd =
  let run file seed stickiness variant =
    let p = or_die (read_program file) in
    match
      Light_core.Light.record_and_replay ~variant ~sched:(sched_of ~seed ~stickiness) p
    with
    | Error e -> or_die (Error e)
    | Ok (r, rr) ->
      Printf.printf "original:\n";
      print_outcome r.outcome;
      Printf.printf "replay:\n";
      print_outcome rr.replay_outcome;
      if rr.faithful = [] then print_endline "REPLAY FAITHFUL (Theorem 1 observables match)"
      else begin
        print_endline "REPLAY MISMATCH:";
        List.iter (fun m -> print_endline ("  " ^ m)) rr.faithful
      end;
      if rr.faithful <> [] || replay_diverged rr.replay_outcome.status then exit 1
  in
  Cmd.v (Cmd.info "roundtrip" ~doc:"Record, solve, replay and verify determinism")
    Term.(const run $ file_arg $ seed_arg $ stick_arg $ variant_arg)

let weave_cmd =
  let run file =
    let p = or_die (read_program file) in
    let tr = Instrument.Transformer.transform p in
    Printf.printf "%d/%d sites instrumented, %d lock-guarded (O2)\n\n"
      tr.instrumented_sites tr.total_access_sites tr.guarded_sites;
    Format.printf "%a@." Lang.Pp.pp_program (Instrument.Transformer.weave tr p)
  in
  Cmd.v (Cmd.info "weave" ~doc:"Show the instrumented source view")
    Term.(const run $ file_arg)

let bugs_cmd =
  let run tries jobs =
    Report.Experiments.fig6 ~tries ~pool:(pool_of jobs) () Format.std_formatter
  in
  let tries = Arg.(value & opt int 60 & info [ "tries" ] ~doc:"Trigger search budget") in
  Cmd.v (Cmd.info "bugs" ~doc:"Reproduce the 8-bug suite (Figure 6)")
    Term.(const run $ tries $ jobs_arg)

let bench_cmd =
  let run jobs =
    let ms = Report.Experiments.measure_all ~pool:(pool_of jobs) () in
    Report.Experiments.fig4 ms Format.std_formatter;
    Report.Experiments.fig5 ms Format.std_formatter;
    Report.Experiments.fig7 ms Format.std_formatter
  in
  Cmd.v (Cmd.info "bench" ~doc:"Run the 24-benchmark overhead comparison (Figures 4/5/7)")
    Term.(const run $ jobs_arg)

(* ---- schedule-space exploration ---- *)

let context_of ~seed ~stickiness file =
  let p = or_die (read_program file) in
  let make_sched () = sched_of ~seed ~stickiness in
  (p, or_die (Explore.make_context ~make_sched p))

let explore_cmd =
  let run file seed stickiness limit jobs =
    let _, ctx = context_of ~seed ~stickiness file in
    let results = Explore.explore ~pool:(pool_of jobs) ~limit ctx in
    Printf.printf "%d flip candidate(s) from the recorded run:\n\n" (List.length results);
    List.iter
      (fun (r : Explore.explored) ->
        Format.printf "  %-10s %a  (solve %.4fs)%s@."
          (Explore.verdict_name r.ex_verdict)
          Explore.pp_flip r.ex_flip r.ex_solve_s
          (if r.ex_validate <> [] then "  INVALID: " ^ String.concat "; " r.ex_validate
           else "");
        match r.ex_verdict with
        | Explore.Crashed cs ->
          List.iter
            (fun (c : Runtime.Interp.crash) ->
              Printf.printf "      !! thread %d crashes at line %d: %s\n" c.tid c.line c.msg)
            cs
        | Explore.Divergent ds ->
          List.iteri (fun i d -> if i < 3 then Printf.printf "      ~ %s\n" d) ds
        | _ -> ())
      results;
    let count v =
      List.length
        (List.filter (fun (r : Explore.explored) ->
             Explore.verdict_name r.ex_verdict = v) results)
    in
    Printf.printf
      "\n%d same, %d divergent, %d crashed, %d stuck, %d infeasible, %d aborted\n"
      (count "same") (count "divergent") (count "crashed") (count "stuck")
      (count "infeasible") (count "aborted")
  in
  let limit =
    Arg.(value & opt int 32 & info [ "limit" ] ~doc:"Max flip candidates to evaluate")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Record one run, then enumerate feasible alternative schedules by \
          flipping racy access pairs and re-solving the constraint system")
    Term.(const run $ file_arg $ seed_arg $ stick_arg $ limit $ jobs_arg)

let hunt_cmd =
  let run file seed stickiness limit depth out jobs =
    let _, ctx = context_of ~seed ~stickiness file in
    if ctx.recording.outcome.crashes <> [] then
      or_die
        (Error
           "the recorded run already crashes; hunt starts from a passing run \
            (try another --seed)");
    let hr = Explore.hunt ~pool:(pool_of jobs) ~limit ~depth ctx in
    match hr.hr_repro with
    | None ->
      Printf.printf "no crashing schedule found (%d flip sets tried)\n" hr.hr_tried
    | Some rp ->
      Printf.printf "found a crashing schedule after %d flip set(s); minimal flips:\n"
        hr.hr_tried;
      List.iter (fun f -> Format.printf "  %a@." Explore.pp_flip f) rp.rp_flips;
      (match hr.hr_outcome with
      | Some o ->
        List.iter
          (fun (c : Runtime.Interp.crash) ->
            Printf.printf "  !! thread %d crashes at line %d: %s\n" c.tid c.line c.msg)
          o.crashes
      | None -> ());
      write_file out (Explore.reproducer_to_string rp);
      Printf.printf "reproducer written to %s\n" out
  in
  let limit =
    Arg.(value & opt int 32 & info [ "limit" ] ~doc:"Max flip candidates per level")
  in
  let depth =
    Arg.(value & opt int 2 & info [ "depth" ] ~doc:"Max flips combined in one schedule")
  in
  let out =
    Arg.(value & opt string "repro.light" & info [ "o"; "output" ] ~doc:"Reproducer file")
  in
  Cmd.v
    (Cmd.info "hunt"
       ~doc:
         "Flaky-test harness: record a passing run, search schedule space by \
          flip distance for a failing schedule, emit a minimal replayable \
          reproducer")
    Term.(const run $ file_arg $ seed_arg $ stick_arg $ limit $ depth $ out $ jobs_arg)

let serve_cmd =
  let run target sessions seed stickiness variant engine steps queue jobs
      no_recycle reject =
    let p = resolve_target target in
    let pp = Light_core.Light.prepare ~variant p in
    let sess =
      Array.init sessions (fun i ->
          Service.session ~label:(Printf.sprintf "%s#%d" target i) ~engine
            ~seed:(seed + i) ~max_steps:steps
            ~sched:(fun () -> sched_of ~seed:(seed + i) ~stickiness)
            pp)
    in
    let results, stats =
      Service.run ~pool:(pool_of jobs) ~queue_capacity:queue
        ~recycle:(not no_recycle)
        ~on_full:(if reject then `Reject else `Park)
        sess
    in
    (* the corpus digest hashes every per-session digest in session order:
       one line of determinism evidence for any worker/shard/recycle config *)
    let corpus_digest =
      Digest.to_hex
        (Digest.string
           (String.concat ""
              (Array.to_list (Array.map (fun r -> r.Service.sr_digest) results))))
    in
    Printf.printf "%d sessions: %d done, %d rejected, %d failed\n"
      stats.Service.st_sessions stats.Service.st_done stats.Service.st_rejected
      stats.Service.st_failed;
    Printf.printf "corpus digest %s (deterministic for any --jobs)\n" corpus_digest;
    Array.iter
      (fun (r : Service.result_) ->
        match r.Service.sr_status with
        | Service.Failed msg -> Printf.printf "!! %s: %s\n" r.Service.sr_label msg
        | _ -> ())
      results;
    if Sys.getenv_opt "LIGHT_TIMINGS" = Some "1" then begin
      let lat = Service.latencies results in
      Printf.printf
        "workers %d, recorders created %d, inline runs %d, queue peak %d\n"
        stats.Service.st_workers stats.Service.st_recorders_created
        stats.Service.st_inline_runs
        stats.Service.st_queue.Engine.Bqueue.bq_peak;
      Printf.printf "latency p50 %.2fms, p99 %.2fms\n"
        (1000. *. Service.percentile 50. lat)
        (1000. *. Service.percentile 99. lat)
    end;
    if stats.Service.st_failed > 0 then exit 1
  in
  let target_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PROGRAM" ~doc:"A .cl file or a built-in workload name")
  in
  let sessions =
    Arg.(value & opt int 100 & info [ "sessions" ] ~doc:"Number of sessions to record")
  in
  let steps =
    Arg.(value & opt int 500
         & info [ "steps" ] ~doc:"Per-session recording window (interpreter steps)")
  in
  let queue =
    Arg.(value & opt int 64 & info [ "queue" ] ~doc:"Submission queue capacity")
  in
  let engine_arg =
    Arg.(value
         & opt (enum [ ("tree", Runtime.Vm.Tree); ("vm", Runtime.Vm.Bytecode) ])
             Runtime.Vm.Bytecode
         & info [ "engine" ] ~doc:"Execution engine: tree | vm")
  in
  let no_recycle =
    Arg.(value & flag
         & info [ "no-recycle" ] ~doc:"Fresh recorder per session (no arena reuse)")
  in
  let reject =
    Arg.(value & flag
         & info [ "reject" ]
             ~doc:"Reject sessions when the queue is full instead of parking \
                   the submitter")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Drive many recording sessions of one program through the record \
          service (bounded queue, recycled recorder arenas); per-session \
          logs, and so the corpus digest, are byte-identical for any worker \
          count and from run to run (logs number fields by first use, not \
          by process-local intern ids)")
    Term.(const run $ target_arg $ sessions $ seed_arg $ stick_arg
          $ variant_arg $ engine_arg $ steps $ queue $ jobs_arg $ no_recycle
          $ reject)

let reproduce_cmd =
  let run file repro_file =
    let p = or_die (read_program file) in
    let rp =
      or_die
        (Result.map_error
           (Printf.sprintf "bad reproducer %s: %s" repro_file)
           (Explore.reproducer_of_string (read_file repro_file)))
    in
    match Explore.run_reproducer p rp with
    | Error e -> or_die (Error e)
    | Ok o ->
      print_outcome o;
      let got = List.sort compare (List.map (fun (c : Runtime.Interp.crash) -> (c.tid, c.site, c.msg)) o.crashes) in
      if got = List.sort compare rp.rp_expected then
        print_endline "REPRODUCED (crash signature matches the reproducer)"
      else begin
        print_endline "!! crash signature differs from the reproducer";
        exit 1
      end
  in
  let repro_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"REPRO" ~doc:"Reproducer file")
  in
  Cmd.v
    (Cmd.info "reproduce" ~doc:"Replay a reproducer emitted by hunt and check the failure")
    Term.(const run $ file_arg $ repro_arg)

let main =
  Cmd.group
    (Cmd.info "light" ~version:"1.0"
       ~doc:"Light: replay via tightly bounded recording (PLDI 2015)")
    [ run_cmd; analyze_cmd; lint_cmd; disasm_cmd; record_cmd; replay_cmd; roundtrip_cmd;
      weave_cmd; bugs_cmd; bench_cmd; explore_cmd; hunt_cmd; serve_cmd; reproduce_cmd ]

let () = exit (Cmd.eval main)
