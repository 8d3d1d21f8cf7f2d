(** Schedule-space exploration and flaky-test hunting (see explore.mli and
    DESIGN.md, "Schedule-space exploration: flip soundness and minimality").

    The pipeline for one flip set:

    + {e relax}: the read intervals touching each flipped pair — and the
      lock-acquisition intervals of the two flipped threads — lose their
      source pins ([Constraints.generate ~free]); the flip endpoints
      materialize as order variables ([~extra_events]);
    + {e invert}: one hard atom [O(b) < O(a)] per flip, appended after the
      base hard constraints;
    + {e re-solve}: [Idl.solve ?hint] seeded with the generation witness —
      the recorded schedule is a model of everything except the flip atoms,
      so the theory solver only relaxes the cone the flip actually moves;
    + {e validate}: {!Light_core.Validate.check ~free} — thread order,
      total order, and every dependence the relaxation kept;
    + {e re-execute}: replay with blind-write suppression off, so every
      executed step is a legal program step and any crash is a genuine
      interleaving;
    + {e classify}: crashes, divergence of the Theorem-1 observables or the
      final heap, stalls, infeasibility, or budget exhaustion — every
      candidate is accounted for, none silently dropped. *)

open Runtime
module Log = Light_core.Log
module Constraints = Light_core.Constraints

(* ------------------------------------------------------------------ *)
(* Flips                                                               *)
(* ------------------------------------------------------------------ *)

type flip = {
  fa : Log.evt;
  fb : Log.evt;
  f_loc : Loc.t;
  fa_site : int;
  fb_site : int;
  fa_kind : Event.akind;
  fb_kind : Event.akind;
  f_racy : bool;
}

let flip_key (f : flip) = (f.fa, f.fb, f.f_loc)

let pp_flip fmt (f : flip) =
  Fmt.pf fmt "%s(%d,%d)@@%d <-> %s(%d,%d)@@%d on %a%s"
    (Event.akind_str f.fa_kind) (fst f.fa) (snd f.fa) f.fa_site
    (Event.akind_str f.fb_kind) (fst f.fb) (snd f.fb) f.fb_site Loc.pp f.f_loc
    (if f.f_racy then " [racy]" else "")

let flip_compare (a : flip) (b : flip) = compare (flip_key a) (flip_key b)

let toggle (s : flip list) (f : flip) : flip list =
  if List.exists (fun g -> flip_key g = flip_key f) s then
    List.filter (fun g -> flip_key g <> flip_key f) s
  else List.sort flip_compare (f :: s)

(* ------------------------------------------------------------------ *)
(* Relaxation and solving                                              *)
(* ------------------------------------------------------------------ *)

let relaxation (log : Log.t) (flips : flip list) : Log.evt list * Log.evt list =
  let tb = Constraints.table_of_log log in
  let tids =
    List.concat_map (fun f -> [ fst f.fa; fst f.fb ]) flips |> List.sort_uniq compare
  in
  let free = Hashtbl.create 16 in
  (* the recorded intervals with a source pin *)
  for k = 0 to tb.n_base - 1 do
    if Constraints.has tb k Constraints.f_sourced then begin
      let loc = tb.locs.(tb.grank.(k)) and t = tb.tid.(k) in
      let touches ((et, ec) : Log.evt) = et = t && tb.lo.(k) <= ec && ec <= tb.hi.(k) in
      let involved =
        (* a data interval containing a flip endpoint on the flipped
           location: its read-from write may legitimately change *)
        List.exists
          (fun f -> Loc.equal loc f.f_loc && (touches f.fa || touches f.fb))
          flips
        (* lock-acquisition pins of the flipped threads: freeing them lets
           the two critical-section orders invert (the atomicity-violation
           case, where the racy pair itself is lock-protected); spawn/join
           and condition ghosts stay pinned — wakeup steering and thread
           lifetimes are not up for negotiation *)
        || (loc.Loc.fld = Loc.lock_fld && List.mem t tids)
      in
      if involved then Hashtbl.replace free (t, tb.lo.(k)) ()
    end
  done;
  let extra = Hashtbl.create 8 in
  List.iter
    (fun f ->
      Hashtbl.replace extra f.fa ();
      Hashtbl.replace extra f.fb ())
    flips;
  let keys t = Hashtbl.fold (fun k () acc -> k :: acc) t [] |> List.sort compare in
  (keys free, keys extra)

(* Critical sections reconstructed from the log alone: per lock location
   and thread, each recorded acquisition read pairs with the thread's next
   recorded write of the lock ghost (its release — possibly a wait's
   releasing write).  A release the log never references (no later acquire
   read it) degrades the section to its acquire point, which still excludes
   foreign acquires from sitting on it. *)
let lock_sections (log : Log.t) :
    (Loc.t * (Log.evt * Log.evt) list) list =
  let tb = Constraints.table_of_log log in
  Array.to_list (Array.mapi (fun g rows -> (tb.locs.(g), rows)) (Constraints.location_rows tb))
  |> List.filter (fun ((loc : Loc.t), _) -> loc.fld = Loc.lock_fld)
  |> List.map (fun (loc, rows) ->
         let per_tid : (int, (int * bool) list ref) Hashtbl.t = Hashtbl.create 4 in
         List.iter
           (fun k ->
             let entry = (tb.lo.(k), Constraints.has tb k Constraints.f_writes) in
             match Hashtbl.find_opt per_tid tb.tid.(k) with
             | Some l -> l := entry :: !l
             | None -> Hashtbl.add per_tid tb.tid.(k) (ref [ entry ]))
           rows;
         let sections =
           Hashtbl.fold
             (fun t l acc ->
               let sorted = List.sort compare !l in
               let rec walk = function
                 | (c, false) :: rest ->
                   let rel =
                     List.find_map (fun (c', w) -> if w then Some c' else None) rest
                   in
                   ((t, c), (t, Option.value ~default:c rel)) :: walk rest
                 | (_, true) :: rest -> walk rest
                 | [] -> []
               in
               walk sorted @ acc)
             per_tid []
           |> List.sort compare
         in
         (loc, sections))
  |> List.sort compare

(* Exact critical sections from an access trace: LockAcqRead (and a wait's
   reacquisition read) opens a section of its thread on the lock location,
   LockRelWrite / WaitRelWrite closes it.  Unlike {!lock_sections} this
   sees releases the log never referenced (a final release no later acquire
   reads), which is exactly the case where the log-derived section
   under-approximates and the solver could slide a foreign acquire into a
   still-open region. *)
let trace_sections (trace : Event.access list) :
    (Loc.t * (Log.evt * Log.evt) list) list =
  let open_ : (int * Loc.t, Log.evt) Hashtbl.t = Hashtbl.create 8 in
  let out : (Loc.t, (Log.evt * Log.evt) list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (a : Event.access) ->
      match a.ghost with
      | Event.LockAcqRead | Event.WaitReacqRead ->
        Hashtbl.replace open_ (a.tid, a.loc) (a.tid, a.c)
      | Event.LockRelWrite | Event.WaitRelWrite -> (
        match Hashtbl.find_opt open_ (a.tid, a.loc) with
        | Some acq ->
          Hashtbl.remove open_ (a.tid, a.loc);
          let sec = (acq, (a.tid, a.c)) in
          (match Hashtbl.find_opt out a.loc with
          | Some l -> l := sec :: !l
          | None -> Hashtbl.add out a.loc (ref [ sec ]))
        | None -> ())
      | _ -> ())
    trace;
  Hashtbl.fold (fun loc l acc -> (loc, List.sort compare !l) :: acc) out []
  |> List.sort compare

type solve_verdict =
  | Feasible of Light_core.Replayer.schedule
  | Infeasible
  | SolveAborted

type solved = {
  sv : solve_verdict;
  free : Log.evt list;
  solve_time_s : float;
  sv_vars : int;
}

let solve_flips ?budget ?(hinted = true) ?sections (log : Log.t)
    (flips : flip list) : solved =
  let sections =
    match sections with Some s -> s | None -> lock_sections log
  in
  let free, flip_events = relaxation log flips in
  (* critical-section endpoints the log never referenced must become order
     variables too, or the mutual-exclusion clauses below could not name
     them *)
  let extra_events =
    if flips = [] then flip_events
    else
      List.sort_uniq compare
        (flip_events
        @ List.concat_map
            (fun (_, secs) -> List.concat_map (fun (a, r) -> [ a; r ]) secs)
            sections)
  in
  let cs = Light_core.Constraints.generate ~free ~extra_events log in
  let var_of = Light_core.Constraints.var_of cs in
  let atoms =
    List.filter_map
      (fun f ->
        match (var_of f.fb, var_of f.fa) with
        | Some b, Some a -> Some (Dlsolver.Idl.lt b a)
        | _ -> None)
      flips
  in
  (* with lock pins freed, the recorded acquire order no longer chains
     critical sections; these clauses restore what the runtime will enforce
     anyway — two critical sections of one lock never overlap — so the
     solver cannot emit a schedule the replay gate must stall on.  With no
     flips nothing is freed and no clause is added: the problem is
     byte-identical to the base one. *)
  let mutex =
    if flips = [] then []
    else
      List.concat_map
        (fun (_, secs) ->
          let rec pairs = function
            | s :: rest -> List.map (fun s' -> (s, s')) rest @ pairs rest
            | [] -> []
          in
          List.filter_map
            (fun (((a1, r1) : Log.evt * Log.evt), ((a2, r2) : Log.evt * Log.evt)) ->
              if fst a1 = fst a2 then None
              else
                match (var_of a1, var_of r1, var_of a2, var_of r2) with
                | Some va1, Some vr1, Some va2, Some vr2 ->
                  let l1 = Dlsolver.Idl.lt vr1 va2 and l2 = Dlsolver.Idl.lt vr2 va1 in
                  (* hint-true literal first: the recorded order stays the
                     solver's first descent *)
                  Some
                    (match cs.hint with
                    | Some h when h.(vr1) >= h.(va2) -> [| l2; l1 |]
                    | _ -> [| l1; l2 |])
                | _ -> None)
            (pairs secs))
        sections
  in
  (* Atomicity-window pinning.  When both flip endpoints sit inside
     critical sections of the same lock, inverting the pair alone is not
     enough: mutex keeps the sections disjoint, and the hint-guided solver
     will happily slide the flipped section past {e all} of the victim's
     sections — a feasible but boring neighbor.  The interesting placement
     is the gap between the victim's section and its next one on the same
     lock (the atomicity window the recorded pins used to seal), so pin
     [rel(flipped section) < acq(victim's next section)].  If that window
     placement is contradictory, the flip honestly reports infeasible. *)
  let window =
    if flips = [] then []
    else
      List.concat_map
        (fun f ->
          List.concat_map
            (fun ((_ : Loc.t), secs) ->
              let find_sec (e : Log.evt) =
                List.find_opt
                  (fun ((ta, ca), ((_ : int), cr)) ->
                    ta = fst e && ca <= snd e && snd e <= cr)
                  secs
              in
              match (find_sec f.fa, find_sec f.fb) with
              | Some sa, Some sb when sa <> sb ->
                let (tb, _), (_, rb_c) = sb in
                let next =
                  List.filter
                    (fun (((ta, ca), _) : Log.evt * Log.evt) ->
                      ta = tb && ca > rb_c)
                    secs
                  |> List.sort compare
                  |> function
                  | n :: _ -> Some n
                  | [] -> None
                in
                (match next with
                | Some (next_acq, _) -> (
                  let _, sa_rel = sa in
                  match (var_of sa_rel, var_of next_acq) with
                  | Some vr, Some va -> [ Dlsolver.Idl.lt vr va ]
                  | _ -> [])
                | None -> [])
              | _ -> [])
            sections)
        flips
  in
  let problem = Dlsolver.Idl.extend cs.problem ~hard:(atoms @ window) ~clauses:mutex in
  let hint = if hinted then cs.hint else None in
  let t0 = Unix.gettimeofday () in
  let res = Dlsolver.Idl.solve ?budget ?hint problem in
  let dt = Unix.gettimeofday () -. t0 in
  let sv =
    match res with
    | Dlsolver.Idl.Sat (model, _) ->
      Feasible (Light_core.Replayer.build_schedule log cs model)
    | Unsat _ -> Infeasible
    | Aborted _ -> SolveAborted
  in
  { sv; free; solve_time_s = dt; sv_vars = problem.Dlsolver.Idl.nvars }

(* ------------------------------------------------------------------ *)
(* Context                                                             *)
(* ------------------------------------------------------------------ *)

type context = {
  program : Lang.Ast.program;
  plan : Plan.t;
  log : Log.t;
  outcome : Interp.outcome;
  racy_pairs : (int * int) list;
  base_order : Log.evt array;
  sections : (Loc.t * (Log.evt * Log.evt) list) list;
      (** exact critical sections (from the trace) for the mutex clauses *)
}

let norm_pair a b = (min a b, max a b)

let make_context ?(variant = Light_core.Light.v_basic) ?(max_steps = 400_000)
    ?(seed = 0) ~(sched : Sched.t) (p : Lang.Ast.program) : (context, string) result =
  let plan = Plan.all_shared in
  let pp = Light_core.Light.prepare ~variant ~plan p in
  (* one VM run feeds the recorder ([on_shared]), the race detector
     ([observe]) and the access trace *)
  let recorder = Light_core.Recorder.create ~variant (Light_core.Light.prepared_modes pp) in
  let hb = Analysis.Hb_detector.create () in
  let outcome =
    Vm.run_program
      ~hooks:
        { (Light_core.Recorder.hooks recorder) with
          observe = Some (Analysis.Hb_detector.observe hb) }
      ~plan ~max_steps ~collect_trace:true ~seed ~sched
      (Light_core.Light.prepared_bytecode pp)
  in
  let log = Light_core.Recorder.finalize recorder ~outcome in
  let dyn =
    List.map
      (fun (rc : Analysis.Hb_detector.race) -> norm_pair rc.site1 rc.site2)
      (Analysis.Hb_detector.races hb)
  in
  (* the MHP + lockset refinement applies here too: pairs the analysis
     proves ordered, covered, or never-parallel are off the flip
     frontier, so exploration spends its budget on pairs that can
     actually reorder (lint ranks the same set) *)
  let static_ =
    List.map
      (fun (rp : Analysis.Analyze.race_pair) ->
        norm_pair rp.t1.Analysis.Sites.sid rp.t2.Analysis.Sites.sid)
      (Instrument.Transformer.transform p).Instrument.Transformer.analysis
        .Analysis.Analyze.races
  in
  let racy_pairs = List.sort_uniq compare (dyn @ static_) in
  match Light_core.Replayer.solve log with
  | { Light_core.Replayer.schedule = Some sch; _ } ->
    Ok { program = p; plan; log; outcome; racy_pairs;
         base_order = sch.Light_core.Replayer.order;
         sections = trace_sections outcome.trace }
  | { result_kind = Unsatisfiable; _ } -> Error "base constraint system unsatisfiable"
  | _ -> Error "base solve exhausted its budget"

(* ------------------------------------------------------------------ *)
(* Candidates                                                          *)
(* ------------------------------------------------------------------ *)

(* DPOR-flavored: walking the trace, each data access conflicts with the
   latest access of every other thread on the same location (>= 1 write);
   the earliest such adjacency per site pair is the flip candidate.  The
   enumeration depends only on the trace and the race evidence — no clocks,
   no randomness — so candidate order is deterministic. *)
let candidates ?(limit = 32) (ctx : context) : flip list =
  (* per (loc, tid): the latest access and the latest {e write}.  A read
     may trail another thread's conflicting write by several of that
     thread's own reads (check-then-act idioms), so pairing only against
     the latest access would miss the write entirely. *)
  let last : (int, Event.access * Event.access option) Hashtbl.t Loc.Tbl.t =
    Loc.Tbl.create 256
  in
  let seen : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let out = ref [] in
  List.iter
    (fun (a : Event.access) ->
      if a.ghost = Event.NotGhost then begin
        let per_tid =
          match Loc.Tbl.find_opt last a.loc with
          | Some t -> t
          | None ->
            let t = Hashtbl.create 4 in
            Loc.Tbl.add last a.loc t;
            t
        in
        let others =
          Hashtbl.fold
            (fun tid prev acc -> if tid <> a.tid then (tid, prev) :: acc else acc)
            per_tid []
          |> List.sort compare
        in
        let emit (prev : Event.access) =
          if prev.kind = Event.Write || a.kind = Event.Write then begin
            let skey = norm_pair prev.site a.site in
            if not (Hashtbl.mem seen skey) then begin
              Hashtbl.add seen skey ();
              out :=
                {
                  fa = (prev.tid, prev.c);
                  fb = (a.tid, a.c);
                  f_loc = a.loc;
                  fa_site = prev.site;
                  fb_site = a.site;
                  fa_kind = prev.kind;
                  fb_kind = a.kind;
                  f_racy = List.mem skey ctx.racy_pairs;
                }
                :: !out
            end
          end
        in
        List.iter
          (fun ((_ : int), ((prev, prev_w) : Event.access * Event.access option)) ->
            emit prev;
            match prev_w with
            | Some w when w.c <> prev.c -> emit w
            | _ -> ())
          others;
        let prev_w =
          match Hashtbl.find_opt per_tid a.tid with
          | Some (_, w) -> w
          | None -> None
        in
        Hashtbl.replace per_tid a.tid
          (a, if a.kind = Event.Write then Some a else prev_w)
      end)
    ctx.outcome.trace;
  let all = List.rev !out in
  let racy, rest = List.partition (fun f -> f.f_racy) all in
  List.filteri (fun i _ -> i < limit) (racy @ rest)

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

type verdict =
  | Same
  | Divergent of string list
  | Crashed of Interp.crash list
  | Stuck of string
  | InfeasibleFlip
  | AbortedFlip

let verdict_name = function
  | Same -> "same"
  | Divergent _ -> "divergent"
  | Crashed _ -> "crashed"
  | Stuck _ -> "stuck"
  | InfeasibleFlip -> "infeasible"
  | AbortedFlip -> "aborted"

type explored = {
  ex_flip : flip;
  ex_verdict : verdict;
  ex_validate : string list;
  ex_solve_s : float;
}

let run_schedule (ctx : context) (sch : Light_core.Replayer.schedule) :
    Interp.outcome =
  Light_core.Replayer.replay ~suppress:false ctx.program
    ~plan:ctx.plan sch

let classify (ctx : context) (o : Interp.outcome) : verdict =
  if o.crashes <> [] then Crashed o.crashes
  else
    match o.status with
    | Interp.Deadlock ts ->
      Stuck (Printf.sprintf "deadlock (threads %s)"
               (String.concat "," (List.map string_of_int ts)))
    | Interp.GateStuck ts ->
      Stuck (Printf.sprintf "gate stall (threads %s)"
               (String.concat "," (List.map string_of_int ts)))
    | Interp.StepLimit -> Stuck "step limit"
    | Interp.AllFinished -> (
      let ms =
        Interp.replay_matches ~original:ctx.outcome ~replay:o
      in
      let heap =
        if o.final_heap <> ctx.outcome.Interp.final_heap then
          [ "final_heap differs" ]
        else []
      in
      match ms @ heap with [] -> Same | diffs -> Divergent diffs)

let eval_flips ?budget (ctx : context) (flips : flip list) :
    verdict * string list * float =
  let s = solve_flips ?budget ~sections:ctx.sections ctx.log flips in
  match s.sv with
  | Infeasible -> (InfeasibleFlip, [], s.solve_time_s)
  | SolveAborted -> (AbortedFlip, [], s.solve_time_s)
  | Feasible sch ->
    let errs =
      Light_core.Validate.check ~free:s.free ctx.log sch
    in
    let o = run_schedule ctx sch in
    (classify ctx o, errs, s.solve_time_s)

let explore ?pool ?budget ?limit (ctx : context) : explored list =
  let cands = candidates ?limit ctx in
  Engine.Batch.map ?pool cands ~f:(fun f ->
      let v, errs, dt = eval_flips ?budget ctx [ f ] in
      { ex_flip = f; ex_verdict = v; ex_validate = errs; ex_solve_s = dt })

(* ------------------------------------------------------------------ *)
(* Reproducers                                                         *)
(* ------------------------------------------------------------------ *)

type reproducer = {
  rp_flips : flip list;
  rp_log : Log.t;
  rp_sections : (Loc.t * (Log.evt * Log.evt) list) list;
  rp_expected : (int * int * string) list;
}

let reproducer_to_string (rp : reproducer) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "LIGHT-REPRO v1\n";
  List.iter
    (fun (f : flip) ->
      Buffer.add_string buf
        (Printf.sprintf "flip %d %d %d %s %d %d %d %s %d %d %s\n" (fst f.fa)
           (snd f.fa) f.fa_site (Event.akind_str f.fa_kind) (fst f.fb)
           (snd f.fb) f.fb_site (Event.akind_str f.fb_kind)
           (if f.f_racy then 1 else 0)
           f.f_loc.Loc.obj
           (Loc.fld_name f.f_loc.Loc.fld)))
    rp.rp_flips;
  List.iter
    (fun ((loc : Loc.t), secs) ->
      List.iter
        (fun ((ta, ca), (tr, cr)) ->
          Buffer.add_string buf
            (Printf.sprintf "section %d %d %d %d %d %s\n" ta ca tr cr loc.Loc.obj
               (Loc.fld_name loc.Loc.fld)))
        secs)
    rp.rp_sections;
  List.iter
    (fun (tid, site, msg) ->
      Buffer.add_string buf (Printf.sprintf "expect %d %d %s\n" tid site msg))
    rp.rp_expected;
  let log_s = Log.to_string rp.rp_log in
  Buffer.add_string buf (Printf.sprintf "log %d\n" (String.length log_s));
  Buffer.add_string buf log_s;
  Buffer.contents buf

(* a malformed reproducer line: the message, already naming the line *)
exception Bad_line of string

let reproducer_of_string (s : string) : (reproducer, string) result =
  match String.split_on_char '\n' s with
  | magic :: rest when magic = "LIGHT-REPRO v1" ->
    let flips = ref [] and expected = ref [] and sections = ref [] in
    let rec go lno consumed = function
      | [] | [ "" ] -> Error "missing log section"
      | line :: rest -> (
        let consumed = consumed + String.length line + 1 in
        let bad fmt =
          Printf.ksprintf (fun m -> raise (Bad_line (Printf.sprintf "line %d: %s: %s" lno m line))) fmt
        in
        (* decimal only, as in the log formats *)
        let int tok =
          let digits =
            if String.length tok > 1 && tok.[0] = '-' then String.sub tok 1 (String.length tok - 1)
            else tok
          in
          match int_of_string_opt tok with
          | Some n when digits <> "" && String.for_all (fun ch -> ch >= '0' && ch <= '9') digits -> n
          | _ -> bad "bad integer %S" tok
        in
        let loc obj fld_toks = { Loc.obj = int obj; fld = Loc.fld_of_name (String.concat " " fld_toks) } in
        let kind = function "R" -> Event.Read | "W" -> Event.Write | k -> bad "bad access kind %S" k in
        match String.split_on_char ' ' line with
        | "flip" :: ta :: ca :: sa :: ka :: tb :: cb :: sb :: kb :: racy :: obj :: fld_toks ->
          let f =
            {
              fa = (int ta, int ca);
              fb = (int tb, int cb);
              f_loc = loc obj fld_toks;
              fa_site = int sa;
              fb_site = int sb;
              fa_kind = kind ka;
              fb_kind = kind kb;
              f_racy = racy = "1";
            }
          in
          flips := f :: !flips;
          go (lno + 1) consumed rest
        | "section" :: ta :: ca :: tr :: cr :: obj :: fld_toks ->
          let sec = ((int ta, int ca), (int tr, int cr)) in
          sections := (loc obj fld_toks, sec) :: !sections;
          go (lno + 1) consumed rest
        | "expect" :: tid :: site :: msg_toks ->
          expected := (int tid, int site, String.concat " " msg_toks) :: !expected;
          go (lno + 1) consumed rest
        | [ "log"; n ] ->
          let n = int n in
          if n < 0 then bad "negative log length"
          else if n > String.length s - consumed then
            bad "log section runs past the end (%d bytes left)" (String.length s - consumed)
          else begin
            let rp_log =
              try Log.of_string (String.sub s consumed n) with Failure m -> bad "%s" m
            in
            (* regroup the flat section lines per location, preserving order *)
            let by_loc = Hashtbl.create 8 and order = ref [] in
            List.iter
              (fun (loc, sec) ->
                match Hashtbl.find_opt by_loc loc with
                | Some l -> l := sec :: !l
                | None ->
                  Hashtbl.add by_loc loc (ref [ sec ]);
                  order := loc :: !order)
              (List.rev !sections);
            let rp_sections =
              List.rev_map
                (fun loc -> (loc, List.rev !(Hashtbl.find by_loc loc)))
                !order
            in
            Ok { rp_flips = List.rev !flips; rp_log; rp_sections; rp_expected = List.rev !expected }
          end
        | _ -> bad "unparseable line")
    in
    (try go 2 (String.length magic + 1) rest with Bad_line m -> Error m)
  | _ -> Error "not a LIGHT-REPRO file"

(** Solve the reproducer's flips and replay the schedule.  A log whose
    rows, flips or sections pass its counters is an [Error]
    ({!Light_core.Log.Inconsistent}). *)
let run_reproducer ?budget ?max_steps (p : Lang.Ast.program) (rp : reproducer) :
    (Interp.outcome, string) result =
  match solve_flips ?budget ~sections:rp.rp_sections rp.rp_log rp.rp_flips with
  | exception Log.Inconsistent msg -> Error ("bad log: " ^ msg)
  | s ->
  match s.sv with
  | Infeasible -> Error "reproducer flips are infeasible for this log"
  | SolveAborted -> Error "solver budget exhausted"
  | Feasible sch ->
    Ok
      (Light_core.Replayer.replay ?max_steps ~suppress:false p
         ~plan:Plan.all_shared sch)

(* ------------------------------------------------------------------ *)
(* Hunting                                                             *)
(* ------------------------------------------------------------------ *)

let crash_sigs (o : Interp.outcome) : (int * int * string) list =
  List.sort compare
    (List.map (fun (c : Interp.crash) -> (c.Interp.tid, c.site, c.msg)) o.crashes)

type hunt_result = {
  hr_repro : reproducer option;
  hr_outcome : Interp.outcome option;
  hr_tried : int;
}

let hunt ?pool ?budget ?(limit = 32) ?(depth = 2) (ctx : context) : hunt_result =
  let cands = candidates ~limit ctx in
  let tried = ref 0 in
  (* evaluate a whole BFS level across the pool; the winner is the first
     crashing flip set in candidate order, independent of the pool size *)
  let eval_level (sets : flip list list) :
      (flip list * Interp.outcome) option =
    let results =
      Engine.Batch.map ?pool sets ~f:(fun flips ->
          match
            (solve_flips ?budget ~sections:ctx.sections ctx.log flips).sv
          with
          | Feasible sch ->
            let o = run_schedule ctx sch in
            if o.Interp.crashes <> [] then Some o else None
          | Infeasible | SolveAborted -> None)
    in
    tried := !tried + List.length sets;
    List.find_map
      (fun (flips, r) -> Option.map (fun o -> (flips, o)) r)
      (List.combine sets results)
  in
  let level1 = List.map (fun f -> [ f ]) cands in
  let level2 () =
    if depth < 2 then []
    else begin
      (* pairs over the strongest singles — racy-ranked candidate order *)
      let top = List.filteri (fun i _ -> i < 12) cands in
      let arr = Array.of_list top in
      let n = Array.length arr in
      let out = ref [] in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          out := [ arr.(i); arr.(j) ] :: !out
        done
      done;
      List.rev !out
    end
  in
  let found =
    match eval_level level1 with
    | Some hit -> Some hit
    | None -> ( match level2 () with [] -> None | l2 -> eval_level l2)
  in
  match found with
  | None -> { hr_repro = None; hr_outcome = None; hr_tried = !tried }
  | Some (flips, outcome) ->
    let target = crash_sigs outcome in
    (* greedy shrink to removal-minimality: drop any flip whose absence
       preserves the exact failure signature; iterate to a fixpoint *)
    let still_fails (flips : flip list) : Interp.outcome option =
      incr tried;
      match
        (solve_flips ?budget ~sections:ctx.sections ctx.log flips).sv
      with
      | Feasible sch ->
        let o = run_schedule ctx sch in
        if crash_sigs o = target then Some o else None
      | Infeasible | SolveAborted -> None
    in
    let rec shrink flips outcome =
      let rec try_drop pre = function
        | [] -> None
        | f :: post -> (
          let candidate = List.rev_append pre post in
          if candidate = [] then try_drop (f :: pre) post
          else
            match still_fails candidate with
            | Some o -> Some (candidate, o)
            | None -> try_drop (f :: pre) post)
      in
      match try_drop [] flips with
      | Some (smaller, o) -> shrink smaller o
      | None -> (flips, outcome)
    in
    let minimal, outcome = shrink flips outcome in
    {
      hr_repro =
        Some
          {
            rp_flips = List.sort flip_compare minimal;
            rp_log = ctx.log;
            rp_sections = ctx.sections;
            rp_expected = crash_sigs outcome;
          };
      hr_outcome = Some outcome;
      hr_tried = !tried;
    }

(* ------------------------------------------------------------------ *)
(* Log-only enumeration                                                *)
(* ------------------------------------------------------------------ *)

let log_candidates ?(limit = 32) (log : Log.t) : flip list =
  let tb = Constraints.table_of_log log in
  let out = ref [] and seen = Hashtbl.create 64 in
  let start k = (tb.tid.(k), tb.lo.(k)) in
  let writes k = Constraints.has tb k Constraints.f_writes in
  Array.iteri
    (fun g rows ->
      let loc = tb.locs.(g) in
      let rows = List.sort (fun a b -> compare tb.obs.(a) tb.obs.(b)) rows in
      List.iter
        (fun i ->
          List.iter
            (fun j ->
              if tb.obs.(i) < tb.obs.(j) && tb.tid.(i) <> tb.tid.(j) && (writes i || writes j)
              then begin
                let key = (start i, start j, loc) in
                if not (Hashtbl.mem seen key) then begin
                  Hashtbl.add seen key ();
                  let kind_of k = if writes k then Event.Write else Event.Read in
                  out :=
                    {
                      fa = (tb.tid.(i), tb.hi.(i));
                      fb = start j;
                      f_loc = loc;
                      fa_site = 0;
                      fb_site = 0;
                      fa_kind = kind_of i;
                      fb_kind = kind_of j;
                      f_racy = false;
                    }
                    :: !out
                end
              end)
            rows)
        rows)
    (Constraints.location_rows tb);
  List.filteri (fun i _ -> i < limit) (List.rev !out)

let enumerate_log ?budget ?limit (log : Log.t) : (flip * solved) list =
  List.map (fun f -> (f, solve_flips ?budget log [ f ])) (log_candidates ?limit log)

(* ------------------------------------------------------------------ *)
(* Bench statistics                                                    *)
(* ------------------------------------------------------------------ *)

type stats = {
  st_label : string;
  st_candidates : int;
  st_same : int;
  st_divergent : int;
  st_crashed : int;
  st_stuck : int;
  st_infeasible : int;
  st_aborted : int;
  st_resolve_s : float;
  st_fresh_s : float;
  st_fresh_aborted : int;
  st_sched_per_s : float;
}

let measure ?budget ?fresh_budget ?limit ~label (ctx : context) : stats =
  let fresh_budget =
    match fresh_budget with
    | Some b -> b
    | None -> { Dlsolver.Idl.default_budget with max_time_s = 5.0 }
  in
  let cands = candidates ?limit ctx in
  let same = ref 0 and divergent = ref 0 and crashed = ref 0 in
  let stuck = ref 0 and infeasible = ref 0 and aborted = ref 0 in
  let resolve_s = ref 0.0 and fresh_s = ref 0.0 and fresh_aborted = ref 0 in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun f ->
      let v, _errs, dt = eval_flips ?budget ctx [ f ] in
      resolve_s := !resolve_s +. dt;
      (match v with
      | Same -> incr same
      | Divergent _ -> incr divergent
      | Crashed _ -> incr crashed
      | Stuck _ -> incr stuck
      | InfeasibleFlip -> incr infeasible
      | AbortedFlip -> incr aborted);
      (* fresh solve of the same flipped system, capped so a pathological
         unhinted search aborts honestly instead of hanging the bench *)
      let fresh =
        solve_flips ~budget:fresh_budget ~hinted:false ~sections:ctx.sections
          ctx.log [ f ]
      in
      fresh_s := !fresh_s +. fresh.solve_time_s;
      match fresh.sv with
      | SolveAborted -> incr fresh_aborted
      | Feasible _ | Infeasible -> ())
    cands;
  let wall = Unix.gettimeofday () -. t0 in
  let n = List.length cands in
  {
    st_label = label;
    st_candidates = n;
    st_same = !same;
    st_divergent = !divergent;
    st_crashed = !crashed;
    st_stuck = !stuck;
    st_infeasible = !infeasible;
    st_aborted = !aborted;
    st_resolve_s = !resolve_s;
    st_fresh_s = !fresh_s;
    st_fresh_aborted = !fresh_aborted;
    st_sched_per_s = (if wall > 0.0 then float_of_int n /. wall else 0.0);
  }

(* ------------------------------------------------------------------ *)
(* Bench artifact                                                      *)
(* ------------------------------------------------------------------ *)

let stats_to_json (ms : stats list) : Analysis.Lint.Json.t =
  let module J = Analysis.Lint.Json in
  let row m =
    J.Obj
      [
        ("workload", J.Str m.st_label); ("candidates", J.Int m.st_candidates);
        ("same", J.Int m.st_same); ("divergent", J.Int m.st_divergent);
        ("crashed", J.Int m.st_crashed); ("stuck", J.Int m.st_stuck);
        ("infeasible", J.Int m.st_infeasible); ("aborted", J.Int m.st_aborted);
        ("resolve_s", J.Float m.st_resolve_s); ("fresh_s", J.Float m.st_fresh_s);
        ("fresh_aborted", J.Int m.st_fresh_aborted);
        ("sched_per_s", J.Float m.st_sched_per_s);
      ]
  in
  let tot f = List.fold_left (fun a m -> a +. f m) 0.0 ms in
  let resolve = tot (fun m -> m.st_resolve_s)
  and fresh = tot (fun m -> m.st_fresh_s) in
  J.Obj
    [
      ("rows", J.List (List.map row ms));
      ("resolve_total_s", J.Float resolve);
      ("fresh_total_s", J.Float fresh);
      ("speedup", J.Float (if resolve > 0.0 then fresh /. resolve else 0.0));
    ]
