(** Epoch-based recording: checkpoint + log rotation + incremental solving.

    A monolithic recording holds the whole run's dependence log (and its
    constraint system) in memory at once — fine for a test run, fatal for a
    service that records forever.  Following iReplayer's in-situ epoch
    model, this module cuts the recording into fixed-length step windows:

    - recording runs on the tree walker ({!Interp}); at each epoch
      boundary its complete state is checkpointed ({!Interp.snapshot}:
      frames, heap, locks, waitsets, scheduler and RNG positions) and the
      recorder's arena buffers are {e sealed} ({!Recorder.seal}) into a
      self-contained per-epoch {!Log.t}.  Sealing clears the last-write
      table, so reads in the next epoch reference pre-boundary writes as
      the virtual initialization write — whose value is exactly what the
      checkpoint restores;
    - constraint generation + solving run per epoch.  Each epoch's witness
      hint is shifted above the previous epoch's largest model value
      ({!Replayer.solve} [?hint_shift]); IDL is translation-invariant, so
      the per-epoch schedules concatenate into one globally consistent
      order;
    - replay of epoch [k] restores checkpoint [k] on the register VM
      ({!Vm.restore_state}) and replays only epoch [k]'s constrained
      events, fenced at the epoch's counter watermark — O(epoch) work
      regardless of run length.  Checkpoints are written by the tree
      walker and restored by the VM only.

    The on-disk form is log format v4: a per-epoch header line, checkpoint
    lines, an intern-table {e delta}, then the epoch's v3-style record
    body.  The v3 reader and writer are untouched ({!Log}); the
    monolithic path remains the differential oracle. *)

open Runtime

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

type epoch = {
  ep_idx : int;
  ep_start_steps : int;  (** interpreter step count at the epoch's start *)
  ep_steps : int;        (** step count at the epoch's end (= next start) *)
  ep_clock : int;        (** cumulative recorder access clock at the end *)
  ep_sched : string;     (** scheduler pick-state token at the start *)
  ep_snapshot : Interp.snapshot;  (** checkpoint at the epoch's start *)
  ep_log : Log.t;  (** sealed window; [counters] = watermark at the end *)
  ep_obs : Interp.observables;  (** this window's reads/outputs/syscalls *)
  ep_out_base : (int * int) list;
      (** cumulative output count per thread at the epoch's start, for
          slicing a monolithic outcome against this window *)
}

type recording = {
  er_prepared : Light.prepared;
  er_epoch_len : int;
  er_seed : int;
  er_epochs : epoch list;  (** in order *)
  er_outcome : Interp.outcome;  (** whole-run observables, reassembled *)
  er_site_hits : int array;  (** cumulative across all sealed epochs *)
  er_seal_times : float list;  (** per-epoch seal latency, seconds *)
}

(** Record [pp] under [sched], checkpointing and sealing every [epoch_len]
    interpreter steps.  The final epoch is sealed by whatever terminates
    the run (normal completion, deadlock, or [max_steps]); a run ending
    exactly on a boundary still seals the (then empty) trailing window. *)
(* The recording loop, parameterized over what happens to each sealed
   epoch: [record_epochs] accumulates them (and reassembles the whole-run
   observables), [record_epochs_stream] serializes and drops them, so its
   live memory is bounded by one window regardless of run length. *)
let run_epoch_loop ~sched ~max_steps ~seed ~weights ~epoch_len
    (pp : Light.prepared) ~(on_epoch : epoch -> unit) =
  if epoch_len <= 0 then invalid_arg "record_epochs: epoch_len must be positive";
  let recorder =
    Recorder.create ~variant:(Light.prepared_variant pp) ~weights
      (Light.prepared_modes pp)
  in
  let st =
    Interp.init_state ~hooks:(Recorder.hooks recorder)
      ~plan:(Light.prepared_plan pp) ~seed (Light.prepared_compiled pp)
  in
  let seal_times = ref [] in
  let out_counts : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let idx = ref 0 in
  let final = ref None in
  while !final = None do
    let sn = Interp.snapshot st in
    let sched_tok = sched.Sched.save () in
    let out_base =
      List.map
        (fun (t : Interp.snap_thread) ->
          (t.sn_tid, Option.value ~default:0 (Hashtbl.find_opt out_counts t.sn_tid)))
        sn.snap_threads
    in
    let stop_at = Interp.state_steps st + epoch_len in
    let status = Interp.run_state ~max_steps ~stop_at ~sched st in
    let t0 = Unix.gettimeofday () in
    let counters = Interp.state_counters st in
    let obs = Interp.drain_observables st in
    let log = Recorder.seal recorder ~syscalls:obs.obs_syscalls ~counters in
    seal_times := (Unix.gettimeofday () -. t0) :: !seal_times;
    List.iter
      (fun (tid, outs) ->
        let prev = Option.value ~default:0 (Hashtbl.find_opt out_counts tid) in
        Hashtbl.replace out_counts tid (prev + List.length outs))
      obs.Interp.obs_outputs;
    on_epoch
      {
        ep_idx = !idx;
        ep_start_steps = sn.Interp.snap_steps;
        ep_steps = Interp.state_steps st;
        ep_clock = Recorder.accesses recorder;
        ep_sched = sched_tok;
        ep_snapshot = sn;
        ep_log = log;
        ep_obs = obs;
        ep_out_base = out_base;
      };
    incr idx;
    final := status
  done;
  (Option.get !final, st, recorder, List.rev !seal_times)

let record_epochs ?(sched = Sched.random ~seed:1)
    ?(max_steps = 5_000_000) ?(seed = 0)
    ?(weights = Metrics.Cost.default_weights) ~(epoch_len : int)
    (pp : Light.prepared) : recording =
  let epochs = ref [] in
  let status, st, recorder, seal_times =
    run_epoch_loop ~sched ~max_steps ~seed ~weights ~epoch_len pp
      ~on_epoch:(fun e -> epochs := e :: !epochs)
  in
  let eps = List.rev !epochs in
  (* reassemble the whole-run observables from the per-epoch windows (the
     state's own buffers were drained at every boundary) *)
  let base = Interp.outcome_of_state st status in
  let gather proj tid =
    List.concat_map
      (fun (e : epoch) ->
        match List.assoc_opt tid (proj e.ep_obs) with Some l -> l | None -> [])
      eps
  in
  let tids = List.map fst base.Interp.counters in
  let outcome =
    {
      base with
      Interp.reads = List.map (fun tid -> (tid, gather (fun o -> o.Interp.obs_reads) tid)) tids;
      outputs = List.map (fun tid -> (tid, gather (fun o -> o.Interp.obs_outputs) tid)) tids;
      syscalls = List.concat_map (fun (e : epoch) -> e.ep_obs.Interp.obs_syscalls) eps;
    }
  in
  {
    er_prepared = pp;
    er_epoch_len = epoch_len;
    er_seed = seed;
    er_epochs = eps;
    er_outcome = outcome;
    er_site_hits = Recorder.site_hits recorder;
    er_seal_times = seal_times;
  }

(* ------------------------------------------------------------------ *)
(* Incremental solving                                                 *)
(* ------------------------------------------------------------------ *)

type epoch_solution = {
  es_idx : int;
  es_shift : int;  (** hint shift applied (previous epochs' watermark) *)
  es_report : Replayer.solve_report;
}

(** Solve every epoch's constraint system in order, seeding each from its
    own recorded-schedule witness shifted above the previous epoch's
    largest model value, so the concatenation of the per-epoch orders is a
    single consistent global order. *)
let solve_epochs ?budget (r : recording) : epoch_solution list =
  let shift = ref 0 in
  List.map
    (fun (e : epoch) ->
      let rep = Replayer.solve ?budget ~hint_shift:!shift e.ep_log in
      let applied = !shift in
      shift := max !shift rep.Replayer.max_model + 16;
      { es_idx = e.ep_idx; es_shift = applied; es_report = rep })
    r.er_epochs

(* ------------------------------------------------------------------ *)
(* Single-epoch replay                                                 *)
(* ------------------------------------------------------------------ *)

type epoch_replay = {
  rr_status : Interp.status_summary;
      (** [GateStuck] for interior epochs (every thread fenced at the
          boundary watermark), terminal status for the last *)
  rr_complete : bool;
      (** every thread of the watermark ended at exactly its recorded
          end-of-epoch counter: false when the replay stalled short of the
          epoch's end *)
  rr_steps : int;  (** steps executed by the replay (O(epoch)) *)
  rr_obs : Interp.observables;  (** the replayed window's observables *)
  rr_report : Replayer.solve_report;
}

(* Fence the replay at the epoch's counter watermark: any shared access
   that would push a thread past its recorded end-of-epoch D(t) is denied.
   Without the fence, threads whose constrained events all executed would
   free-run into later epochs (their accesses are unconstrained in this
   epoch's schedule), making the replay O(run) again.  A thread absent
   from the watermark (spawned in a later epoch) is fenced at 0. *)
let fenced_hooks (hooks : Interp.hooks) (watermark : (int * int) list) :
    Interp.hooks =
  let dmax : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (t, d) -> Hashtbl.replace dmax t d) watermark;
  let fence (pre : Event.pre) =
    pre.Event.c <= (match Hashtbl.find dmax pre.Event.tid with d -> d | exception Not_found -> 0)
  in
  {
    hooks with
    Interp.gate =
      (match hooks.Interp.gate with
      | Some g -> Some (fun pre -> fence pre && g pre)
      | None -> Some fence);
  }

(* Solve epoch [idx]'s sealed [log], restore its [snapshot] (taken at step
   [start_steps]) on the VM and run fenced at the log's counter watermark.
   A checkpoint of another program is an [Error], not an exception. *)
let replay_fenced ?solver_budget ~max_steps (pp : Light.prepared) ~(idx : int)
    (log : Log.t) (snapshot : Interp.snapshot) ~(start_steps : int) :
    (epoch_replay, string) result =
  let rep = Replayer.solve ?budget:solver_budget log in
  match rep.Replayer.schedule with
  | None ->
    Error
      (match rep.Replayer.result_kind with
      | Replayer.SolverAborted -> "solver budget exhausted"
      | _ -> "epoch constraint system unsatisfiable")
  | Some sch ->
    let plan = Light.prepared_plan pp in
    let hooks = fenced_hooks (Replayer.driver sch ~plan) log.Log.counters in
    match Vm.restore_state ~hooks ~plan (Light.prepared_bytecode pp) snapshot with
    | exception Invalid_argument msg ->
      Error (Printf.sprintf "epoch %d: checkpoint does not match the program (%s)" idx msg)
    | st ->
      let status =
        match Vm.run_state ~max_steps:(start_steps + max_steps) ~sched:(Sched.round_robin ()) st with
        | Some s -> s
        | None -> assert false
      in
      let counters = Vm.state_counters st in
      let obs = Vm.drain_observables st in
      Ok
        {
          rr_status = status;
          rr_complete =
            List.for_all (fun (t, d) -> List.assoc_opt t counters = Some d) log.Log.counters;
          rr_steps = Vm.state_steps st - start_steps;
          rr_obs = obs;
          rr_report = rep;
        }

(** Replay epoch [k] of [r] standalone: solve its sealed log, restore its
    checkpoint on the VM, and run fenced at its counter watermark.  Work is
    proportional to the epoch, never the run. *)
let replay_epoch ?solver_budget ?(max_steps = 10_000_000) (r : recording) (k : int) :
    (epoch_replay, string) result =
  match List.nth_opt r.er_epochs k with
  | None -> Error (Printf.sprintf "no epoch %d (recording has %d)" k (List.length r.er_epochs))
  | Some e ->
    replay_fenced ?solver_budget ~max_steps r.er_prepared ~idx:e.ep_idx e.ep_log
      e.ep_snapshot ~start_steps:e.ep_start_steps

(* ------------------------------------------------------------------ *)
(* Window slicing (differential oracles)                               *)
(* ------------------------------------------------------------------ *)

(** Slice a whole-run outcome down to epoch [k]'s window: per-thread reads
    with counters in [(d0, d1]], outputs by cumulative position, syscalls
    by per-thread index — directly comparable with {!epoch_replay.rr_obs}
    (and with {!epoch.ep_obs}). *)
let slice_outcome (r : recording) (k : int) (o : Interp.outcome) :
    Interp.observables =
  let e = List.nth r.er_epochs k in
  let d0 tid =
    match
      List.find_opt
        (fun (t : Interp.snap_thread) -> t.sn_tid = tid)
        e.ep_snapshot.Interp.snap_threads
    with
    | Some t -> t.Interp.sn_d
    | None -> 0
  in
  let d1 tid = Option.value ~default:0 (List.assoc_opt tid e.ep_log.Log.counters) in
  let tids = List.map fst e.ep_log.Log.counters in
  let reads =
    List.map
      (fun tid ->
        let all = Option.value ~default:[] (List.assoc_opt tid o.Interp.reads) in
        (tid, List.filter (fun (c, _) -> c > d0 tid && c <= d1 tid) all))
      tids
  in
  let outputs =
    List.map
      (fun tid ->
        let all = Option.value ~default:[] (List.assoc_opt tid o.Interp.outputs) in
        let base = Option.value ~default:0 (List.assoc_opt tid e.ep_out_base) in
        let count =
          match List.assoc_opt tid e.ep_obs.Interp.obs_outputs with
          | Some l -> List.length l
          | None -> 0
        in
        ( tid,
          List.filteri (fun i _ -> i >= base && i < base + count) all ))
      tids
  in
  let sys_lo tid = (* syscall idx range from the window's own syscalls *)
    List.filter_map
      (fun (t, i, _, _) -> if t = tid then Some i else None)
      e.ep_obs.Interp.obs_syscalls
    |> function [] -> None | l -> Some (List.fold_left min max_int l, List.fold_left max 0 l)
  in
  let syscalls =
    List.filter
      (fun (t, i, _, _) ->
        match sys_lo t with Some (lo, hi) -> i >= lo && i <= hi | None -> false)
      o.Interp.syscalls
  in
  { Interp.obs_reads = reads; obs_outputs = outputs; obs_syscalls = syscalls }

(** Compare a replayed epoch window against an expected one.  Reads must
    match exactly inside the counter window; outputs and syscalls must
    match on the window positions, tolerating deterministic local overrun
    past the boundary (extra trailing items in the replay are items of the
    next window, checked there). *)
let window_matches ~(expected : Interp.observables)
    (actual : Interp.observables) : string list =
  let ms = ref [] in
  let add fmt = Printf.ksprintf (fun m -> ms := m :: !ms) fmt in
  List.iter
    (fun (tid, exp_reads) ->
      let act = Option.value ~default:[] (List.assoc_opt tid actual.Interp.obs_reads) in
      (* the fence caps replay reads at the watermark, but a restored run's
         reads all carry counters in the window by construction *)
      if exp_reads <> act then
        add "reads: thread %d differs (%d expected, %d actual)" tid
          (List.length exp_reads) (List.length act))
    expected.Interp.obs_reads;
  List.iter
    (fun (tid, exp_outs) ->
      let act = Option.value ~default:[] (List.assoc_opt tid actual.Interp.obs_outputs) in
      let n = List.length exp_outs in
      let act_window = List.filteri (fun i _ -> i < n) act in
      if List.length act < n then
        add "outputs: thread %d short (%d expected, %d actual)" tid n (List.length act)
      else if exp_outs <> act_window then add "outputs: thread %d differs" tid)
    expected.Interp.obs_outputs;
  (* syscalls are a per-thread stream (idx is the thread-local position);
     the global interleaving differs between the original and the replay,
     so compare per thread, ordered by idx *)
  let by_tid sys =
    let tbl : (int, (int * string * Value.t) list) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (t, i, n, v) ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt tbl t) in
        Hashtbl.replace tbl t ((i, n, v) :: prev))
      sys;
    Hashtbl.fold (fun t l acc -> (t, List.sort compare l) :: acc) tbl []
  in
  let act_by_tid = by_tid actual.Interp.obs_syscalls in
  List.iter
    (fun (tid, exp_l) ->
      let act_l = Option.value ~default:[] (List.assoc_opt tid act_by_tid) in
      let n = List.length exp_l in
      if List.length act_l < n then
        add "syscalls: thread %d short (%d expected, %d actual)" tid n
          (List.length act_l)
      else if exp_l <> List.filteri (fun i _ -> i < n) act_l then
        add "syscalls: thread %d differs" tid)
    (by_tid expected.Interp.obs_syscalls);
  List.rev !ms

(* ------------------------------------------------------------------ *)
(* Log format v4 (streaming chunked)                                   *)
(* ------------------------------------------------------------------ *)

(** What one epoch contributes to a v4 file (and what a reader gets back):
    everything {!replay_epoch} needs except the compiled program. *)
type chunk = {
  ck_idx : int;
  ck_start_steps : int;
  ck_steps : int;
  ck_clock : int;
  ck_sched : string;
  ck_snapshot : Interp.snapshot;
  ck_log : Log.t;
}

type file = {
  f_o1 : bool;
  f_o2 : bool;
  f_epoch_len : int;
  f_chunks : chunk list;
}

let chunk_of_epoch (e : epoch) : chunk =
  {
    ck_idx = e.ep_idx;
    ck_start_steps = e.ep_start_steps;
    ck_steps = e.ep_steps;
    ck_clock = e.ep_clock;
    ck_sched = e.ep_sched;
    ck_snapshot = e.ep_snapshot;
    ck_log = e.ep_log;
  }

let file_of_recording (r : recording) : file =
  let v = Light.prepared_variant r.er_prepared in
  {
    f_o1 = v.Recorder.o1;
    f_o2 = v.Recorder.o2;
    f_epoch_len = r.er_epoch_len;
    f_chunks = List.map chunk_of_epoch r.er_epochs;
  }

let add_status (buf : Buffer.t) (s : Interp.tstatus) : unit =
  let open Interp in
  match s with
  | Runnable -> Buffer.add_string buf "run"
  | BlockedLock m -> Buffer.add_string buf (Printf.sprintf "bll:%d" m)
  | BlockedJoin t -> Buffer.add_string buf (Printf.sprintf "blj:%d" t)
  | InWait m -> Buffer.add_string buf (Printf.sprintf "wait:%d" m)
  | Notified m -> Buffer.add_string buf (Printf.sprintf "ntf:%d" m)
  | Reacquiring m -> Buffer.add_string buf (Printf.sprintf "reacq:%d" m)
  | Finished -> Buffer.add_string buf "fin"
  | Crashed -> Buffer.add_string buf "crashed"

let status_of_string (s : string) : Interp.tstatus =
  let open Interp in
  match String.split_on_char ':' s with
  | [ "run" ] -> Runnable
  | [ "bll"; m ] -> BlockedLock (int_of_string m)
  | [ "blj"; t ] -> BlockedJoin (int_of_string t)
  | [ "wait"; m ] -> InWait (int_of_string m)
  | [ "ntf"; m ] -> Notified (int_of_string m)
  | [ "reacq"; m ] -> Reacquiring (int_of_string m)
  | [ "fin" ] -> Finished
  | [ "crashed" ] -> Crashed
  | _ -> failwith ("bad thread status: " ^ s)

let add_slot (buf : Buffer.t) (v : Value.t) : unit =
  if v == Interp.unbound then Buffer.add_char buf 'u'
  else Buffer.add_string buf (Log.value_str v)

let slot_of_string (s : string) : Value.t =
  if s = "u" then Interp.unbound else Log.value_of_string s

(* Checkpoint lines.  Thread frames ride on [c frame] continuation lines
   under their [C thread] line; everything else is one line per item. *)
let add_snapshot (buf : Buffer.t) (sn : Interp.snapshot) ~(sched : string) :
    unit =
  let sp () = Buffer.add_char buf ' ' in
  let nl () = Buffer.add_char buf '\n' in
  Buffer.add_string buf "C sched ";
  Buffer.add_string buf sched;
  nl ();
  Buffer.add_string buf "C rng ";
  Buffer.add_string buf sn.Interp.snap_rng;
  nl ();
  List.iter
    (fun (id, cls, fields) ->
      Buffer.add_string buf "C obj ";
      Log.add_int buf id;
      sp ();
      Log.add_enc_field buf cls;
      sp ();
      Log.add_int buf (List.length fields);
      List.iter
        (fun (f, v) ->
          sp ();
          Log.add_enc_field buf f;
          sp ();
          Buffer.add_string buf (Log.value_str v))
        fields;
      nl ())
    sn.Interp.snap_heap;
  List.iter
    (fun (t : Interp.snap_thread) ->
      Buffer.add_string buf "C thread ";
      Log.add_int buf t.sn_tid;
      sp ();
      add_status buf t.sn_status;
      sp ();
      Log.add_int buf t.sn_wait_restore;
      sp ();
      Log.add_int buf t.sn_alloc;
      sp ();
      Log.add_int buf t.sn_d;
      sp ();
      Log.add_int buf t.sn_sys_idx;
      sp ();
      Log.add_int buf t.sn_spawn_idx;
      sp ();
      Log.add_bool buf t.sn_started;
      sp ();
      Log.add_int buf (List.length t.sn_held);
      List.iter
        (fun (m, n) ->
          sp ();
          Log.add_int buf m;
          sp ();
          Log.add_int buf n)
        t.sn_held;
      sp ();
      Log.add_int buf (List.length t.sn_frames);
      nl ();
      List.iter
        (fun (f : Interp.snap_frame) ->
          Buffer.add_string buf "c frame ";
          (match f.sn_ret_to with
          | None -> Buffer.add_char buf '-'
          | Some x -> Log.add_int buf x);
          sp ();
          Log.add_int buf (List.length f.sn_cont);
          List.iter
            (fun (sc : Interp.scont) ->
              sp ();
              match sc with
              | Interp.SSeq sid ->
                Buffer.add_char buf 'q';
                Log.add_int buf sid
              | Interp.SUnlock (m, sid) ->
                Buffer.add_char buf 'u';
                Log.add_int buf m;
                Buffer.add_char buf ':';
                Log.add_int buf sid)
            f.sn_cont;
          sp ();
          Log.add_int buf (Array.length f.sn_slots);
          Array.iter
            (fun v ->
              sp ();
              add_slot buf v)
            f.sn_slots;
          nl ())
        t.sn_frames)
    sn.Interp.snap_threads;
  List.iter
    (fun (m, (owner, count)) ->
      Buffer.add_string buf "C lock ";
      Log.add_int buf m;
      sp ();
      Log.add_int buf owner;
      sp ();
      Log.add_int buf count;
      nl ())
    sn.Interp.snap_locks;
  List.iter
    (fun (m, waiters) ->
      Buffer.add_string buf "C waitq ";
      Log.add_int buf m;
      List.iter
        (fun w ->
          sp ();
          Log.add_int buf w)
        waiters;
      nl ())
    sn.Interp.snap_waitsets;
  List.iter
    (fun (c : Interp.crash) ->
      Buffer.add_string buf "C crash ";
      Log.add_int buf c.Interp.tid;
      sp ();
      Log.add_int buf c.Interp.site;
      sp ();
      Log.add_int buf c.Interp.line;
      sp ();
      Log.add_int buf c.Interp.c;
      sp ();
      Log.add_enc_field buf c.Interp.msg;
      nl ())
    sn.Interp.snap_crashes

(** Serialize chunks into format v4.  The intern table is written as a
    {e delta}: each epoch's [F] lines cover only the named field ids first
    used in that epoch, so a streaming writer never rewrites earlier
    output. *)
let add_v4_header (buf : Buffer.t) ~(o1 : bool) ~(o2 : bool)
    ~(epoch_len : int) : unit =
  Buffer.add_string buf "light-log v4 o1=";
  Log.add_bool buf o1;
  Buffer.add_string buf " o2=";
  Log.add_bool buf o2;
  Buffer.add_string buf " epoch=";
  Log.add_int buf epoch_len;
  Buffer.add_char buf '\n'

let add_v4_chunk (buf : Buffer.t) (seen_flds : (int, unit) Hashtbl.t)
    (ck : chunk) : unit =
  Buffer.add_string buf "E ";
  Log.add_int buf ck.ck_idx;
  Buffer.add_char buf ' ';
  Log.add_int buf ck.ck_start_steps;
  Buffer.add_char buf ' ';
  Log.add_int buf ck.ck_steps;
  Buffer.add_char buf ' ';
  Log.add_int buf ck.ck_clock;
  Buffer.add_char buf '\n';
  add_snapshot buf ck.ck_snapshot ~sched:ck.ck_sched;
  (* intern-table delta for this epoch's records *)
  let note (loc : Loc.t) =
    if loc.Loc.fld >= 0 && not (Hashtbl.mem seen_flds loc.Loc.fld) then begin
      Hashtbl.add seen_flds loc.Loc.fld ();
      Buffer.add_string buf "F ";
      Log.add_int buf loc.Loc.fld;
      Buffer.add_char buf ' ';
      Log.add_enc_field buf (Loc.fld_name loc.Loc.fld);
      Buffer.add_char buf '\n'
    end
  in
  List.iter (fun (d : Log.dep) -> note d.Log.loc) ck.ck_log.Log.deps;
  List.iter (fun (r : Log.range) -> note r.Log.loc) ck.ck_log.Log.ranges;
  Log.body_add ck.ck_log buf

let chunks_to_string ~(o1 : bool) ~(o2 : bool) ~(epoch_len : int)
    (chunks : chunk list) : string =
  let buf = Buffer.create 65536 in
  add_v4_header buf ~o1 ~o2 ~epoch_len;
  let seen_flds = Hashtbl.create 32 in
  List.iter (add_v4_chunk buf seen_flds) chunks;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Streaming writer and bounded-memory recording                       *)
(* ------------------------------------------------------------------ *)

(** Incremental v4 writer.  [sink] receives the header immediately, then
    one serialized chunk per {!write_chunk} call; concatenating everything
    it was handed is byte-identical to {!chunks_to_string} over the same
    chunks (the intern-table delta state lives inside the writer). *)
type writer = {
  wr_sink : string -> unit;
  wr_seen : (int, unit) Hashtbl.t;
}

let writer ~(o1 : bool) ~(o2 : bool) ~(epoch_len : int)
    (sink : string -> unit) : writer =
  let buf = Buffer.create 64 in
  add_v4_header buf ~o1 ~o2 ~epoch_len;
  sink (Buffer.contents buf);
  { wr_sink = sink; wr_seen = Hashtbl.create 32 }

let write_chunk (w : writer) (ck : chunk) : unit =
  let buf = Buffer.create 65536 in
  add_v4_chunk buf w.wr_seen ck;
  w.wr_sink (Buffer.contents buf)

type stream_summary = {
  ss_status : Interp.status_summary;
  ss_steps : int;         (** total interpreter steps over all epochs *)
  ss_clock : int;         (** final cumulative recorder access clock *)
  ss_epochs : int;
  ss_seal_times : float list;  (** per-epoch seal latency, seconds *)
  ss_site_hits : int array;    (** cumulative across all sealed epochs *)
}

(** Like {!record_epochs}, but each sealed epoch is handed to [emit] as a
    v4 chunk and then dropped: nothing per-epoch is retained, so live
    memory is bounded by one window regardless of run length.  Pair [emit]
    with {!writer} + {!write_chunk} over an output channel to stream the
    log to disk as it is recorded. *)
let record_epochs_stream ?(sched = Sched.random ~seed:1)
    ?(max_steps = 5_000_000) ?(seed = 0)
    ?(weights = Metrics.Cost.default_weights) ~(epoch_len : int)
    ~(emit : chunk -> unit) (pp : Light.prepared) : stream_summary =
  let n = ref 0 in
  let status, st, recorder, seal_times =
    run_epoch_loop ~sched ~max_steps ~seed ~weights ~epoch_len pp
      ~on_epoch:(fun e ->
        incr n;
        emit (chunk_of_epoch e))
  in
  {
    ss_status = status;
    ss_steps = Interp.state_steps st;
    ss_clock = Recorder.accesses recorder;
    ss_epochs = !n;
    ss_seal_times = seal_times;
    ss_site_hits = Recorder.site_hits recorder;
  }

let to_string_v4 (r : recording) : string =
  let f = file_of_recording r in
  chunks_to_string ~o1:f.f_o1 ~o2:f.f_o2 ~epoch_len:f.f_epoch_len f.f_chunks

let is_v4 (s : string) : bool =
  let i = ref 0 in
  let n = String.length s in
  while !i < n && s.[!i] = '\n' do incr i done;
  n - !i >= 12 && String.sub s !i 12 = "light-log v4"

(** Parse a v4 file.  Each epoch's record body is handed to the v3 parser
    ({!Log.of_string}) with the intern-table lines accumulated so far
    prepended, so the battle-tested v3 reader does all event decoding;
    checkpoint lines are decoded here.  A malformed file fails with
    [Failure] and a message. *)
let of_string_v4 (s : string) : file =
  let lines = String.split_on_char '\n' s in
  let lines = List.filter (fun l -> l <> "") lines in
  let header, rest =
    match lines with [] -> failwith "empty log" | h :: t -> (h, t)
  in
  let o1, o2, epoch_len =
    match Log.header_flags ~version:"v4" header with
    | o1, o2, [ e ] when String.starts_with ~prefix:"epoch=" e -> (
      match int_of_string_opt (String.sub e 6 (String.length e - 6)) with
      | Some n -> (o1, o2, n)
      | None -> failwith ("bad log header: " ^ header))
    | _ -> failwith ("bad log header: " ^ header)
  in
  let fields_of_line l = String.split_on_char ' ' l in
  (* accumulated intern lines (cumulative across epochs) *)
  let flines = Buffer.create 256 in
  let chunks = ref [] in
  (* per-epoch accumulators *)
  let cur = ref None in
  let body = Buffer.create 4096 in
  let heap = ref [] and threads = ref [] and locks = ref [] in
  let waitqs = ref [] and crashes = ref [] in
  let sched = ref "" and rng = ref "" in
  let cur_thread : (Interp.snap_thread * Interp.snap_frame list ref) option ref =
    ref None
  in
  let close_thread () =
    match !cur_thread with
    | None -> ()
    | Some (t, frames) ->
      threads := { t with Interp.sn_frames = List.rev !frames } :: !threads;
      cur_thread := None
  in
  let close_epoch () =
    match !cur with
    | None -> ()
    | Some (idx, start_steps, steps, clock) ->
      close_thread ();
      let v3doc =
        Printf.sprintf "light-log v3 o1=%b o2=%b\n%s%s" o1 o2
          (Buffer.contents flines) (Buffer.contents body)
      in
      let log = Log.of_string v3doc in
      let sn =
        {
          Interp.snap_steps = start_steps;
          snap_heap = List.rev !heap;
          snap_threads = List.rev !threads;
          snap_locks = List.rev !locks;
          snap_waitsets = List.rev !waitqs;
          snap_crashes = List.rev !crashes;
          snap_rng = !rng;
        }
      in
      chunks :=
        {
          ck_idx = idx;
          ck_start_steps = start_steps;
          ck_steps = steps;
          ck_clock = clock;
          ck_sched = !sched;
          ck_snapshot = sn;
          ck_log = log;
        }
        :: !chunks;
      Buffer.clear body;
      heap := [];
      threads := [];
      locks := [];
      waitqs := [];
      crashes := [];
      sched := "";
      rng := "";
      cur := None
  in
  List.iter
    (fun line ->
      match fields_of_line line with
      | "E" :: idx :: start_steps :: steps :: clock :: [] ->
        close_epoch ();
        cur :=
          Some
            ( int_of_string idx,
              int_of_string start_steps,
              int_of_string steps,
              int_of_string clock )
      | "C" :: "sched" :: rest_tok ->
        close_thread ();
        sched := String.concat " " rest_tok
      | [ "C"; "rng"; h ] ->
        close_thread ();
        rng := h
      | "C" :: "obj" :: id :: cls :: _n :: fields ->
        close_thread ();
        let rec pairs = function
          | [] -> []
          | f :: v :: rest -> (Log.dec_field f, Log.value_of_string v) :: pairs rest
          | _ -> failwith ("bad C obj line: " ^ line)
        in
        heap := (int_of_string id, Log.dec_field cls, pairs fields) :: !heap
      | "C" :: "thread" :: tid :: status :: wait_restore :: alloc :: d :: sys_idx
        :: spawn_idx :: started :: nheld :: rest_tok ->
        close_thread ();
        let nheld = int_of_string nheld in
        let rec take_held n = function
          | rest when n = 0 -> ([], rest)
          | m :: c :: rest ->
            let held, tail = take_held (n - 1) rest in
            ((int_of_string m, int_of_string c) :: held, tail)
          | _ -> failwith ("bad C thread line: " ^ line)
        in
        let held, tail = take_held nheld rest_tok in
        (match tail with
        | [ _nframes ] ->
          cur_thread :=
            Some
              ( {
                  Interp.sn_tid = int_of_string tid;
                  sn_frames = [];
                  sn_status = status_of_string status;
                  sn_held = held;
                  sn_wait_restore = int_of_string wait_restore;
                  sn_alloc = int_of_string alloc;
                  sn_d = int_of_string d;
                  sn_sys_idx = int_of_string sys_idx;
                  sn_spawn_idx = int_of_string spawn_idx;
                  sn_started =
                    (match bool_of_string_opt started with
                    | Some b -> b
                    | None -> failwith ("bad C thread line: " ^ line));
                },
                ref [] )
        | _ -> failwith ("bad C thread line: " ^ line))
      | "c" :: "frame" :: ret_to :: ncont :: rest_tok -> (
        let ncont = int_of_string ncont in
        let rec take n l =
          if n = 0 then ([], l)
          else
            match l with
            | x :: rest ->
              let xs, tail = take (n - 1) rest in
              (x :: xs, tail)
            | [] -> failwith ("bad c frame line: " ^ line)
        in
        let cont_toks, tail = take ncont rest_tok in
        let cont =
          List.map
            (fun tok ->
              if String.length tok < 2 then failwith ("bad cont token: " ^ tok)
              else if tok.[0] = 'q' then
                Interp.SSeq (int_of_string (String.sub tok 1 (String.length tok - 1)))
              else if tok.[0] = 'u' then
                match String.split_on_char ':' (String.sub tok 1 (String.length tok - 1)) with
                | [ m; sid ] -> Interp.SUnlock (int_of_string m, int_of_string sid)
                | _ -> failwith ("bad cont token: " ^ tok)
              else failwith ("bad cont token: " ^ tok))
            cont_toks
        in
        match tail with
        | nslots :: slot_toks ->
          if List.length slot_toks <> int_of_string nslots then
            failwith ("bad c frame line: " ^ line);
          let frame =
            {
              Interp.sn_cont = cont;
              sn_slots = Array.of_list (List.map slot_of_string slot_toks);
              sn_ret_to = (if ret_to = "-" then None else Some (int_of_string ret_to));
            }
          in
          (match !cur_thread with
          | Some (_, frames) -> frames := frame :: !frames
          | None -> failwith "c frame line outside C thread")
        | [] -> failwith ("bad c frame line: " ^ line))
      | [ "C"; "lock"; m; owner; count ] ->
        close_thread ();
        locks :=
          (int_of_string m, (int_of_string owner, int_of_string count)) :: !locks
      | "C" :: "waitq" :: m :: waiters ->
        close_thread ();
        waitqs := (int_of_string m, List.map int_of_string waiters) :: !waitqs
      | [ "C"; "crash"; tid; site; lineno; c; msg ] ->
        close_thread ();
        crashes :=
          {
            Interp.tid = int_of_string tid;
            site = int_of_string site;
            line = int_of_string lineno;
            msg = Log.dec_field msg;
            c = int_of_string c;
          }
          :: !crashes
      | "F" :: _ ->
        close_thread ();
        Buffer.add_string flines line;
        Buffer.add_char flines '\n'
      | ("T" | "D" | "R" | "S") :: _ ->
        close_thread ();
        Buffer.add_string body line;
        Buffer.add_char body '\n'
      | _ -> failwith ("bad log line: " ^ line))
    rest;
  close_epoch ();
  { f_o1 = o1; f_o2 = o2; f_epoch_len = epoch_len; f_chunks = List.rev !chunks }

(** Replay epoch [k] straight out of a parsed v4 file: the caller supplies
    the (re-)prepared program (v4 stores no program text, like v3).  A
    checkpoint that does not belong to [pp]'s program is an [Error] naming
    the epoch and the unknown statement id. *)
let replay_chunk ?solver_budget ?(max_steps = 10_000_000) (pp : Light.prepared)
    (ck : chunk) : (epoch_replay, string) result =
  replay_fenced ?solver_budget ~max_steps pp ~idx:ck.ck_idx ck.ck_log ck.ck_snapshot
    ~start_steps:ck.ck_start_steps
