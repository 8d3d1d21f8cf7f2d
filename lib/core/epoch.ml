(** Epoch-based recording: checkpoint + log rotation + incremental solving.

    A monolithic recording holds the whole run's dependence log (and its
    constraint system) in memory at once — fine for a test run, fatal for a
    service that records forever.  Following iReplayer's in-situ epoch
    model, this module cuts the recording into fixed-length step windows,
    each one a {!chunk}:

    - recording runs on the register VM ({!Vm}); at each epoch boundary
      it pauses and its complete state is checkpointed ({!Vm.snapshot}:
      frames, heap, locks, waitsets, scheduler and RNG positions) and the
      recorder's arena buffers are {e sealed} ({!Recorder.seal}) into a
      self-contained per-epoch {!Log.t}.  Sealing clears the last-write
      table, so reads in the next epoch reference pre-boundary writes as
      the virtual initialization write — whose value is exactly what the
      checkpoint restores;
    - constraint generation + solving run per epoch ({!solve_epochs}).
      Each epoch's witness hint is shifted above the previous epoch's
      largest model value ({!Replayer.solve} [?hint_shift]); IDL is
      translation-invariant, so the per-epoch schedules concatenate into
      one globally consistent order;
    - replay of a chunk ({!replay_chunk}) restores its checkpoint on the
      register VM ({!Vm.restore_state}) and replays only that epoch's
      constrained events, fenced at the epoch's counter watermark —
      O(epoch) work regardless of run length.  One engine writes and
      restores every checkpoint, and only [Vm] and this module know its
      format.

    The on-disk form is log format v4: a per-epoch [E] line, checkpoint
    lines, a field-table {e delta}, then the epoch's v3 record lines.
    One streaming {!writer} produces every v4 byte; the reader decodes
    record lines with v3's line decoder ({!Log.record_line}) into the
    same rows the recorder seals, and checkpoint lines with the same
    cursor token readers.  The monolithic path remains
    the differential oracle. *)

open Runtime

(** One sealed epoch: everything {!replay_chunk} needs except the compiled
    program, and exactly what a v4 file holds for it. *)
type chunk = {
  ck_idx : int;
  ck_start_steps : int;  (** interpreter step count at the epoch's start *)
  ck_steps : int;        (** step count at the epoch's end (= next start) *)
  ck_clock : int;        (** cumulative recorder access clock at the end *)
  ck_sched : string;     (** scheduler pick-state token at the start *)
  ck_snapshot : Vm.snapshot;  (** checkpoint at the epoch's start *)
  ck_log : Log.t;  (** sealed window; [counters] = watermark at the end *)
}

(** A v4 file: the recording variant's flags, the epoch length and the
    chunks in order. *)
type file = {
  f_o1 : bool;
  f_o2 : bool;
  f_epoch_len : int;
  f_chunks : chunk list;
}

type recording = {
  er_file : file;
  er_obs : Vm.observables list;
      (** each chunk's window reads/outputs/syscalls, in chunk order *)
  er_outcome : Interp.outcome;  (** whole-run observables, reassembled *)
  er_site_hits : int array;  (** cumulative across all sealed epochs *)
}

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

(* The recording loop, parameterized over what happens to each sealed
   epoch: [record_epochs] accumulates them (and reassembles the whole-run
   observables), [record_epochs_stream] serializes and drops them, so its
   live memory is bounded by one window regardless of run length.  The
   final epoch is sealed by whatever terminates the run (normal
   completion, deadlock, or [max_steps]); a run ending exactly on a
   boundary still seals the (then empty) trailing window. *)
let run_epoch_loop ~sched ~max_steps ~seed ~weights ~epoch_len
    (pp : Light.prepared) ~(on_epoch : chunk -> Vm.observables -> unit) =
  if epoch_len <= 0 then invalid_arg "record_epochs: epoch_len must be positive";
  let recorder =
    Recorder.create ~variant:(Light.prepared_variant pp) ~weights
      (Light.prepared_modes pp)
  in
  let st =
    Vm.init_state ~hooks:(Recorder.hooks recorder)
      ~plan:(Light.prepared_plan pp) ~seed (Light.prepared_bytecode pp)
  in
  let seal_times = ref [] in
  let idx = ref 0 in
  let final = ref None in
  while !final = None do
    let sn = Vm.snapshot st in
    let sched_tok = sched.Sched.save () in
    let stop_at = Vm.state_steps st + epoch_len in
    let status = Vm.run_state ~max_steps ~stop_at ~sched st in
    let t0 = Unix.gettimeofday () in
    let counters = Vm.state_counters st in
    let obs = Vm.drain_observables st in
    let log = Recorder.seal recorder ~syscalls:obs.obs_syscalls ~counters in
    seal_times := (Unix.gettimeofday () -. t0) :: !seal_times;
    on_epoch
      {
        ck_idx = !idx;
        ck_start_steps = sn.Vm.snap_steps;
        ck_steps = Vm.state_steps st;
        ck_clock = Recorder.accesses recorder;
        ck_sched = sched_tok;
        ck_snapshot = sn;
        ck_log = log;
      }
      obs;
    incr idx;
    final := status
  done;
  (Option.get !final, st, recorder, List.rev !seal_times)

(** Record [pp] under [sched], checkpointing and sealing every [epoch_len]
    interpreter steps, and keep every chunk with its window observables. *)
let record_epochs ?(sched = Sched.random ~seed:1)
    ?(max_steps = 5_000_000) ?(seed = 0)
    ?(weights = Metrics.Cost.default_weights) ~(epoch_len : int)
    (pp : Light.prepared) : recording =
  let epochs = ref [] in
  let status, st, recorder, _ =
    run_epoch_loop ~sched ~max_steps ~seed ~weights ~epoch_len pp
      ~on_epoch:(fun ck obs -> epochs := (ck, obs) :: !epochs)
  in
  let chunks, windows = List.split (List.rev !epochs) in
  (* reassemble the whole-run observables from the per-epoch windows (the
     state's own buffers were drained at every boundary) *)
  let base = Vm.outcome_of_state st status in
  let gather proj tid =
    List.concat_map
      (fun w -> match List.assoc_opt tid (proj w) with Some l -> l | None -> [])
      windows
  in
  let tids = List.map fst base.Interp.counters in
  let outcome =
    {
      base with
      Interp.reads = List.map (fun tid -> (tid, gather (fun o -> o.Vm.obs_reads) tid)) tids;
      outputs = List.map (fun tid -> (tid, gather (fun o -> o.Vm.obs_outputs) tid)) tids;
      syscalls = List.concat_map (fun w -> w.Vm.obs_syscalls) windows;
    }
  in
  let v = Light.prepared_variant pp in
  {
    er_file =
      { f_o1 = v.Recorder.o1; f_o2 = v.Recorder.o2; f_epoch_len = epoch_len; f_chunks = chunks };
    er_obs = windows;
    er_outcome = outcome;
    er_site_hits = Recorder.site_hits recorder;
  }

(* ------------------------------------------------------------------ *)
(* Incremental solving                                                 *)
(* ------------------------------------------------------------------ *)

type epoch_solution = {
  es_idx : int;
  es_shift : int;  (** hint shift applied (previous epochs' watermark) *)
  es_report : Replayer.solve_report;
}

(** Solve every chunk's constraint system in order, seeding each from its
    own recorded-schedule witness shifted above the previous epoch's
    largest model value, so the concatenation of the per-epoch orders is a
    single consistent global order. *)
let solve_epochs ?budget (chunks : chunk list) : epoch_solution list =
  let shift = ref 0 in
  List.map
    (fun ck ->
      let rep = Replayer.solve ?budget ~hint_shift:!shift ck.ck_log in
      let applied = !shift in
      shift := max !shift rep.Replayer.max_model + 16;
      { es_idx = ck.ck_idx; es_shift = applied; es_report = rep })
    chunks

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
  rr_counters : (int * int) list;  (** each thread's D(t) where the replay ended *)
  rr_steps : int;  (** steps executed by the replay (O(epoch)) *)
  rr_obs : Vm.observables;  (** the replayed window's observables *)
  rr_report : Replayer.solve_report;
}

(* Fence the replay at the epoch's counter watermark: any shared access
   that would push a thread past its recorded end-of-epoch D(t) waits for
   rank [max_int], which the cursor never reaches.
   Without the fence, threads whose constrained events all executed would
   free-run into later epochs (their accesses are unconstrained in this
   epoch's schedule), making the replay O(run) again.  A thread absent
   from the watermark (spawned in a later epoch) is fenced at 0. *)
let fenced_hooks (hooks : Interp.hooks) (watermark : (int * int) list) :
    Interp.hooks =
  let dmax : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (t, d) -> Hashtbl.replace dmax t d) watermark;
  match hooks.Interp.gate with
  | Some (Rank r) ->
    let wait ~tid ~c =
      if c > Option.value (Hashtbl.find_opt dmax tid) ~default:0 then max_int
      else r.wait ~tid ~c
    in
    { hooks with Interp.gate = Some (Rank { r with wait }) }
  | Some (Pred _) | None -> invalid_arg "Epoch.fenced_hooks: the driver's rank gate"

(** Replay one chunk standalone against [pp] (the (re-)prepared program;
    v4 stores no program text, like v3): solve its sealed log, restore its
    checkpoint on the VM, and run fenced at its counter watermark.  Work is
    proportional to the epoch, never the run.  A checkpoint that does not
    belong to [pp]'s program is an [Error] naming the epoch and the
    unknown statement id. *)
let replay_chunk ?solver_budget ?(max_steps = 10_000_000) (pp : Light.prepared)
    (ck : chunk) : (epoch_replay, string) result =
  let rep = Replayer.solve ?budget:solver_budget ck.ck_log in
  match rep.Replayer.schedule with
  | None ->
    Error
      (match rep.Replayer.exhausted with
      | Some b -> Replayer.budget_exhausted b
      | None -> "epoch constraint system unsatisfiable")
  | Some sch ->
    let plan = Light.prepared_plan pp in
    let hooks = fenced_hooks (Replayer.driver sch ~plan) ck.ck_log.Log.counters in
    match Vm.rng_of_token ck.ck_snapshot.Vm.snap_rng with
    | Error why -> Error (Printf.sprintf "epoch %d: bad C rng state (%s)" ck.ck_idx why)
    | Ok _ -> (
    match Vm.restore_state ~hooks ~plan (Light.prepared_bytecode pp) ck.ck_snapshot with
    | exception Invalid_argument msg ->
      Error
        (Printf.sprintf "epoch %d: checkpoint does not match the program (%s)" ck.ck_idx msg)
    | st ->
      let status =
        match
          Vm.run_state ~max_steps:(ck.ck_start_steps + max_steps)
            ~sched:(Sched.round_robin ()) st
        with
        | Some s -> s
        | None -> assert false
      in
      let counters = Vm.state_counters st in
      let obs = Vm.drain_observables st in
      Ok
        {
          rr_status = status;
          rr_complete =
            List.for_all (fun (t, d) -> List.assoc_opt t counters = Some d) ck.ck_log.Log.counters;
          rr_counters = counters;
          rr_steps = Vm.state_steps st - ck.ck_start_steps;
          rr_obs = obs;
          rr_report = rep;
        })

(* ------------------------------------------------------------------ *)
(* Window slicing (differential oracles)                               *)
(* ------------------------------------------------------------------ *)

(** Slice a whole-run outcome down to epoch [k]'s window: per-thread reads
    with counters in [(d0, d1]], outputs by cumulative position, syscalls
    by per-thread index — directly comparable with {!epoch_replay.rr_obs}
    (and with the window's own entry of {!recording.er_obs}). *)
let slice_outcome (r : recording) (k : int) (o : Interp.outcome) :
    Vm.observables =
  let ck = List.nth r.er_file.f_chunks k in
  let win = List.nth r.er_obs k in
  let d0 tid =
    match
      List.find_opt
        (fun (t : Vm.snap_thread) -> t.sn_tid = tid)
        ck.ck_snapshot.Vm.snap_threads
    with
    | Some t -> t.Vm.sn_d
    | None -> 0
  in
  let d1 tid = Option.value ~default:0 (List.assoc_opt tid ck.ck_log.Log.counters) in
  let tids = List.map fst ck.ck_log.Log.counters in
  let reads =
    List.map
      (fun tid ->
        let all = Option.value ~default:[] (List.assoc_opt tid o.Interp.reads) in
        (tid, List.filter (fun (c, _) -> c > d0 tid && c <= d1 tid) all))
      tids
  in
  let n_outputs tid (w : Vm.observables) =
    match List.assoc_opt tid w.Vm.obs_outputs with Some l -> List.length l | None -> 0
  in
  let outputs =
    List.map
      (fun tid ->
        let all = Option.value ~default:[] (List.assoc_opt tid o.Interp.outputs) in
        (* the thread's outputs in the windows before this one *)
        let base =
          List.fold_left ( + ) 0
            (List.filteri (fun i _ -> i < k) (List.map (n_outputs tid) r.er_obs))
        in
        let count = n_outputs tid win in
        ( tid,
          List.filteri (fun i _ -> i >= base && i < base + count) all ))
      tids
  in
  let sys_lo tid = (* syscall idx range from the window's own syscalls *)
    List.filter_map
      (fun (t, i, _, _) -> if t = tid then Some i else None)
      win.Vm.obs_syscalls
    |> function [] -> None | l -> Some (List.fold_left min max_int l, List.fold_left max 0 l)
  in
  let syscalls =
    List.filter
      (fun (t, i, _, _) ->
        match sys_lo t with Some (lo, hi) -> i >= lo && i <= hi | None -> false)
      o.Interp.syscalls
  in
  { Vm.obs_reads = reads; obs_outputs = outputs; obs_syscalls = syscalls }

(** Compare a replayed epoch window against an expected one.  Reads must
    match exactly inside the counter window; outputs and syscalls must
    match on the window positions, tolerating deterministic local overrun
    past the boundary (extra trailing items in the replay are items of the
    next window, checked there). *)
let window_matches ~(expected : Vm.observables)
    (actual : Vm.observables) : string list =
  let ms = ref [] in
  let add fmt = Printf.ksprintf (fun m -> ms := m :: !ms) fmt in
  List.iter
    (fun (tid, exp_reads) ->
      let act = Option.value ~default:[] (List.assoc_opt tid actual.Vm.obs_reads) in
      (* the fence caps replay reads at the watermark, but a restored run's
         reads all carry counters in the window by construction *)
      if exp_reads <> act then
        add "reads: thread %d differs (%d expected, %d actual)" tid
          (List.length exp_reads) (List.length act))
    expected.Vm.obs_reads;
  List.iter
    (fun (tid, exp_outs) ->
      let act = Option.value ~default:[] (List.assoc_opt tid actual.Vm.obs_outputs) in
      let n = List.length exp_outs in
      let act_window = List.filteri (fun i _ -> i < n) act in
      if List.length act < n then
        add "outputs: thread %d short (%d expected, %d actual)" tid n (List.length act)
      else if exp_outs <> act_window then add "outputs: thread %d differs" tid)
    expected.Vm.obs_outputs;
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
  let act_by_tid = by_tid actual.Vm.obs_syscalls in
  List.iter
    (fun (tid, exp_l) ->
      let act_l = Option.value ~default:[] (List.assoc_opt tid act_by_tid) in
      let n = List.length exp_l in
      if List.length act_l < n then
        add "syscalls: thread %d short (%d expected, %d actual)" tid n
          (List.length act_l)
      else if exp_l <> List.filteri (fun i _ -> i < n) act_l then
        add "syscalls: thread %d differs" tid)
    (by_tid expected.Vm.obs_syscalls);
  List.rev !ms

(* ------------------------------------------------------------------ *)
(* Log format v4: the streaming writer                                 *)
(* ------------------------------------------------------------------ *)

let add_status (buf : Log.sink) (s : Interp.tstatus) : unit =
  let open Interp in
  let tagged tag n =
    Log.add_string buf tag;
    Log.add_int buf n
  in
  match s with
  | Runnable -> Log.add_string buf "run"
  | BlockedLock m -> tagged "bll:" m
  | BlockedJoin t -> tagged "blj:" t
  | InWait m -> tagged "wait:" m
  | Notified m -> tagged "ntf:" m
  | Reacquiring m -> tagged "reacq:" m
  | Finished -> Log.add_string buf "fin"
  | Crashed -> Log.add_string buf "crashed"

let add_slot (buf : Log.sink) (v : Value.t) : unit =
  if v == Interp.unbound then Log.add_char buf 'u'
  else Log.add_string buf (Log.value_str v)

(* Checkpoint lines.  Thread frames ride on [c frame] continuation lines
   under their [C thread] line; everything else is one line per item. *)
let add_snapshot (buf : Log.sink) (sn : Vm.snapshot) ~(sched : string) :
    unit =
  let sp () = Log.add_char buf ' ' in
  let nl () = Log.add_char buf '\n' in
  Log.add_string buf "C sched ";
  Log.add_string buf sched;
  nl ();
  Log.add_string buf "C rng ";
  Log.add_string buf sn.Vm.snap_rng;
  nl ();
  List.iter
    (fun (id, cls, fields) ->
      Log.add_string buf "C obj ";
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
          Log.add_string buf (Log.value_str v))
        fields;
      nl ())
    sn.Vm.snap_heap;
  List.iter
    (fun (t : Vm.snap_thread) ->
      Log.add_string buf "C thread ";
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
        (fun (f : Vm.snap_frame) ->
          Log.add_string buf "c frame ";
          (match f.sn_ret_to with
          | None -> Log.add_char buf '-'
          | Some x -> Log.add_int buf x);
          sp ();
          Log.add_int buf (List.length f.sn_cont);
          List.iter
            (fun (sc : Vm.scont) ->
              sp ();
              match sc with
              | Vm.SSeq sid ->
                Log.add_char buf 'q';
                Log.add_int buf sid
              | Vm.SUnlock (m, sid) ->
                Log.add_char buf 'u';
                Log.add_int buf m;
                Log.add_char buf ':';
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
    sn.Vm.snap_threads;
  List.iter
    (fun (m, (owner, count)) ->
      Log.add_string buf "C lock ";
      Log.add_int buf m;
      sp ();
      Log.add_int buf owner;
      sp ();
      Log.add_int buf count;
      nl ())
    sn.Vm.snap_locks;
  List.iter
    (fun (m, waiters) ->
      Log.add_string buf "C waitq ";
      Log.add_int buf m;
      List.iter
        (fun w ->
          sp ();
          Log.add_int buf w)
        waiters;
      nl ())
    sn.Vm.snap_waitsets;
  List.iter
    (fun (c : Interp.crash) ->
      Log.add_string buf "C crash ";
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
    sn.Vm.snap_crashes

(** The v4 writer.  [sink] receives the header immediately, then one
    serialized chunk per {!write_chunk} call.  The field table is written
    as a {e delta}: each chunk's [F] lines number only the named fields
    first used in that epoch, continuing the numbering of the chunks
    before it, so the writer never rewrites earlier output. *)
type writer = {
  wr_sink : string -> unit;
  wr_buf : Log.sink;
  wr_seen : Log.seen;  (** the fields numbered by earlier chunks' [F] lines *)
}

let flush (w : writer) : unit =
  w.wr_sink (Log.contents w.wr_buf);
  Log.clear_sink w.wr_buf

let writer ~(o1 : bool) ~(o2 : bool) ~(epoch_len : int)
    (sink : string -> unit) : writer =
  let w = { wr_sink = sink; wr_buf = Log.sink 65536; wr_seen = Log.seen () } in
  let buf = w.wr_buf in
  Log.add_header buf ~version:"v4" ~o1 ~o2;
  Log.add_string buf " epoch=";
  Log.add_int buf epoch_len;
  Log.add_char buf '\n';
  flush w;
  w

let write_chunk (w : writer) (ck : chunk) : unit =
  let buf = w.wr_buf in
  Log.add_string buf "E ";
  Log.add_int buf ck.ck_idx;
  Log.add_char buf ' ';
  Log.add_int buf ck.ck_start_steps;
  Log.add_char buf ' ';
  Log.add_int buf ck.ck_steps;
  Log.add_char buf ' ';
  Log.add_int buf ck.ck_clock;
  Log.add_char buf '\n';
  add_snapshot buf ck.ck_snapshot ~sched:ck.ck_sched;
  Log.body_add w.wr_seen ck.ck_log buf;  (* F lines: this epoch's new fields *)
  flush w

(** A whole file in format v4, through {!writer}. *)
let to_string_v4 (f : file) : string =
  let out = Buffer.create 65536 in
  let w = writer ~o1:f.f_o1 ~o2:f.f_o2 ~epoch_len:f.f_epoch_len (Buffer.add_string out) in
  List.iter (write_chunk w) f.f_chunks;
  Buffer.contents out

type stream_summary = {
  ss_status : Interp.status_summary;
  ss_steps : int;         (** total interpreter steps over all epochs *)
  ss_clock : int;         (** final cumulative recorder access clock *)
  ss_epochs : int;
  ss_seal_times : float list;  (** per-epoch seal latency, seconds *)
  ss_site_hits : int array;    (** cumulative across all sealed epochs *)
}

(** Like {!record_epochs}, but each sealed chunk is handed to [emit] and
    then dropped: nothing per-epoch is retained, so live memory is bounded
    by one window regardless of run length.  Pair [emit] with {!writer} +
    {!write_chunk} over an output channel to stream the log to disk as it
    is recorded. *)
let record_epochs_stream ?(sched = Sched.random ~seed:1)
    ?(max_steps = 5_000_000) ?(seed = 0)
    ?(weights = Metrics.Cost.default_weights) ~(epoch_len : int)
    ~(emit : chunk -> unit) (pp : Light.prepared) : stream_summary =
  let n = ref 0 in
  let status, st, recorder, seal_times =
    run_epoch_loop ~sched ~max_steps ~seed ~weights ~epoch_len pp
      ~on_epoch:(fun ck _ ->
        incr n;
        emit ck)
  in
  {
    ss_status = status;
    ss_steps = Vm.state_steps st;
    ss_clock = Recorder.accesses recorder;
    ss_epochs = !n;
    ss_seal_times = seal_times;
    ss_site_hits = Recorder.site_hits recorder;
  }

(* ------------------------------------------------------------------ *)
(* Log format v4: the reader                                           *)
(* ------------------------------------------------------------------ *)

let is_v4 (s : string) : bool =
  let i = ref 0 in
  let n = String.length s in
  while !i < n && s.[!i] = '\n' do incr i done;
  n - !i >= 12 && String.sub s !i 12 = "light-log v4"

(* A count, then that many items read by [item]: a count that disagrees
   with the items that follow fails on the first missing or extra one.
   [List.init] applies [item] left to right. *)
let counted (c : Log.cursor) (item : Log.cursor -> 'a) : 'a list =
  let n = Log.int_tok c in
  if n < 0 then Log.bad c;
  List.init n (fun _ -> item c)

let status_tok (c : Log.cursor) : Interp.tstatus =
  Log.next_tok c;
  let colon = Log.find_in c c.ts c.tl ':' in
  if colon < 0 then
    match Log.tok_text c with
    | "run" -> Runnable
    | "fin" -> Finished
    | "crashed" -> Crashed
    | _ -> Log.bad c
  else
    let m = Log.right c colon in
    match String.sub c.cs c.ts (colon - c.ts) with
    | "bll" -> BlockedLock m
    | "blj" -> BlockedJoin m
    | "wait" -> InWait m
    | "ntf" -> Notified m
    | "reacq" -> Reacquiring m
    | _ -> Log.bad c

let cont_tok (c : Log.cursor) : Vm.scont =
  Log.next_tok c;
  let st = c.ts and len = c.tl in
  let colon = Log.find_in c st len ':' in
  match if len = 0 then ' ' else c.cs.[st] with
  | 'q' -> Vm.SSeq (Log.int_sub c (st + 1) (len - 1))
  | 'u' when colon >= 0 ->
    Vm.SUnlock (Log.int_sub c (st + 1) (colon - st - 1), Log.right c colon)
  | _ -> Log.bad c

let slot_tok (c : Log.cursor) : Value.t =
  Log.next_tok c;
  if c.tl = 1 && c.cs.[c.ts] = 'u' then Interp.unbound else Log.value_sub c c.ts c.tl

(* A [c frame] continuation line: the next line of the file. *)
let frame_line (c : Log.cursor) : Vm.snap_frame =
  if not (Log.next_line c && Log.tag c = 'c') then Log.bad c;
  Log.next_tok c;
  if Log.tok_text c <> "frame" then Log.bad c;
  let sn_ret_to =
    Log.next_tok c;
    if c.tl = 1 && c.cs.[c.ts] = '-' then None else Some (Log.int_sub c c.ts c.tl)
  in
  let sn_cont = counted c cont_tok in
  let sn_slots = Array.of_list (counted c slot_tok) in
  Log.eod c;
  { Vm.sn_cont; sn_slots; sn_ret_to }

(* Decode the rest of a [C] line into [ck], whose snapshot lists are kept
   newest first while the epoch is read.  A [C thread] line also consumes
   its [c frame] lines. *)
let checkpoint_line (c : Log.cursor) (ck : chunk) : chunk =
  let sn = ck.ck_snapshot in
  let with_sn sn = { ck with ck_snapshot = sn } in
  Log.next_tok c;
  match Log.tok_text c with
  | "sched" ->
    (* one token, in whatever form the scheduler's [save] wrote it *)
    Log.next_tok c;
    let tok = Log.tok_text c in
    Log.eod c;
    { ck with ck_sched = tok }
  | "rng" ->
    (* a [Sched.marshal_hex] token: its shape is checked here, located;
       whether its bytes are a generator state is {!Vm.rng_of_token}'s
       check, which {!replay_chunk} names *)
    Log.next_tok c;
    let rng = Log.tok_text c in
    let hex ch = (ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f') in
    if rng = "" || String.length rng land 1 = 1 || not (String.for_all hex rng) then
      Log.bad c;
    Log.eod c;
    with_sn { sn with snap_rng = rng }
  | "obj" ->
    let id = Log.int_tok c in
    let cls = Log.field_tok c in
    let fields =
      counted c (fun c ->
          let f = Log.field_tok c in
          (f, Log.value_tok c))
    in
    Log.eod c;
    with_sn { sn with snap_heap = (id, cls, fields) :: sn.snap_heap }
  | "thread" ->
    let sn_tid = Log.int_tok c in
    let sn_status = status_tok c in
    let sn_wait_restore = Log.int_tok c in
    let sn_alloc = Log.int_tok c in
    let sn_d = Log.int_tok c in
    let sn_sys_idx = Log.int_tok c in
    let sn_spawn_idx = Log.int_tok c in
    let sn_started = Log.bool_tok c in
    let sn_held =
      counted c (fun c ->
          let m = Log.int_tok c in
          (m, Log.int_tok c))
    in
    let nframes = Log.int_tok c in
    Log.eod c;
    if nframes < 0 then Log.bad c;
    let sn_frames = List.init nframes (fun _ -> frame_line c) in
    let t =
      { Vm.sn_tid; sn_frames; sn_status; sn_held; sn_wait_restore; sn_alloc; sn_d;
        sn_sys_idx; sn_spawn_idx; sn_started }
    in
    with_sn { sn with snap_threads = t :: sn.snap_threads }
  | "lock" ->
    let m = Log.int_tok c in
    let owner = Log.int_tok c in
    let count = Log.int_tok c in
    Log.eod c;
    with_sn { sn with snap_locks = (m, (owner, count)) :: sn.snap_locks }
  | "waitq" ->
    let m = Log.int_tok c in
    let rec waiters () =
      if c.pos < c.eol then
        let w = Log.int_tok c in
        w :: waiters ()
      else []
    in
    with_sn { sn with snap_waitsets = (m, waiters ()) :: sn.snap_waitsets }
  | "crash" ->
    let tid = Log.int_tok c in
    let site = Log.int_tok c in
    let line = Log.int_tok c in
    let cnt = Log.int_tok c in
    let msg = Log.field_tok c in
    Log.eod c;
    with_sn
      { sn with snap_crashes = { Interp.tid; site; line; msg; c = cnt } :: sn.snap_crashes }
  | _ -> Log.bad c

(** Parse a v4 file in one in-place scan.  Record lines are decoded by the
    v3 line decoder into the current epoch's rows (one {!Log.builder},
    built at each epoch's end); the field-table deltas accumulate across
    epochs.  A malformed file — including any line before the first [E]
    line — is an [Error] naming the header or the line, located as
    {!Log.parse} locates it. *)
let of_string_v4 (s : string) : (file, Log.error) result =
  Log.located s @@ fun c ->
  let o1, o2, epoch_len =
    match Log.header c ~version:"v4" with
    | o1, o2, [ e ] when String.starts_with ~prefix:"epoch=" e -> (
      match int_of_string_opt (String.sub e 6 (String.length e - 6)) with
      | Some n -> (o1, o2, n)
      | None -> Log.bad_header c)
    | _ -> Log.bad_header c
  in
  let fmap = Hashtbl.create 32 and b = Log.builder () in
  let chunks = ref [] in
  (* the epoch being read; its records are in [b] *)
  let cur = ref None in
  let close () =
    Option.iter
      (fun ck ->
        let sn = ck.ck_snapshot in
        let sn =
          {
            sn with
            snap_heap = List.rev sn.snap_heap;
            snap_threads = List.rev sn.snap_threads;
            snap_locks = List.rev sn.snap_locks;
            snap_waitsets = List.rev sn.snap_waitsets;
            snap_crashes = List.rev sn.snap_crashes;
          }
        in
        chunks := { ck with ck_snapshot = sn; ck_log = Log.build b ~o1 ~o2 } :: !chunks)
      !cur
  in
  while Log.next_line c do
    match (Log.tag c, !cur) with
    | 'E', _ ->
      close ();
      let ck_idx = Log.int_tok c in
      let ck_start_steps = Log.int_tok c in
      let ck_steps = Log.int_tok c in
      let ck_clock = Log.int_tok c in
      Log.eod c;
      let snapshot =
        {
          Vm.snap_steps = ck_start_steps;
          snap_heap = [];
          snap_threads = [];
          snap_locks = [];
          snap_waitsets = [];
          snap_crashes = [];
          snap_rng = "";
        }
      in
      cur :=
        Some
          { ck_idx; ck_start_steps; ck_steps; ck_clock; ck_sched = ""; ck_snapshot = snapshot;
            ck_log = Log.empty }
    | _, None -> Log.bad c
    | 'C', Some ck -> cur := Some (checkpoint_line c ck)
    | tag, Some _ -> Log.record_line c ~fmap b tag
  done;
  close ();
  { f_o1 = o1; f_o2 = o2; f_epoch_len = epoch_len; f_chunks = List.rev !chunks }
