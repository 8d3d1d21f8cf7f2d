(* Epoch-based recording: checkpoint/restore equivalence, v4 chunk
   round-trips, and the epoch-vs-monolithic replay differential.

   Contracts under test (DESIGN.md, "Epoch-based recording"):

   - {e scheduler save/load}: restoring a scheduler's pick state into a
     fresh instance of the same constructor reproduces the pick stream
     exactly — the checkpoint's scheduler token is sufficient;
   - {e snapshot/restore}: pausing any workload on the register VM at a
     step boundary, snapshotting, and resuming from the checkpoint on a
     fresh VM state is observationally identical to the tree walker's
     uninterrupted run — status, steps,
     counters, crashes, final heap, and the concatenated observables all
     match, under both sticky and random schedulers;
   - {e sealing passivity} (and the [--profile] aggregation fix): epoch
     recording reassembles exactly the monolithic run's outcome, and the
     recorder's cumulative site-hit counts are identical to a monolithic
     recording of the same run;
   - {e v4 format}: serialization is pinned byte-for-byte on a fixed
     program, generator and scheduler tokens included (they are text:
     decimal ints and the hex of a versioned generator state), and
     random recordings round-trip through
     [of_string_v4] to a byte-identical re-serialization;
   - {e epoch replay differential}: every epoch of every workload solves
     incrementally (hint shifted above the previous epoch's model),
     replays from its checkpoint in O(epoch) steps, and reproduces
     exactly the corresponding window of the monolithic outcome — whose
     own v3 replay must be faithful, closing the loop. *)

open Runtime

(* ------------------------------------------------------------------ *)
(* Scheduler save/load                                                 *)
(* ------------------------------------------------------------------ *)

let test_sched_save_load () =
  let constructors =
    [
      ("round_robin", fun () -> Sched.round_robin ());
      ("random", fun () -> Sched.random ~seed:42);
      ("sticky", fun () -> Sched.sticky ~seed:7 ~stickiness:5);
      ("scripted", fun () -> Sched.scripted [ 1; 2; 2; 3; 1; 2; 3; 1 ]);
      ("pct", fun () -> Sched.pct ~seed:9 ~depth:3 ~expected_steps:200);
      ("clap-preemptive",
       fun () -> Baselines.Clap.preemptive [ (10, 2); (25, 3); (80, 1) ]);
    ]
  in
  let runnable = [ 1; 2; 3 ] in
  List.iter
    (fun (name, mk) ->
      let a = mk () in
      (* advance to an interesting interior state *)
      for step = 0 to 59 do
        ignore (a.Sched.pick ~step ~runnable)
      done;
      let tok = a.Sched.save () in
      let b = mk () in
      b.Sched.load tok;
      for step = 60 to 159 do
        let pa = a.Sched.pick ~step ~runnable in
        let pb = b.Sched.pick ~step ~runnable in
        Alcotest.(check int)
          (Printf.sprintf "%s: pick at step %d survives save/load" name step)
          pa pb
      done)
    constructors

(* ------------------------------------------------------------------ *)
(* Snapshot/restore equivalence                                        *)
(* ------------------------------------------------------------------ *)

let assoc_or_empty tid l = Option.value ~default:[] (List.assoc_opt tid l)

(* Run [bm] uninterrupted on the tree walker; run it again on the VM
   pausing at step [k], snapshot, restore into a fresh VM state +
   scheduler, and resume.  The restored run plus the pre-pause
   observables must equal the uninterrupted run. *)
let check_snapshot_restore (bm : Workloads.benchmark) (sname, mk_sched) k =
  let label what = Printf.sprintf "%s/%s: %s" bm.Workloads.name sname what in
  let p = Workloads.program bm in
  let cp = Interp.compile p in
  let oref = Interp.run_compiled ~seed:5 ~sched:(mk_sched ()) cp in
  let bp = Lang.Compile.lower cp in
  let sched1 = mk_sched () in
  let st1 = Vm.init_state ~seed:5 bp in
  match Vm.run_state ~stop_at:k ~sched:sched1 st1 with
  | Some _ ->
    (* finished before the pause point: nothing to restore, but the run
       must still match the reference *)
    Alcotest.(check bool) (label "short run matches") true
      (Vm.state_steps st1 = oref.Interp.steps)
  | None ->
    let obs_pre = Vm.drain_observables st1 in
    let tok = sched1.Sched.save () in
    let sn = Vm.snapshot st1 in
    Alcotest.(check int) (label "snapshot at pause step") k sn.Vm.snap_steps;
    let st2 = Vm.restore_state bp sn in
    let sched2 = mk_sched () in
    sched2.Sched.load tok;
    let status2 =
      match Vm.run_state ~sched:sched2 st2 with
      | Some s -> s
      | None -> Alcotest.fail (label "restored run paused unexpectedly")
    in
    let o2 = Vm.outcome_of_state st2 status2 in
    Alcotest.(check bool) (label "status") true (o2.Interp.status = oref.Interp.status);
    Alcotest.(check int) (label "steps") oref.Interp.steps o2.Interp.steps;
    Alcotest.(check bool) (label "counters") true
      (o2.Interp.counters = oref.Interp.counters);
    Alcotest.(check bool) (label "crashes") true
      (o2.Interp.crashes = oref.Interp.crashes);
    Alcotest.(check bool) (label "final heap") true
      (o2.Interp.final_heap = oref.Interp.final_heap);
    (* observables concatenate: pre-pause window + restored run *)
    List.iter
      (fun (tid, ref_reads) ->
        let got =
          assoc_or_empty tid obs_pre.Vm.obs_reads
          @ assoc_or_empty tid o2.Interp.reads
        in
        Alcotest.(check bool)
          (label (Printf.sprintf "reads of thread %d" tid))
          true (got = ref_reads))
      oref.Interp.reads;
    List.iter
      (fun (tid, ref_outs) ->
        let got =
          assoc_or_empty tid obs_pre.Vm.obs_outputs
          @ assoc_or_empty tid o2.Interp.outputs
        in
        Alcotest.(check bool)
          (label (Printf.sprintf "outputs of thread %d" tid))
          true (got = ref_outs))
      oref.Interp.outputs;
    Alcotest.(check bool) (label "syscalls") true
      (obs_pre.Vm.obs_syscalls @ o2.Interp.syscalls = oref.Interp.syscalls)

let restore_scheds =
  [
    ("sticky", fun () -> Sched.sticky ~seed:7 ~stickiness:24);
    ("rand", fun () -> Sched.random ~seed:11);
  ]

let test_snapshot_restore_all () =
  List.iter
    (fun (bm : Workloads.benchmark) ->
      List.iter (fun sc -> check_snapshot_restore bm sc 301) restore_scheds)
    Workloads.all

(* ------------------------------------------------------------------ *)
(* Sealing passivity + cumulative site hits                            *)
(* ------------------------------------------------------------------ *)

let check_outcomes_equal label (a : Interp.outcome) (b : Interp.outcome) =
  let chk what eq = Alcotest.(check bool) (label ^ ": " ^ what) true eq in
  chk "status" (a.status = b.status);
  chk "steps" (a.steps = b.steps);
  chk "reads" (a.reads = b.reads);
  chk "outputs" (a.outputs = b.outputs);
  chk "counters" (a.counters = b.counters);
  chk "syscalls" (a.syscalls = b.syscalls);
  chk "crashes" (a.crashes = b.crashes);
  chk "final_heap" (a.final_heap = b.final_heap)

let test_seal_passive_and_cumulative () =
  List.iter
    (fun name ->
      let bm = Option.get (Workloads.by_name name) in
      let pp = Light_core.Light.prepare (Workloads.program bm) in
      let r =
        Light_core.Epoch.record_epochs
          ~sched:(Workloads.scheduler ~seed:3 bm) ~seed:3 ~epoch_len:700 pp
      in
      Alcotest.(check bool) (name ^ ": multiple epochs") true
        (List.length r.Light_core.Epoch.er_file.f_chunks > 1);
      let mono =
        Light_core.Light.record_prepared
          ~sched:(Workloads.scheduler ~seed:3 bm) ~seed:3 pp
      in
      check_outcomes_equal (name ^ ": epoch = monolithic original")
        mono.Light_core.Light.outcome r.Light_core.Epoch.er_outcome;
      (* the --profile fix: site hits aggregate across sealed epochs *)
      Alcotest.(check bool) (name ^ ": cumulative site hits") true
        (r.Light_core.Epoch.er_site_hits = mono.Light_core.Light.site_hits))
    [ "jgf-series"; "dacapo-avrora"; "mp-queue"; "mp-barrier" ]

(* ------------------------------------------------------------------ *)
(* v4 format: pinned bytes + random round-trips                        *)
(* ------------------------------------------------------------------ *)

let pinned_src = {|
  class C { n; }
  global c;
  fn w(k) {
    i = 0;
    while (i < 6) { sync (c) { c.n = c.n + k; } i = i + 1; }
    return i;
  }
  main { c = new C; sync (c) { c.n = 0; }
         spawn a = w(1); spawn b = w(2); join a; join b; print c.n; }
|}

let record_pinned () =
  let p = Lang.Check.validate_exn (Lang.Parser.parse_program pinned_src) in
  let pp = Light_core.Light.prepare p in
  Light_core.Epoch.record_epochs
    ~sched:(Sched.sticky ~seed:5 ~stickiness:3) ~seed:0 ~epoch_len:60 pp

let test_v4_pinned () =
  let r = record_pinned () in
  let txt = Light_core.Epoch.to_string_v4 r.er_file in
  Alcotest.(check bool) "sniffs as v4" true (Light_core.Epoch.is_v4 txt);
  let first_line = List.hd (String.split_on_char '\n' txt) in
  Alcotest.(check string) "pinned header" "light-log v4 o1=true o2=true epoch=60"
    first_line;
  let n_epochs =
    String.split_on_char '\n' txt
    |> List.filter (fun l -> String.length l >= 2 && String.sub l 0 2 = "E ")
    |> List.length
  in
  Alcotest.(check int) "pinned epoch count"
    (List.length r.Light_core.Epoch.er_file.f_chunks)
    n_epochs;
  Alcotest.(check string) "pinned v4 bytes"
    "64873e24b030c2c5336b5200387b5e40"
    (Digest.to_hex (Digest.string txt))

(* a v4 text the test itself wrote *)
let read_v4 (txt : string) : Light_core.Epoch.file =
  match Light_core.Epoch.of_string_v4 txt with
  | Ok f -> f
  | Error e -> Alcotest.failf "line %d (byte %d): %s" e.line e.byte e.msg

let test_v4_roundtrip_pinned () =
  let r = record_pinned () in
  let txt = Light_core.Epoch.to_string_v4 r.er_file in
  let f = read_v4 txt in
  Alcotest.(check int) "epoch_len survives" 60 f.Light_core.Epoch.f_epoch_len;
  Alcotest.(check int) "chunk count"
    (List.length r.Light_core.Epoch.er_file.f_chunks)
    (List.length f.Light_core.Epoch.f_chunks);
  let txt2 = Light_core.Epoch.to_string_v4 f in
  Alcotest.(check bool) "re-serialization byte-identical" true (txt = txt2)

(* Random programs (loop and message-passing shapes) through random
   epoch lengths: parse must invert serialize, byte for byte. *)
let epoch_case_gen =
  QCheck.Gen.(
    oneofl
      [ Workloads.Loops; Workloads.Queue; Workloads.Pipeline; Workloads.FanIn;
        Workloads.Barrier ]
    >>= fun shape ->
    int_range 1 3 >>= fun iters ->
    int_range 40 400 >>= fun epoch_len ->
    int_range 0 99 >>= fun seed ->
    return (shape, iters, epoch_len, seed))

let prop_v4_roundtrip =
  QCheck.Test.make ~count:25 ~name:"v4 round-trips on random epoch recordings"
    (QCheck.make
       ~print:(fun (_, iters, el, seed) ->
         Printf.sprintf "iters=%d epoch_len=%d seed=%d" iters el seed)
       epoch_case_gen)
    (fun (shape, iters, epoch_len, seed) ->
      let prm =
        match shape with
        | Workloads.Loops ->
          { (Option.get (Workloads.by_name "jgf-series")).Workloads.params with
            Workloads.iters }
        | _ ->
          { (Option.get (Workloads.by_name "mp-queue")).Workloads.params with
            Workloads.shape; iters }
      in
      let p =
        Lang.Check.validate_exn (Lang.Parser.parse_program (Workloads.generate prm))
      in
      let pp = Light_core.Light.prepare p in
      let r =
        Light_core.Epoch.record_epochs
          ~sched:(Sched.sticky ~seed ~stickiness:8) ~seed ~epoch_len pp
      in
      let txt = Light_core.Epoch.to_string_v4 r.er_file in
      let f = read_v4 txt in
      txt = Light_core.Epoch.to_string_v4 f
      && List.length f.Light_core.Epoch.f_chunks
         = List.length r.Light_core.Epoch.er_file.f_chunks)

(* ------------------------------------------------------------------ *)
(* Epoch replay differential (full suite)                              *)
(* ------------------------------------------------------------------ *)

type diff_cell = { dc_label : string; dc_errors : string list }

let run_diff_cell (bm : Workloads.benchmark) : diff_cell =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let pp = Light_core.Light.prepare (Workloads.program bm) in
  let r =
    Light_core.Epoch.record_epochs ~sched:(Workloads.scheduler ~seed:3 bm)
      ~seed:3 ~epoch_len:1200 pp
  in
  let mono =
    Light_core.Light.record_prepared ~sched:(Workloads.scheduler ~seed:3 bm)
      ~seed:3 pp
  in
  if mono.Light_core.Light.outcome <> r.Light_core.Epoch.er_outcome then
    err "epoch outcome differs from monolithic";
  (* the monolithic v3 replay is the ground truth the windows slice *)
  (match Light_core.Light.replay mono with
  | Error e -> err "monolithic replay failed: %s" e
  | Ok rr when rr.Light_core.Light.faithful <> [] ->
    err "monolithic replay unfaithful: %s"
      (String.concat "; " rr.Light_core.Light.faithful)
  | Ok _ -> ());
  (* incremental solving: every epoch solves, shifts never decrease *)
  let sols = Light_core.Epoch.solve_epochs r.Light_core.Epoch.er_file.f_chunks in
  let last_shift = ref (-1) in
  List.iter
    (fun (s : Light_core.Epoch.epoch_solution) ->
      (match s.es_report.Light_core.Replayer.result_kind with
      | Light_core.Replayer.Solved -> ()
      | _ -> err "epoch %d: unsolved" s.es_idx);
      if s.es_shift < !last_shift then err "epoch %d: shift decreased" s.es_idx;
      last_shift := s.es_shift)
    sols;
  (* per-epoch replay: O(epoch) and window-identical to the monolithic run *)
  List.iteri
    (fun k (ck : Light_core.Epoch.chunk) ->
      match Light_core.Epoch.replay_chunk pp ck with
      | Error msg -> err "epoch %d: replay failed: %s" k msg
      | Ok rr ->
        (* the fence denies shared accesses past the watermark, but local
           (unshared) steps run on until the next shared access, so the
           replay may overrun the window by the threads' local stretches —
           a run-length-independent constant, never a free-run *)
        let window = ck.ck_steps - ck.ck_start_steps in
        if not rr.rr_complete then err "epoch %d: replay stopped short of its watermark" k;
        if rr.rr_steps > window + 2048 then
          err "epoch %d: replay not O(epoch): %d steps for a %d-step window" k
            rr.rr_steps window;
        let expected =
          Light_core.Epoch.slice_outcome r k r.Light_core.Epoch.er_outcome
        in
        List.iter
          (fun m -> err "epoch %d: window mismatch: %s" k m)
          (Light_core.Epoch.window_matches ~expected rr.rr_obs))
    r.Light_core.Epoch.er_file.f_chunks;
  { dc_label = bm.Workloads.name; dc_errors = List.rev !errors }

let diff_cells =
  lazy (Engine.Batch.map ~f:run_diff_cell Workloads.all)

let test_epoch_differential () =
  Alcotest.(check int) "28 workloads" (List.length Workloads.all)
    (List.length (Lazy.force diff_cells));
  List.iter
    (fun c ->
      List.iter (fun e -> Alcotest.fail (c.dc_label ^ ": " ^ e)) c.dc_errors)
    (Lazy.force diff_cells)

(* Replay straight out of a parsed v4 file (the CLI's --epoch path). *)
let test_chunk_replay_from_text () =
  let bm = Option.get (Workloads.by_name "mp-fanin") in
  let pp = Light_core.Light.prepare (Workloads.program bm) in
  let r =
    Light_core.Epoch.record_epochs ~sched:(Workloads.scheduler ~seed:3 bm)
      ~seed:3 ~epoch_len:900 pp
  in
  let f = read_v4 (Light_core.Epoch.to_string_v4 r.er_file) in
  List.iteri
    (fun k ck ->
      match Light_core.Epoch.replay_chunk pp ck with
      | Error msg -> Alcotest.failf "chunk %d: %s" k msg
      | Ok rr ->
        let expected =
          Light_core.Epoch.slice_outcome r k r.Light_core.Epoch.er_outcome
        in
        Alcotest.(check bool) (Printf.sprintf "chunk %d reaches its watermark" k) true
          rr.rr_complete;
        Alcotest.(check (list string))
          (Printf.sprintf "chunk %d window" k)
          []
          (Light_core.Epoch.window_matches ~expected rr.rr_obs))
    f.Light_core.Epoch.f_chunks

(* A checkpoint replayed against a program it does not belong to is an
   [Error] naming the epoch and the statement id the program lacks. *)
let test_chunk_replay_mismatch () =
  let bm = Option.get (Workloads.by_name "mp-fanin") in
  let pp = Light_core.Light.prepare (Workloads.program bm) in
  let r =
    Light_core.Epoch.record_epochs ~sched:(Workloads.scheduler ~seed:3 bm)
      ~seed:3 ~epoch_len:100 pp
  in
  let other =
    Light_core.Light.prepare
      (Lang.Check.validate_exn (Lang.Parser.parse_program "main { print 1; }"))
  in
  let ck = List.nth r.Light_core.Epoch.er_file.f_chunks 1 in
  match Light_core.Epoch.replay_chunk other ck with
  | Ok _ -> Alcotest.fail "mismatched checkpoint replayed"
  | Error msg ->
    Alcotest.(check bool) ("names the epoch and statement id: " ^ msg) true
      (String.starts_with msg
         ~prefix:"epoch 1: checkpoint does not match the program (unknown statement id ")

(* A v4 file whose [C rng] token is no generator state replays to an
   [Error] naming that state: not an uncaught [Failure] from unmarshalling
   it, and not a program mismatch.  The tokens are the ones a [sed] on a
   recorded file makes: too short, or the right hex of the wrong bytes. *)
let test_chunk_replay_bad_rng () =
  let bm = Option.get (Workloads.by_name "mp-fanin") in
  let pp = Light_core.Light.prepare (Workloads.program bm) in
  let r =
    Light_core.Epoch.record_epochs ~sched:(Workloads.scheduler ~seed:3 bm)
      ~seed:3 ~epoch_len:100 pp
  in
  let txt = Light_core.Epoch.to_string_v4 r.er_file in
  let with_rng tok =
    String.split_on_char '\n' txt
    |> List.map (fun l -> if String.starts_with ~prefix:"C rng " l then "C rng " ^ tok else l)
    |> String.concat "\n"
  in
  List.iter
    (fun (what, tok, why) ->
      match Light_core.Epoch.of_string_v4 (with_rng tok) with
      | Error e -> Alcotest.failf "%s: does not parse: %s" what e.msg
      | Ok f -> (
        match Light_core.Epoch.replay_chunk pp (List.hd f.f_chunks) with
        | Ok _ -> Alcotest.failf "%s: replayed" what
        | Error msg -> Alcotest.(check string) what ("epoch 0: bad C rng state (" ^ why ^ ")") msg))
    [
      ("80 hex zeros", String.make 80 '0', "40 bytes, not a generator state");
      ("0000", "0000", "2 bytes, not a generator state");
      ("74 hex zeros", String.make 74 '0', "37 bytes, not a generator state");
    ]

let () =
  Alcotest.run "epochs"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "scheduler save/load" `Quick test_sched_save_load;
          Alcotest.test_case "snapshot/restore on all workloads" `Slow
            test_snapshot_restore_all;
          Alcotest.test_case "sealing passive, site hits cumulative" `Quick
            test_seal_passive_and_cumulative;
        ] );
      ( "v4",
        [
          Alcotest.test_case "pinned bytes" `Quick test_v4_pinned;
          Alcotest.test_case "pinned round-trip" `Quick test_v4_roundtrip_pinned;
          QCheck_alcotest.to_alcotest ~long:false prop_v4_roundtrip;
        ] );
      ( "differential",
        [
          Alcotest.test_case "epoch replay = monolithic windows" `Slow
            test_epoch_differential;
          Alcotest.test_case "chunk replay from v4 text" `Quick
            test_chunk_replay_from_text;
          Alcotest.test_case "chunk replay against another program" `Quick
            test_chunk_replay_mismatch;
          Alcotest.test_case "chunk replay names a corrupt C rng" `Quick
            test_chunk_replay_bad_rng;
        ] );
    ]
