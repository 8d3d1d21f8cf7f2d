(** Register-bytecode VM equivalence: [Vm] (flat instruction array, baked
    record sites) against [Interp] (slot-resolved tree walker) and
    [Interp_ref] (string-keyed reference).  The three engines must produce
    identical [outcome] records on every workload under both schedulers and
    on random generated programs; with the Light recorder installed, the
    VM's logs must be {e byte-identical} to the tree-walker's across all
    three recorder variants; the VM's snapshots must equal the tree
    walker's at every pause point, and tree-walker checkpoints must restore
    on the VM and replay. *)

open Runtime

(* field-by-field comparison so a mismatch names the observable *)
let check_outcome name (a : Interp.outcome) (b : Interp.outcome) =
  let chk field eq = Alcotest.(check bool) (name ^ ": " ^ field) true eq in
  chk "status" (a.status = b.status);
  chk "steps" (a.steps = b.steps);
  chk "crashes" (a.crashes = b.crashes);
  chk "reads" (a.reads = b.reads);
  chk "outputs" (a.outputs = b.outputs);
  chk "counters" (a.counters = b.counters);
  chk "syscalls" (a.syscalls = b.syscalls);
  chk "final_heap" (a.final_heap = b.final_heap)

let scheds = [ ("random", fun () -> Sched.random ~seed:11); ("rr", Sched.round_robin) ]

let test_workloads_equiv () =
  List.iter
    (fun (bm : Workloads.benchmark) ->
      let p = Workloads.program bm in
      let bp = Lang.Compile.lower (Interp.compile p) in
      List.iter
        (fun (sname, sched) ->
          let vm = Vm.run_program ~seed:5 ~sched:(sched ()) bp in
          let tree = Interp.run ~seed:5 ~sched:(sched ()) p in
          let ref_ = Interp_ref.run ~seed:5 ~sched:(sched ()) p in
          check_outcome (bm.name ^ "/" ^ sname ^ " vm=tree") vm tree;
          check_outcome (bm.name ^ "/" ^ sname ^ " vm=ref") vm ref_)
        scheds)
    Workloads.all

(* Random sharing signatures through the workload generator: unconstrained
   combinations (empty bursts, 1-thread, maps+syscalls, tiny arrays) the
   named workloads never exercise. *)
let params_gen : Workloads.params QCheck.Gen.t =
  QCheck.Gen.(
    int_range 1 4 >>= fun threads ->
    int_range 1 4 >>= fun iters ->
    int_range 0 3 >>= fun local_work ->
    int_range 1 12 >>= fun array_size ->
    int_range 1 4 >>= fun runlen ->
    bool >>= fun partition ->
    int_range 0 4 >>= fun array_reads ->
    int_range 0 4 >>= fun array_writes ->
    int_range 0 3 >>= fun hot_ops ->
    int_range 0 3 >>= fun locked_ops ->
    bool >>= fun use_maps ->
    bool >>= fun use_syscalls ->
    int_range 1 6 >>= fun stickiness ->
    return
      {
        Workloads.shape = Workloads.Loops;
        threads;
        iters;
        local_work;
        array_size;
        runlen;
        partition;
        array_reads;
        array_writes;
        hot_ops;
        locked_ops;
        use_maps;
        use_syscalls;
        stickiness;
      })

let outcomes_equal (a : Interp.outcome) (b : Interp.outcome) =
  a.status = b.status && a.steps = b.steps && a.crashes = b.crashes
  && a.reads = b.reads && a.outputs = b.outputs && a.counters = b.counters
  && a.syscalls = b.syscalls && a.final_heap = b.final_heap

let equiv_prop =
  QCheck.Test.make ~count:40 ~name:"random programs: Vm = Interp = Interp_ref"
    (QCheck.make params_gen) (fun prm ->
      let p =
        Lang.Check.validate_exn (Lang.Parser.parse_program (Workloads.generate prm))
      in
      List.for_all
        (fun (_, sched) ->
          let vm = Vm.run ~seed:5 ~sched:(sched ()) p in
          let tree = Interp.run ~seed:5 ~sched:(sched ()) p in
          let ref_ = Interp_ref.run ~seed:5 ~sched:(sched ()) p in
          outcomes_equal vm tree && outcomes_equal vm ref_)
        scheds)

(* ------------------------------------------------------------------ *)
(* Recorder byte-identity: the VM under the Light recorder must emit    *)
(* logs byte-for-byte equal to the tree walker's, on every variant      *)
(* ------------------------------------------------------------------ *)

let variants =
  [ Light_core.Light.v_basic; Light_core.Light.v_o1; Light_core.Light.v_both ]

let test_log_identity () =
  List.iter
    (fun (bm : Workloads.benchmark) ->
      let p = Workloads.program bm in
      List.iter
        (fun v ->
          let pp = Light_core.Light.prepare ~variant:v p in
          let record engine =
            Light_core.Light.record_prepared ~engine
              ~sched:(Workloads.scheduler ~seed:3 bm) ~seed:3 pp
          in
          let rt = record Vm.Tree in
          let rv = record Vm.Bytecode in
          let tag =
            bm.name ^ "/" ^ Light_core.Recorder.variant_name v
          in
          Alcotest.(check string)
            (tag ^ ": log bytes")
            (Light_core.Log.to_string rt.log)
            (Light_core.Log.to_string rv.log);
          check_outcome (tag ^ ": recorded outcome") rt.outcome rv.outcome)
        variants)
    Workloads.all

(* ------------------------------------------------------------------ *)
(* Replay through the VM                                                *)
(* ------------------------------------------------------------------ *)

let replay_workloads = [ "mp-queue"; "mp-barrier"; "cache4j"; "jgf-series" ]

let wl name =
  match Workloads.by_name name with
  | Some bm -> bm
  | None -> Alcotest.failf "no workload %s" name

(* Record on either engine, replay on the VM: both pairings must be
   faithful (the schedule constrains shared accesses, which the engines
   present identically). *)
let test_vm_replay () =
  List.iter
    (fun name ->
      let bm = wl name in
      let p = Workloads.program bm in
      List.iter
        (fun (rec_engine, tag) ->
          let r =
            Light_core.Light.record ~engine:rec_engine
              ~sched:(Workloads.scheduler ~seed:3 bm) ~seed:3 p
          in
          match Light_core.Light.replay r with
          | Error e -> Alcotest.failf "%s/%s: replay failed: %s" name tag e
          | Ok rr ->
            Alcotest.(check (list string))
              (name ^ "/" ^ tag ^ ": faithful")
              [] rr.faithful)
        [ (Vm.Bytecode, "vm->vm"); (Vm.Tree, "tree->vm") ])
    replay_workloads

(* Random programs, recorded and solved, replay step for step alike on
   both engines: same steps, status and access-order digest. *)
let replay_prop =
  QCheck.Test.make ~count:25 ~name:"random programs: replay fingerprint Vm = Interp"
    (QCheck.make params_gen) (fun prm ->
      let p =
        Lang.Check.validate_exn (Lang.Parser.parse_program (Workloads.generate prm))
      in
      let r =
        Light_core.Light.record
          ~sched:(Sched.sticky ~seed:prm.stickiness ~stickiness:prm.stickiness)
          ~seed:5 p
      in
      match (Light_core.Replayer.solve r.log).schedule with
      | None -> false
      | Some sch ->
        let fp engine = Replay_fp.(fingerprint (gated_run engine p ~plan:r.plan sch)) in
        fp Vm.Tree = fp Vm.Bytecode)

(* ------------------------------------------------------------------ *)
(* Epoch mode through the VM                                            *)
(* ------------------------------------------------------------------ *)

let epoch_workloads = [ "mp-queue"; "mp-barrier"; "cache4j"; "dacapo-avrora" ]

(* The VM's snapshots are the tree walker's: pause both engines every 400
   steps of the same run and the checkpoints must be structurally equal,
   which is what lets the VM restore the tree walker's epoch checkpoints. *)
let test_snapshot_identity () =
  List.iter
    (fun name ->
      let bm = wl name in
      let cp = Interp.compile (Workloads.program bm) in
      let tst = Interp.init_state ~seed:3 cp in
      let vst = Vm.init_state ~seed:3 (Lang.Compile.lower cp) in
      let tsched = Workloads.scheduler ~seed:3 bm in
      let vsched = Workloads.scheduler ~seed:3 bm in
      let rec go stop_at =
        let ts = Interp.run_state ~stop_at ~sched:tsched tst in
        let vs = Vm.run_state ~stop_at ~sched:vsched vst in
        let at = Printf.sprintf "%s at step %d" name (Interp.state_steps tst) in
        Alcotest.(check bool) (at ^ ": status") true (ts = vs);
        Alcotest.(check bool) (at ^ ": snapshot") true
          (Interp.snapshot tst = Vm.snapshot vst);
        if ts = None then go (stop_at + 400)
      in
      go 400)
    epoch_workloads

(* Cross-engine restore: replay every epoch of a tree-recorded run from
   its checkpoint on the VM; each replayed window reproduces the recorded
   one. *)
let test_epoch_cross_replay () =
  List.iter
    (fun name ->
      let bm = wl name in
      let p = Workloads.program bm in
      let pp = Light_core.Light.prepare p in
      let rt =
        Light_core.Epoch.record_epochs ~sched:(Workloads.scheduler ~seed:3 bm) ~seed:3
          ~epoch_len:400 pp
      in
      List.iteri
        (fun k (e : Light_core.Epoch.epoch) ->
          match Light_core.Epoch.replay_epoch rt k with
          | Error err -> Alcotest.failf "%s: epoch %d on vm: %s" name k err
          | Ok rr ->
            Alcotest.(check (list string))
              (Printf.sprintf "%s: epoch %d window (vm replay)" name k)
              []
              (Light_core.Epoch.window_matches ~expected:e.ep_obs rr.rr_obs))
        rt.er_epochs)
    epoch_workloads

let () =
  Alcotest.run "vm"
    [
      ( "equivalence",
        [
          Alcotest.test_case "28 workloads x 2 schedulers x 3 engines" `Slow
            test_workloads_equiv;
          QCheck_alcotest.to_alcotest equiv_prop;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "log byte-identity, 28 workloads x 3 variants"
            `Slow test_log_identity;
          Alcotest.test_case "replay via the VM (all engine pairings)" `Slow
            test_vm_replay;
          QCheck_alcotest.to_alcotest replay_prop;
        ] );
      ( "epochs",
        [
          Alcotest.test_case "snapshots equal the tree walker's" `Slow
            test_snapshot_identity;
          Alcotest.test_case "cross-engine checkpoint replay" `Slow
            test_epoch_cross_replay;
        ] );
    ]
