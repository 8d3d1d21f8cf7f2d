(** Register-bytecode VM equivalence: [Vm] (flat instruction array, baked
    record sites) against [Interp] (slot-resolved tree walker) and
    [Interp_ref] (string-keyed reference).  The three engines must produce
    identical [outcome] records on every workload under both schedulers and
    on random generated programs; with the Light recorder installed, the
    VM's logs must be {e byte-identical} to the tree-walker's across all
    three recorder variants, and so must its space, modeled overhead and
    per-site hit counts.  Epoch checkpoints are written and restored
    by the VM alone; test_epochs covers them. *)

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

let outcomes_equal (a : Interp.outcome) (b : Interp.outcome) =
  a.status = b.status && a.steps = b.steps && a.crashes = b.crashes
  && a.reads = b.reads && a.outputs = b.outputs && a.counters = b.counters
  && a.syscalls = b.syscalls && a.final_heap = b.final_heap

let equiv_prop =
  QCheck.Test.make ~count:40 ~name:"random programs: Vm = Interp = Interp_ref"
    (QCheck.make Random_programs.params_gen) (fun prm ->
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
          check_outcome (tag ^ ": recorded outcome") rt.outcome rv.outcome;
          (* the E1-E9 meters come from VM recordings *)
          Alcotest.(check int) (tag ^ ": space_longs") rt.space_longs rv.space_longs;
          Alcotest.(check (float 0.)) (tag ^ ": overhead") rt.overhead rv.overhead;
          Alcotest.(check (array int)) (tag ^ ": site_hits") rt.site_hits rv.site_hits)
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
            Light_core.Light.record_prepared ~engine:rec_engine
              ~sched:(Workloads.scheduler ~seed:3 bm) ~seed:3
              (Light_core.Light.prepare p)
          in
          match Light_core.Light.replay r with
          | Error e -> Alcotest.failf "%s/%s: replay failed: %s" name tag e
          | Ok rr ->
            Alcotest.(check (list string))
              (name ^ "/" ^ tag ^ ": faithful")
              [] rr.faithful)
        [ (Vm.Bytecode, "vm->vm"); (Vm.Tree, "tree->vm") ])
    replay_workloads

(* Random programs, recorded and solved, replay on the VM by the rank
   rule (no access runs before the ranks below its wait), to the recorded
   status, and faithfully. *)
let replay_prop =
  QCheck.Test.make ~count:25 ~name:"random programs: replay runs each access at its rank"
    (QCheck.make Random_programs.params_gen) (fun prm ->
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
      | Some sch -> (
        let o = Replay_fp.gated_run p ~plan:r.plan sch in
        match Replay_fp.rank_violation sch o with
        | Some early -> QCheck.Test.fail_report early
        | None ->
          Replay_fp.status_str o.status = Replay_fp.status_str r.outcome.status
          && Interp.replay_matches ~original:r.outcome ~replay:o = []))

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
    ]
