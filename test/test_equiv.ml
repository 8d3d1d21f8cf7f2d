(** Outcome equivalence of the slot-resolved interpreter ([Interp]) against
    the string-keyed reference ([Interp_ref], the pre-compilation
    semantics).  The two must produce identical [outcome] records — status,
    steps, reads, outputs, counters, syscalls, crashes and the un-interned
    final heap — on every workload under both a seeded-random and a
    round-robin scheduler, and on random programs from the workload
    generator.

    Also pins the log-format story: the v3 (intern-table) format must
    round-trip, and any other header (the retired v2 included) is refused
    as a bad log header. *)

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
      let cp = Interp.compile p in
      List.iter
        (fun (sname, sched) ->
          let a = Interp.run_compiled ~seed:5 ~sched:(sched ()) cp in
          let b = Interp_ref.run ~seed:5 ~sched:(sched ()) p in
          check_outcome (bm.name ^ "/" ^ sname) a b)
        scheds)
    Workloads.all

(* Random sharing signatures through the workload generator: small
   instances, but unconstrained combinations (empty bursts, 1-thread,
   maps+syscalls, tiny arrays) that the named 24 never exercise. *)
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

let equiv_prop =
  QCheck.Test.make ~count:40 ~name:"random programs: Interp = Interp_ref"
    (QCheck.make params_gen) (fun prm ->
      let p =
        Lang.Check.validate_exn (Lang.Parser.parse_program (Workloads.generate prm))
      in
      List.for_all
        (fun (_, sched) ->
          let a = Interp.run ~seed:5 ~sched:(sched ()) p in
          let b = Interp_ref.run ~seed:5 ~sched:(sched ()) p in
          a.status = b.status && a.steps = b.steps && a.crashes = b.crashes
          && a.reads = b.reads && a.outputs = b.outputs && a.counters = b.counters
          && a.syscalls = b.syscalls && a.final_heap = b.final_heap)
        scheds)

(* ------------------------------------------------------------------ *)
(* Log format compatibility                                             *)
(* ------------------------------------------------------------------ *)

let record_workload name =
  let bm = Option.get (Workloads.by_name name) in
  let p = Workloads.program bm in
  ( p,
    Light_core.Light.record ~variant:Light_core.Light.v_both
      ~sched:(Workloads.scheduler ~seed:3 bm) ~seed:3 p )

let test_v3_roundtrip () =
  let _, r = record_workload "dacapo-avrora" in
  let txt = Light_core.Log.to_string r.log in
  Alcotest.(check bool) "v3 header" true (String.length txt >= 12 && String.sub txt 0 12 = "light-log v3");
  let log2 = Light_core.Log.of_string txt in
  Alcotest.(check bool) "v3 roundtrip preserves the log" true (log2 = r.log)

let test_v2_rejected () =
  match Light_core.Log.of_string "light-log v2 o1=true o2=false\nT 1 5\n" with
  | _ -> Alcotest.fail "v2 log parsed"
  | exception Failure msg ->
    Alcotest.(check string) "error" "bad log header: light-log v2 o1=true o2=false" msg

let () =
  Alcotest.run "equiv"
    [
      ( "interp",
        [
          Alcotest.test_case "28 workloads x 2 schedulers" `Slow test_workloads_equiv;
          QCheck_alcotest.to_alcotest equiv_prop;
        ] );
      ( "log-format",
        [
          Alcotest.test_case "v3 round-trips" `Quick test_v3_roundtrip;
          Alcotest.test_case "v2 header rejected" `Quick test_v2_rejected;
        ] );
    ]
