(** Random programs for the property tests, through the workload
    generator. *)

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
