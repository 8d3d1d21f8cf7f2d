(* Replay-run fingerprints, shared by the replay and VM suites.

   A fingerprint is the step count, the final status and a digest of the
   full access order.  Two gates that admit the same runnable set at every
   step give the same fingerprint, so equal fingerprints on both engines
   mean the engines replayed the schedule step for step alike. *)

open Runtime
open Light_core

let status_str : Interp.status_summary -> string = function
  | AllFinished -> "done"
  | StepLimit -> "limit"
  | Deadlock ts -> "deadlock" ^ String.concat "," (List.map string_of_int ts)
  | GateStuck ts -> "stuck" ^ String.concat "," (List.map string_of_int ts)

(* the replay run of [sch] on [engine], with the trace collected; [wrap]
   can instrument the replayer's hooks, and [sched] is the scheduler the
   run is given (a rank-gated run never asks it) *)
let gated_run ?(wrap = Fun.id) ?(sched = Sched.round_robin ()) engine
    (program : Lang.Ast.program) ~plan (sch : Replayer.schedule) =
  let run = match engine with Vm.Tree -> Interp.run | Vm.Bytecode -> Vm.run in
  run ~hooks:(wrap (Replayer.driver sch ~plan)) ~plan ~collect_trace:true
    ~max_steps:10_000_000 ~sched program

let fingerprint (o : Interp.outcome) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (a : Event.access) ->
      (* ghost kinds are constant constructors: their hash is stable *)
      Printf.bprintf b "%d.%d.%s.%s.%d.%d;" a.tid a.c (Loc.to_string a.loc)
        (Event.akind_str a.kind) a.site (Hashtbl.hash a.ghost))
    o.trace;
  Printf.sprintf "%d %s %s" o.steps (status_str o.status)
    (Digest.to_hex (Digest.string (Buffer.contents b)))
