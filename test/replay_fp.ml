(* Replay-run fingerprints and the rank rule, shared by the replay and VM
   suites.

   A fingerprint is the step count, the final status and a digest of the
   full access order.  Two gates that admit the same runnable set at every
   step give the same fingerprint, so a pinned fingerprint holds the VM's
   replay of a schedule step for step. *)

open Runtime
open Light_core

let status_str : Interp.status_summary -> string = function
  | AllFinished -> "done"
  | StepLimit -> "limit"
  | Deadlock ts -> "deadlock" ^ String.concat "," (List.map string_of_int ts)
  | GateStuck ts -> "stuck" ^ String.concat "," (List.map string_of_int ts)

(* the replay run of [sch], with the trace collected; [wrap] can
   instrument the replayer's hooks, and [sched] is the scheduler the run is
   given (a rank-gated run never asks it) *)
let gated_run ?(wrap = Fun.id) ?(sched = Sched.round_robin ())
    (program : Lang.Ast.program) ~plan (sch : Replayer.schedule) =
  Vm.run ~hooks:(wrap (Replayer.driver sch ~plan)) ~plan ~collect_trace:true
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

(* Whether [a] continues the transition of [prev], the access before it
   in the trace: an acquire's or a reacquire's write after its read, and a
   finishing thread's further release or exit write after a release it
   makes on exit (site 0).  The gate admits a transition by its first
   access only. *)
let continues (prev : Event.access) (a : Event.access) : bool =
  prev.tid = a.tid
  && prev.c + 1 = a.c
  &&
  match prev.ghost, a.ghost with
  | LockAcqRead, LockAcqWrite | WaitReacqRead, WaitReacqWrite -> true
  | LockRelWrite, (LockRelWrite | ThreadExitWrite) -> prev.site = 0 && a.site = 0
  | _ -> false

(* The rank rule, read off a replay's trace: an access [(tid, c)] that
   starts a transition runs only after every rank below [Replayer.wait_rank
   sch ~tid ~c] has run.  A crash is exempt: a statement that makes no
   shared access is admitted without a rank, so its crash's exit accesses
   run ungated.  [None] when every access keeps the rule, else the first
   that ran early. *)
let rank_violation (sch : Replayer.schedule) (o : Interp.outcome) : string option =
  let crash_exit (a : Event.access) =
    List.exists (fun (k : Interp.crash) -> k.tid = a.tid && k.c + 1 = a.c) o.crashes
  in
  let ran = Array.make (Array.length sch.order) false in
  let cursor = ref 0 and prev = ref None in
  List.find_map
    (fun (a : Event.access) ->
      let w = Replayer.wait_rank sch ~tid:a.tid ~c:a.c in
      let gated =
        (match !prev with Some p -> not (continues p a) | None -> true) && not (crash_exit a)
      in
      let early =
        if (not gated) || !cursor >= w then None
        else
          Some
            (Printf.sprintf "(%d,%d) ran at cursor %d, before its wait rank %d" a.tid a.c
               !cursor w)
      in
      (match Replayer.rank sch (a.tid, a.c) with
      | Some k ->
        ran.(k) <- true;
        while !cursor < Array.length ran && ran.(!cursor) do incr cursor done
      | None -> ());
      prev := Some a;
      early)
    o.trace
