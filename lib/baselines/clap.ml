(** CLAP (Huang, Zhang, Dolby — PLDI 2013) reimplementation.

    Computation-based replay: the original run records only thread-local
    control flow (branch outcomes) and input nondeterminism (syscall
    values) — no shared-access instrumentation at all, hence the very low
    recording overhead.  The schedule is reconstructed {e offline} by
    execution synthesis: find an interleaving of the shared accesses whose
    induced read values drive every thread down its recorded path and
    reproduce the failure.

    The reconstruction must reason about the {e values} that flow through
    the program.  Real CLAP encodes them into an SMT solver, which — as the
    Light paper stresses (Section 5.3) — cannot model the complex or opaque
    computations of real-world Java code: hash functions, HashMap internals,
    string operations.  We model that inherent limitation faithfully: if the
    program's thread-reachable code uses maps or opaque operations, the
    value engine declares the bug {b out of scope} before searching.  For
    supported (linear, primitive-valued) programs the synthesis is a
    depth-first search over shared-access interleavings with on-the-fly
    path-conformance pruning — a concrete implementation of the same
    fixpoint CLAP's solver computes symbolically. *)

open Runtime
open Lang

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

type log = {
  threads : int list;                   (** every thread of the original run *)
  branches : (int * bool array) list;   (** per thread *)
  syscalls : (int * int * string * Value.t) list;
  crashes : Interp.crash list;          (** the failure to reproduce *)
  space_longs : int;                    (** branch bits packed into longs *)
}

type recorder = {
  meter : Metrics.Cost.meter;
  branch_logs : (int, bool list ref) Hashtbl.t;
  mutable nbranches : int;
}

let create ?(weights = Metrics.Cost.default_weights) () : recorder =
  { meter = Metrics.Cost.meter ~weights (); branch_logs = Hashtbl.create 16; nbranches = 0 }

let hooks (r : recorder) : Interp.hooks =
  {
    Interp.default_hooks with
    on_branch =
      Some
        (fun ~tid ~taken ->
        r.nbranches <- r.nbranches + 1;
        Metrics.Cost.charge r.meter LocalAppend;
        match Hashtbl.find_opt r.branch_logs tid with
        | Some l -> l := taken :: !l
        | None -> Hashtbl.add r.branch_logs tid (ref [ taken ]));
  }

let finalize (r : recorder) ~(outcome : Interp.outcome) : log =
  {
    threads = List.map fst outcome.counters;
    branches =
      Hashtbl.fold
        (fun t l acc -> (t, Array.of_list (List.rev !l)) :: acc)
        r.branch_logs [];
    syscalls = outcome.syscalls;
    crashes = outcome.crashes;
    space_longs = ((r.nbranches + 63) / 64) + (2 * List.length outcome.syscalls);
  }

(* ------------------------------------------------------------------ *)
(* Solver-support check                                                *)
(* ------------------------------------------------------------------ *)

(** Constructs whose value semantics fall outside the linear-arithmetic
    fragment real solvers handle (the paper's HashMap examples). *)
let unsupported_constructs (p : Ast.program) : string list =
  let found = ref [] in
  Ast.iter_stmts
    (fun s ->
      match s.node with
      | MapGet _ | MapPut _ | MapHas _ | NewMap _ ->
        found := "hash-map operations" :: !found
      | Opaque (_, name, _) when not (String.length name >= 2 && String.sub name 0 2 = "__")
        ->
        found := Printf.sprintf "opaque operation #%s" name :: !found
      | _ -> ())
    p;
  List.sort_uniq compare !found

(* ------------------------------------------------------------------ *)
(* Execution synthesis                                                 *)
(* ------------------------------------------------------------------ *)

exception Deviation

type synth_result =
  | Reproduced of (int * int) list
      (** the preemption schedule found: (step, thread) switch points *)
  | OutOfScope of string list
  | BudgetExhausted of int
  | NoFailureRecorded

(* A scheduler that stays on the current thread and performs forced context
   switches at the given (step, tid) points — candidate schedules are
   enumerated by iterative context bounding, the search strategy execution
   synthesis engines use for data-race failures. *)
let preemptive (switches : (int * int) list) : Sched.t =
  let cur = ref 1 in
  let pending = ref switches in
  {
    Sched.name = "preemptive";
    pick =
      (fun ~step ~runnable ->
        (match !pending with
        | (s, t) :: rest when step >= s ->
          pending := rest;
          if List.mem t runnable then cur := t
        | _ -> ());
        if List.mem !cur runnable then !cur else List.hd runnable);
    save =
      (fun () ->
        List.concat_map (fun (s, t) -> [ s; t ]) !pending
        |> List.cons !cur
        |> List.map string_of_int
        |> String.concat ",");
    load =
      (fun s ->
        let rec pairs = function
          | s :: t :: rest -> (s, t) :: pairs rest
          | [] -> []
          | [ _ ] -> failwith ("bad preemptive token: " ^ s)
        in
        match List.map int_of_string (String.split_on_char ',' s) with
        | c :: p ->
          cur := c;
          pending := pairs p
        | [] -> assert false (* split_on_char returns one field at least *));
  }

(* A runner for candidate schedules of the lowered program: the recorded
   paths and syscall values are indexed once, and each candidate only
   rewinds the per-thread branch positions.  A candidate gives [None] when
   some thread's branch stream deviates from its recorded path (prune). *)
let candidate_runner (bp : Bytecode.program) (l : log) :
    (int * int) list -> max_steps:int -> Interp.outcome option =
  let paths = Hashtbl.create 16 in
  List.iter (fun (t, arr) -> Hashtbl.replace paths t (arr, ref 0)) l.branches;
  let sys = Hashtbl.create 64 in
  List.iter (fun (t, i, _, v) -> Hashtbl.replace sys (t, i) v) l.syscalls;
  let on_branch ~tid ~taken =
    match Hashtbl.find_opt paths tid with
    | Some (arr, i) when !i < Array.length arr && arr.(!i) = taken -> incr i
    | _ -> raise Deviation
  in
  let hooks =
    {
      Interp.default_hooks with
      on_branch = Some on_branch;
      syscall_override = Some (fun ~tid ~idx ~name:_ -> Hashtbl.find_opt sys (tid, idx));
    }
  in
  fun switches ~max_steps ->
    Hashtbl.iter (fun _ (_, i) -> i := 0) paths;
    match Vm.run_program ~hooks ~max_steps ~sched:(preemptive switches) bp with
    | outcome -> Some outcome
    | exception Deviation -> None

let crash_key (c : Interp.crash) = (c.tid, c.site, c.msg)

(** Iterative context-bounded synthesis: try schedules with 0, 1, then 2
    forced preemptions, bounded by [budget] candidate executions. *)
let synthesize ?(budget = 30_000) (p : Ast.program) (l : log) : synth_result =
  match unsupported_constructs p with
  | _ :: _ as cs -> OutOfScope cs
  | [] ->
    if l.crashes = [] then NoFailureRecorded
    else begin
      let target = List.sort compare (List.map crash_key l.crashes) in
      let tried = ref 0 in
      let tids = List.sort_uniq compare (1 :: l.threads) in
      let run_candidate = candidate_runner (Compile.lower (Interp.compile p)) l in
      (* measure the default run to bound step positions *)
      let horizon =
        match run_candidate [] ~max_steps:100_000 with
        | Some o -> min 1_200 (o.steps + 50)
        | None -> 600
      in
      let matches (o : Interp.outcome) =
        o.status = Interp.AllFinished
        && List.sort compare (List.map crash_key o.crashes) = target
      in
      let exception Found of (int * int) list in
      let try_sched switches =
        if !tried < budget then begin
          incr tried;
          match run_candidate switches ~max_steps:(4 * horizon) with
          | Some o when matches o -> raise (Found switches)
          | _ -> ()
        end
      in
      try
        try_sched [];
        (* one preemption *)
        for s = 0 to horizon do
          List.iter (fun t -> try_sched [ (s, t) ]) tids
        done;
        (* two preemptions: tight windows first *)
        for delta = 1 to 80 do
          for s1 = 0 to horizon do
            List.iter
              (fun t1 ->
                List.iter
                  (fun t2 -> if t2 <> t1 then try_sched [ (s1, t1); (s1 + delta, t2) ])
                  tids)
              tids
          done
        done;
        BudgetExhausted !tried
      with Found sw -> Reproduced sw
    end
