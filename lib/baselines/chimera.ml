(** Chimera (Lee, Chen, Flinn, Narayanasamy — PLDI 2012) reimplementation.

    Hybrid approach: a static race detector finds potentially racing
    statement pairs; the program is {e patched} by wrapping each racy
    method in a pairwise mutual-exclusion lock, making it race-free; the
    production run then records only the order of lock operations (cheap),
    which suffices for deterministic replay of a race-free program.

    The Light paper's H2 finding (Section 5.3) is that this heuristic is
    lossy: bugs that require the racing methods to {e interleave} are
    serialized away by the patch — the monitored program can no longer
    exhibit them, so they cannot be recorded or replayed.  We reproduce the
    mechanism (analysis -> patch -> lock-order record -> lock-order replay)
    so this failure mode emerges rather than being hard-coded. *)

open Runtime
open Lang

(* ------------------------------------------------------------------ *)
(* Patching                                                            *)
(* ------------------------------------------------------------------ *)

type patch_info = {
  patched : Ast.program;
  groups : (string * string list) list;  (** patch lock global -> methods *)
  main_races : int;  (** race sites in the main body (not patchable) *)
}

(* union-find over method names *)
let patch (p : Ast.program) : patch_info =
  let a = Analysis.Analyze.analyze p in
  let parent : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | Some px when px <> x ->
      let r = find px in
      Hashtbl.replace parent x r;
      r
    | _ -> x
  in
  let union x y =
    (match Hashtbl.find_opt parent x with None -> Hashtbl.add parent x x | Some _ -> ());
    (match Hashtbl.find_opt parent y with None -> Hashtbl.add parent y y | Some _ -> ());
    let rx = find x and ry = find y in
    if rx <> ry then Hashtbl.replace parent rx ry
  in
  let main_races = ref 0 in
  List.iter
    (fun (r : Analysis.Analyze.race_pair) ->
      match r.t1.fn, r.t2.fn with
      | Some f1, Some f2 -> union f1 f2
      | _ -> incr main_races)
    a.races;
  (* group methods by root *)
  let groups : (string, string list) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.iter
    (fun f _ ->
      let r = find f in
      let prev = Option.value ~default:[] (Hashtbl.find_opt groups r) in
      if not (List.mem f prev) then Hashtbl.replace groups r (f :: prev))
    parent;
  let group_list =
    Hashtbl.fold (fun root fns acc -> (root, List.sort compare fns) :: acc) groups []
    |> List.sort compare
  in
  (* assign a patch lock global per group and wrap the method bodies *)
  let sid = ref (Ast.max_sid p) in
  let fresh () = incr sid; !sid in
  let mk node = { Ast.sid = fresh (); line = 0; node } in
  let lock_of_fn : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let named_groups =
    List.mapi
      (fun i (_, fns) ->
        let g = Printf.sprintf "$patch%d" i in
        List.iter (fun f -> Hashtbl.replace lock_of_fn f g) fns;
        (g, fns))
      group_list
  in
  let wrap (fd : Ast.fndef) : Ast.fndef =
    match Hashtbl.find_opt lock_of_fn fd.fname with
    | None -> fd
    | Some g ->
      let tmp = Printf.sprintf "$pl_%s" fd.fname in
      let body =
        [ mk (Ast.GlobalLoad (tmp, g)); mk (Ast.Sync (Var tmp, fd.body)) ]
      in
      { fd with body }
  in
  let init_stmts =
    List.concat_map
      (fun (g, _) ->
        let tmp = "$init_" ^ g in
        [ mk (Ast.New (tmp, "$PatchLock")); mk (Ast.GlobalStore (g, Var tmp)) ])
      named_groups
  in
  let patched =
    {
      Ast.classes = ("$PatchLock", []) :: p.classes;
      globals = p.globals @ List.map fst named_groups;
      fns = List.map wrap p.fns;
      main = init_stmts @ p.main;
    }
  in
  { patched; groups = named_groups; main_races = !main_races }

(* ------------------------------------------------------------------ *)
(* Recording: lock operation order only                                 *)
(* ------------------------------------------------------------------ *)

type log = {
  lock_orders : (Loc.t * int array) list;  (** per ghost location: thread order *)
  syscalls : (int * int * string * Value.t) list;
  space_longs : int;
}

type recorder = {
  meter : Metrics.Cost.meter;
  stripes : Metrics.Cost.stripes;
  orders : int list ref Loc.Tbl.t;
  mutable ops : int;
}

let create_recorder ?(weights = Metrics.Cost.default_weights) () : recorder =
  {
    meter = Metrics.Cost.meter ~weights ();
    stripes = Metrics.Cost.stripes ();
    orders = Loc.Tbl.create 64;
    ops = 0;
  }

let recorder_hooks (r : recorder) : Interp.hooks =
  {
    Interp.default_hooks with
    observe =
      Some
        (fun ev ->
        match ev with
        | Event.Access (a, _) when a.ghost <> Event.NotGhost ->
          r.ops <- r.ops + 1;
          let level = Metrics.Cost.touch r.stripes a.loc ~tid:a.tid in
          Metrics.Cost.charge r.meter (SyncVectorAppend { level; resize = false });
          (match Loc.Tbl.find_opt r.orders a.loc with
          | Some l -> l := a.tid :: !l
          | None -> Loc.Tbl.add r.orders a.loc (ref [ a.tid ]))
        | _ -> ());
  }

let finalize_recorder (r : recorder) ~(outcome : Interp.outcome) : log =
  {
    lock_orders =
      Loc.Tbl.fold (fun loc l acc -> (loc, Array.of_list (List.rev !l)) :: acc) r.orders [];
    syscalls = outcome.syscalls;
    space_longs = r.ops;
  }

(* ------------------------------------------------------------------ *)
(* Replay: enforce the recorded per-lock orders                        *)
(* ------------------------------------------------------------------ *)

let replay_hooks (l : log) : Interp.hooks =
  let queues : (int array * int ref) Loc.Tbl.t = Loc.Tbl.create 64 in
  List.iter (fun (loc, v) -> Loc.Tbl.replace queues loc (v, ref 0)) l.lock_orders;
  let sys = Hashtbl.create 64 in
  List.iter (fun (t, i, _, v) -> Hashtbl.replace sys (t, i) v) l.syscalls;
  let gate (pre : Event.pre) =
    if pre.ghost = Event.NotGhost then true
    else
      match Loc.Tbl.find_opt queues pre.loc with
      | None -> true
      | Some (v, i) -> !i < Array.length v && v.(!i) = pre.tid
  in
  let observe = function
    | Event.Access (a, _) when a.ghost <> Event.NotGhost -> (
      match Loc.Tbl.find_opt queues a.loc with
      | Some (_, i) -> incr i
      | None -> ())
    | _ -> ()
  in
  {
    Interp.default_hooks with
    gate = Some (Pred gate);
    observe = Some observe;
    syscall_override = Some (fun ~tid ~idx ~name:_ -> Hashtbl.find_opt sys (tid, idx));
  }
