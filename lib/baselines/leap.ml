(** LEAP (Huang, Liu, Zhang — FSE 2010) reimplementation.

    Records, for every shared location, a globally ordered access vector of
    thread ids, maintained under synchronization (the paper's Figure 2 shows
    the resulting per-location vectors).  Replay forces each location's
    accesses to follow the recorded vector.

    This is the expensive design point Light improves on: every shared
    access pays a synchronized container mutation (plus periodic resizing),
    and the space cost is one long-integer per access. *)

open Runtime

type t = {
  meter : Metrics.Cost.meter;
  stripes : Metrics.Cost.stripes;
  vectors : int list ref Loc.Tbl.t;  (** per location: reversed thread-id vector *)
  sizes : int Loc.Tbl.t;
  mutable accesses : int;
}

let create ?(weights = Metrics.Cost.default_weights) () : t =
  {
    meter = Metrics.Cost.meter ~weights ();
    stripes = Metrics.Cost.stripes ();
    vectors = Loc.Tbl.create 1024;
    sizes = Loc.Tbl.create 1024;
    accesses = 0;
  }

let on_access (r : t) (a : Event.access) : unit =
  let open Metrics.Cost in
  r.accesses <- r.accesses + 1;
  charge r.meter CounterTick;
  let level = touch r.stripes a.loc ~tid:a.tid in
  let n = Option.value ~default:0 (Loc.Tbl.find_opt r.sizes a.loc) in
  (* vectors resize on power-of-two growth *)
  let resize = n > 0 && n land (n - 1) = 0 in
  charge r.meter (SyncVectorAppend { level; resize });
  Loc.Tbl.replace r.sizes a.loc (n + 1);
  (match Loc.Tbl.find_opt r.vectors a.loc with
  | Some l -> l := a.tid :: !l
  | None -> Loc.Tbl.add r.vectors a.loc (ref [ a.tid ]));
  ()

type log = { accesses_by_loc : (Loc.t * int array) list; space_longs : int }

let finalize (r : t) : log =
  let accesses_by_loc =
    Loc.Tbl.fold
      (fun loc l acc -> (loc, Array.of_list (List.rev !l)) :: acc)
      r.vectors []
  in
  { accesses_by_loc; space_longs = r.accesses }

let hooks (r : t) : Interp.hooks =
  {
    Interp.default_hooks with
    observe = Some (fun ev -> match ev with Event.Access (a, _) -> on_access r a | _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* Replay: per-location turn-taking on the recorded vectors             *)
(* ------------------------------------------------------------------ *)

let replay_hooks (l : log) ~(syscalls : (int * int * string * Value.t) list) : Interp.hooks =
  let queues : (int array * int ref) Loc.Tbl.t = Loc.Tbl.create 256 in
  List.iter (fun (loc, v) -> Loc.Tbl.replace queues loc (v, ref 0)) l.accesses_by_loc;
  let sys = Hashtbl.create 64 in
  List.iter (fun (t, i, _, v) -> Hashtbl.replace sys (t, i) v) syscalls;
  let gate (pre : Event.pre) =
    match Loc.Tbl.find_opt queues pre.loc with
    | None -> true
    | Some (v, i) -> !i < Array.length v && v.(!i) = pre.tid
  in
  let observe = function
    | Event.Access (a, _) -> (
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
