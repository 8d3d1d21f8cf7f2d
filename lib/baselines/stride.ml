(** Stride (Zhou, Xiao, Zhang — ICSE 2012) reimplementation.

    Stride avoids Leap's per-access synchronized container by versioning:
    every write to a shared location atomically increments the location's
    version (CAS); each access records one {e int} — the version it created
    (write) or observed (read) — in a per-thread log.  Offline, the bounded
    linkage between read versions and write versions reconstructs a legal
    order in polynomial time.

    Space: one int per access, counted as half a long-integer (Section 5.2:
    "ints recorded by Stride are each counted as one half of a long
    integer").  Time: a CAS per write and a version read + validation per
    read — cheaper than Leap per operation, but still per-access global
    traffic on hot cache lines, which is why the paper measures both at the
    same order of magnitude. *)

open Runtime

type entry = { e_loc : Loc.t; e_version : int; e_write : bool }
(* e_loc is carried for the replay driver's convenience; the on-disk format
   (like Leap's) is per-location, so space counts only the version int *)

type t = {
  meter : Metrics.Cost.meter;
  stripes : Metrics.Cost.stripes;
  versions : int Loc.Tbl.t;
  logs : (int, entry list ref) Hashtbl.t;  (* per-thread, reversed *)
  mutable accesses : int;
}

let create ?(weights = Metrics.Cost.default_weights) () : t =
  {
    meter = Metrics.Cost.meter ~weights ();
    stripes = Metrics.Cost.stripes ();
    versions = Loc.Tbl.create 1024;
    logs = Hashtbl.create 16;
    accesses = 0;
  }

let log_of (r : t) tid =
  match Hashtbl.find_opt r.logs tid with
  | Some l -> l
  | None ->
    let l = ref [] in
    Hashtbl.add r.logs tid l;
    l

let on_access (r : t) (a : Event.access) : unit =
  let open Metrics.Cost in
  r.accesses <- r.accesses + 1;
  charge r.meter CounterTick;
  let level = touch r.stripes a.loc ~tid:a.tid in
  let cur = Option.value ~default:0 (Loc.Tbl.find_opt r.versions a.loc) in
  let entry =
    match a.kind with
    | Write ->
      charge r.meter (CasIncrement { level });
      charge r.meter LocalAppend;
      Loc.Tbl.replace r.versions a.loc (cur + 1);
      { e_loc = a.loc; e_version = cur + 1; e_write = true }
    | Read ->
      charge r.meter (VersionRead { level });
      charge r.meter LocalAppend;
      { e_loc = a.loc; e_version = cur; e_write = false }
  in
  let l = log_of r a.tid in
  l := entry :: !l

type log = {
  per_thread : (int * entry array) list;
  space_longs : int;  (** accesses / 2, rounded up *)
}

let finalize (r : t) : log =
  {
    per_thread = Hashtbl.fold (fun t l acc -> (t, Array.of_list (List.rev !l)) :: acc) r.logs [];
    space_longs = (r.accesses + 1) / 2;
  }

let hooks (r : t) : Interp.hooks =
  {
    Interp.default_hooks with
    observe = Some (fun ev -> match ev with Event.Access (a, _) -> on_access r a | _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* Replay: per-location version turn-taking                            *)
(* ------------------------------------------------------------------ *)

(* A write creating version v may run once the location is at version v-1
   and all recorded reads of version v-1 have run; a read of version v may
   run once the location is at version v.  This is the schedule the offline
   bounded-linkage reconstruction produces. *)
let replay_hooks (l : log) ~(syscalls : (int * int * string * Value.t) list) : Interp.hooks =
  (* expected reads per (loc, version) *)
  let expected : (Loc.t * int, int ref) Hashtbl.t = Hashtbl.create 1024 in
  List.iter
    (fun (_, entries) ->
      Array.iter
        (fun e ->
          if not e.e_write then
            match Hashtbl.find_opt expected (e.e_loc, e.e_version) with
            | Some n -> incr n
            | None -> Hashtbl.add expected (e.e_loc, e.e_version) (ref 1))
        entries)
    l.per_thread;
  let cursor : (int, int ref) Hashtbl.t = Hashtbl.create 16 in
  let entries_of : (int, entry array) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (t, es) -> Hashtbl.replace entries_of t es) l.per_thread;
  let versions : int Loc.Tbl.t = Loc.Tbl.create 1024 in
  let reads_done : (Loc.t * int, int ref) Hashtbl.t = Hashtbl.create 1024 in
  let next_entry tid =
    let cur =
      match Hashtbl.find_opt cursor tid with
      | Some c -> c
      | None ->
        let c = ref 0 in
        Hashtbl.add cursor tid c;
        c
    in
    match Hashtbl.find_opt entries_of tid with
    | Some es when !cur < Array.length es -> Some es.(!cur)
    | _ -> None
  in
  let sys = Hashtbl.create 64 in
  List.iter (fun (t, i, _, v) -> Hashtbl.replace sys (t, i) v) syscalls;
  let gate (pre : Event.pre) =
    match next_entry pre.tid with
    | None -> true
    | Some e ->
      let cur = Option.value ~default:0 (Loc.Tbl.find_opt versions pre.loc) in
      if e.e_write then
        let need =
          match Hashtbl.find_opt expected (pre.loc, e.e_version - 1) with
          | Some n -> !n
          | None -> 0
        in
        let got =
          match Hashtbl.find_opt reads_done (pre.loc, e.e_version - 1) with
          | Some n -> !n
          | None -> 0
        in
        cur = e.e_version - 1 && got >= need
      else cur = e.e_version
  in
  let observe = function
    | Event.Access (a, _) -> (
      (match Hashtbl.find_opt cursor a.tid with
      | Some c -> incr c
      | None -> Hashtbl.add cursor a.tid (ref 1));
      match a.kind with
      | Event.Write ->
        let cur = Option.value ~default:0 (Loc.Tbl.find_opt versions a.loc) in
        Loc.Tbl.replace versions a.loc (cur + 1)
      | Event.Read -> (
        let cur = Option.value ~default:0 (Loc.Tbl.find_opt versions a.loc) in
        match Hashtbl.find_opt reads_done (a.loc, cur) with
        | Some n -> incr n
        | None -> Hashtbl.add reads_done (a.loc, cur) (ref 1)))
    | _ -> ()
  in
  {
    Interp.default_hooks with
    gate = Some (Pred gate);
    observe = Some observe;
    syscall_override = Some (fun ~tid ~idx ~name:_ -> Hashtbl.find_opt sys (tid, idx));
  }
