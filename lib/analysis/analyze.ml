(** Whole-program analysis results consumed by the instrumentation pass, by
    optimization O2 (Lemma 4.2) and by the Chimera baseline.

    One pipeline: points-to ({!Pointsto}), thread-escape ({!Escape}),
    must-alias locks ({!Sites}), then — unless [~refine:false] — the
    fork/join MHP and pairwise-lockset refinement ({!Mhp}, {!Lockset}).

    - {b shared targets}: data reachable from at least two dynamic thread
      contexts (the role Soot/Chord play in the paper).  A target is a
      per-allocation-site partition, a partition over a non-escaping
      allocation site is thread-confined, and init-phase accesses (main
      before the first spawn, happens-before-ordered with every thread)
      are excluded from both the context count and the plan.
    - {b guarded targets}: shared data whose every access site runs under a
      consistent lock, so access-level recording can be subsumed by the
      lock's ghost dependences.  Locks are unique allocation sites
      (must-alias through arbitrary local aliases).
    - {b race pairs}: pairs of sites on the same shared target, at least one
      a write, with no common lock — the input to Chimera's patching and
      the static side of the {!Hb_detector} precision metric. *)

open Lang

module ISet = Pointsto.ISet

module TM = Map.Make (struct
  type t = Sites.target
  let compare = Sites.target_compare
end)

type target_class = {
  target : Sites.target;
  shared : bool;
  guarded_by : string option;  (** display name of the consistent lock *)
  guard : Sites.lock option;   (** its identity, used for consistency *)
  covered : bool;
      (** every conflicting pair of active sites is lock-covered, ordered,
          or read/read ({!Lockset}): O2 applies even without [guard] *)
  active : ISet.t;
      (** sids with a may-happen-in-parallel conflicting counterpart on
          this partition (refined mode; empty otherwise) *)
  sites : Sites.info list;
}

type race_pair = {
  t1 : Sites.info;
  t2 : Sites.info;
  on : Sites.target;
}

type t = {
  program : Ast.program;
  callgraph : Callgraph.t;
  pointsto : Pointsto.t;
  escaping : ISet.t;             (** thread-escaping allocation sites *)
  mhp : Mhp.t;                   (** fork/join may-happen-in-parallel facts *)
  refined : bool;                (** MHP + pairwise-lockset refinement applied *)
  sites : Sites.info list;
  targets : target_class TM.t;
  races : race_pair list;
}

let intersect_locks (sites : Sites.info list) : Sites.lock option =
  (* init-phase accesses are happens-before-ordered with every thread and do
     not break lock consistency (safe publication) *)
  let sites = List.filter (fun (s : Sites.info) -> not s.init_phase) sites in
  match sites with
  | [] -> None
  | first :: rest ->
    if List.exists (fun (s : Sites.info) -> s.unresolved_lock) sites then None
    else
      let common =
        List.fold_left
          (fun acc (s : Sites.info) -> List.filter (fun l -> List.mem l s.locks) acc)
          first.locks rest
      in
      (match common with l :: _ -> Some l | [] -> None)

(* Render a lock identity for reports: a lock prints as the global that
   uniquely holds it when there is one (the common case), else by its
   allocation site. *)
let lock_display (pt : Pointsto.t) (p : Ast.program) (a : Sites.lock) : string =
  match List.filter (fun g -> ISet.mem a (Pointsto.pts_global pt g)) p.globals with
  | [ g ] -> g
  | _ -> Printf.sprintf "lock@s%d" a

let analyze ?refine:(refined = true) (p : Ast.program) : t =
  let cg = Callgraph.build p in
  let mhp = Mhp.build cg p in
  let pointsto = Pointsto.solve p in
  let escaping = Escape.escaping pointsto p in
  let sites = Sites.collect pointsto p in
  (* AUnknown merging: a base with an empty points-to set may alias any
     allocation, so its name bucket absorbs every same-name partition *)
  let unknown_keys = Hashtbl.create 8 in
  List.iter
    (fun (s : Sites.info) ->
      match s.target with
      | Sites.(TField (AUnknown, _) | TArray AUnknown | TMap AUnknown) ->
        Hashtbl.replace unknown_keys (Sites.target_base s.target) ()
      | _ -> ())
    sites;
  let coarsen (t : Sites.target) : Sites.target =
    if not (Hashtbl.mem unknown_keys (Sites.target_base t)) then t
    else
      match t with
      | Sites.TField (_, f) -> Sites.TField (Sites.AUnknown, f)
      | Sites.TArray _ -> Sites.TArray Sites.AUnknown
      | Sites.TMap _ -> Sites.TMap Sites.AUnknown
      | Sites.TGlobal _ -> t
  in
  let sites =
    if Hashtbl.length unknown_keys = 0 then sites
    else List.map (fun (s : Sites.info) -> { s with Sites.target = coarsen s.Sites.target }) sites
  in
  (* group sites by target; escape decides sharedness *)
  let groups =
    List.fold_left
      (fun m (s : Sites.info) ->
        let prev = Option.value ~default:[] (TM.find_opt s.target m) in
        TM.add s.target (s :: prev) m)
      TM.empty sites
  in
  let targets =
    TM.mapi
      (fun target group ->
        let group = List.rev group in
        (* dynamic thread contexts that can reach an accessing site.
           Init-phase sites do not count: they run before any thread
           exists, so a target whose remaining sites sit in one dynamic
           context has no unordered access pair. *)
        let counted = List.filter (fun (s : Sites.info) -> not s.init_phase) group in
        let entries =
          List.sort_uniq compare
            (List.concat_map (fun (s : Sites.info) -> Callgraph.entries_reaching cg s.fn) counted)
        in
        let contexts =
          List.fold_left (fun acc e -> acc + Callgraph.multiplicity cg e) 0 entries
        in
        let confined =
          (* a partition over a non-escaping allocation site is
             thread-confined even when several contexts execute its code *)
          match target with
          | Sites.(TField (ASite a, _) | TArray (ASite a) | TMap (ASite a)) ->
            not (ISet.mem a escaping)
          | _ -> false
        in
        (* refined: a (site, partition) membership needs instrumenting only
           when its execution is a source of replay nondeterminism.

           - A {e write} is active iff some conflicting access of the same
             partition may run concurrently with it (including a
             multi-instance site against its own copies).  An inactive
             write is HB-ordered against every conflicting access, so the
             spawn/join/lock ghost dependences — always recorded — already
             pin its position; it executes at exactly that position in
             replay.
           - A {e read} is active under the same condition — or whenever
             {e any} write of the partition is active.  The second clause
             is about the replayer, not the read itself: the replayer
             suppresses recorded writes that took part in no flow
             dependence (a blind write's interleaving is unknown, so
             executing it could corrupt a recorded read).  If a quiescent
             read were elided while a write of its partition stays
             instrumented, the final write the read observes may be blind
             — recorded, suppressed at replay, and the elided read runs
             ungated against memory that never received it.  Keeping the
             read instrumented turns that final write into a flow
             dependence, which is precisely the Equation-1 observation
             that pins it.  Conversely, when no write of the partition is
             active, every write is elided with it, elided writes are
             never suppressed, and the write set is HB-totally-ordered —
             so the quiescent read's value is deterministic.

           Init-phase and must-join-quiescent sites fall out for free:
           their intervals overlap no thread window. *)
        let active =
          if not refined then ISet.empty
          else begin
            let conflicts (s : Sites.info) (s' : Sites.info) =
              (s.kind = Sites.KWrite || s'.kind = Sites.KWrite)
              && Mhp.may_parallel mhp s.sid s'.sid
            in
            let active_writes =
              List.exists
                (fun (s : Sites.info) ->
                  s.kind = Sites.KWrite && List.exists (conflicts s) group)
                group
            in
            List.fold_left
              (fun acc (s : Sites.info) ->
                if
                  List.exists (conflicts s) group
                  || (s.kind = Sites.KRead && active_writes)
                then ISet.add s.sid acc
                else acc)
              ISet.empty group
          end
        in
        let shared =
          contexts >= 2 && not confined && ((not refined) || not (ISet.is_empty active))
        in
        let guard = if shared then intersect_locks group else None in
        let guarded_by = Option.map (lock_display pointsto p) guard in
        let covered =
          refined && shared && guard = None
          && Lockset.covered mhp
               (List.filter (fun (s : Sites.info) -> ISet.mem s.sid active) group)
        in
        { target; shared; guarded_by; guard; covered; active; sites = group })
      groups
  in
  (* race pairs: same shared unguarded target, >= 1 write, no common lock —
     and, refined, only pairs that may actually happen in parallel (a pair
     ordered by the fork/join structure is not a race candidate, and a
     pairwise-covered partition has none by construction) *)
  let races =
    TM.fold
      (fun target (tc : target_class) acc ->
        if (not tc.shared) || tc.guard <> None || tc.covered then acc
        else
          let rec pairs = function
            | [] -> []
            | (x : Sites.info) :: rest when x.init_phase -> pairs rest
            | (x : Sites.info) :: rest ->
              List.filter_map
                (fun (y : Sites.info) ->
                  if y.init_phase then None
                  else
                    let writes = x.kind = Sites.KWrite || y.kind = Sites.KWrite in
                    let no_common_lock =
                      x.unresolved_lock || y.unresolved_lock
                      || not (List.exists (fun l -> List.mem l y.locks) x.locks)
                    in
                    let parallel =
                      (not refined) || Mhp.may_parallel mhp x.sid y.sid
                    in
                    if writes && no_common_lock && parallel then
                      Some { t1 = x; t2 = y; on = target }
                    else None)
                rest
              @ pairs rest
          in
          pairs tc.sites @ acc)
      targets []
  in
  (* a site pair racing on several partitions of the same base is one race *)
  let races =
    let seen = Hashtbl.create 32 in
    List.filter
      (fun r ->
        let key = (min r.t1.sid r.t2.sid, max r.t1.sid r.t2.sid) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      races
  in
  {
    program = p;
    callgraph = cg;
    pointsto;
    escaping;
    mhp;
    refined;
    sites;
    targets;
    races;
  }

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(* is this (site, partition) membership one the plan must instrument? *)
let info_shared (a : t) (s : Sites.info) : bool =
  match TM.find_opt s.target a.targets with
  | None -> false
  | Some tc ->
    if a.refined then tc.shared && ISet.mem s.sid tc.active
    else (not s.init_phase) && tc.shared

let shared_sids (a : t) : (int, bool) Hashtbl.t =
  let h = Hashtbl.create 64 in
  List.iter
    (fun (s : Sites.info) ->
      if not (Hashtbl.mem h s.sid) then Hashtbl.replace h s.sid false)
    a.sites;
  List.iter
    (fun (s : Sites.info) -> if info_shared a s then Hashtbl.replace h s.sid true)
    a.sites;
  h

let guarded_sids (a : t) : (int, bool) Hashtbl.t =
  (* a site is guarded iff it is instrumented and every shared partition it
     may touch carries a consistent guard (each location instance belongs to
     exactly one partition, so per-partition guards suffice for Lemma 4.2) *)
  let by_sid : (int, Sites.info list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (s : Sites.info) ->
      Hashtbl.replace by_sid s.sid
        (s :: Option.value ~default:[] (Hashtbl.find_opt by_sid s.sid)))
    a.sites;
  let h = Hashtbl.create 64 in
  Hashtbl.iter
    (fun sid infos ->
      let shared_infos = List.filter (info_shared a) infos in
      let guarded =
        shared_infos <> []
        && List.for_all
             (fun (s : Sites.info) ->
               match TM.find_opt s.target a.targets with
               | Some tc -> tc.guard <> None || tc.covered
               | None -> false)
             shared_infos
      in
      Hashtbl.replace h sid guarded)
    by_sid;
  h

(** Distinct access sids whose every execution is ordered with every thread
    (init-phase, must-join quiescence, unreachable code). *)
let sequential_sids (a : t) : int =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (s : Sites.info) ->
      if (not (Hashtbl.mem seen s.sid)) && Mhp.sequential a.mhp s.sid then
        Hashtbl.replace seen s.sid ())
    a.sites;
  Hashtbl.length seen

(** Summary line for CLI / debugging. *)
let summary (a : t) : string =
  let total = TM.cardinal a.targets in
  let shared = TM.fold (fun _ tc n -> if tc.shared then n + 1 else n) a.targets 0 in
  let guarded =
    TM.fold
      (fun _ tc n -> if tc.guarded_by <> None || tc.covered then n + 1 else n)
      a.targets 0
  in
  Printf.sprintf "%d targets (%d shared, %d lock-guarded), %d sites, %d race pairs" total
    shared guarded (List.length a.sites) (List.length a.races)
