(** Schedule validation: an independent check that a solved schedule is a
    legitimate linearization of the recorded run — the structural half of
    the determinism oracle, computed from the log and the schedule alone
    (no interpreter, no constraint system).

    A valid schedule is a total order over the constrained events that
    preserves

    - {e thread-local order}: within each thread, ranks ascend with the
      thread-local counters;
    - every {e recorded flow dependence}: a dep's source write is ranked
      before the first read it feeds ([w -> rf]), and a range's feeding
      write before the range's first access ([w_in -> (rt, lo)]);
    - with [~zones:true], the full Equation-1 noninterference condition:
      no write-bearing interval of the location lands inside the protected
      zone of a read interval.  The zone sweep is quadratic per location,
      so tests enable it on small logs; the linear checks above run at
      workload scale.

    Returns human-readable violations; [[]] means the schedule validates.

    [~free] mirrors {!Constraints.generate}'s relaxation for exploration:
    a freed read interval's source pin is not required (the flip deliberately
    re-orders it), but every other dependence — and, with [~zones:true], the
    noninterference condition with the freed reader treated as sourceless —
    still must hold. *)

let check ?(zones = false) ?(free = []) (log : Log.t) (sch : Replayer.schedule) :
    string list =
  let freed : (Log.evt, unit) Hashtbl.t = Hashtbl.create (max 4 (List.length free)) in
  List.iter (fun e -> Hashtbl.replace freed e ()) free;
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let rank = Replayer.rank sch in
  let pp (t, c) = Printf.sprintf "(%d,%d)" t c in
  (* total order: [order] and [rank] are inverse bijections (a repeated
     event fails this at its earlier position) *)
  Array.iteri
    (fun k e ->
      match rank e with
      | Some r when r = k -> ()
      | Some r -> err "event %s at position %d has rank %d" (pp e) k r
      | None -> err "event %s at position %d is unranked" (pp e) k)
    sch.order;
  (* thread-local order: walking the order, each thread's counters ascend *)
  let last_c : (int, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iter
    (fun (t, c) ->
      (match Hashtbl.find_opt last_c t with
      | Some c' when c' >= c ->
        err "thread order violated: (%d,%d) ranked after (%d,%d)" t c t c'
      | _ -> ());
      Hashtbl.replace last_c t c)
    sch.order;
  (* recorded flow dependences *)
  let dep_edge what w r =
    match (rank w, rank r) with
    | Some rw, Some rr ->
      if rw >= rr then err "%s: write %s ranked %d, read %s ranked %d" what (pp w) rw (pp r) rr
    | None, _ -> err "%s: write %s unranked" what (pp w)
    | _, None -> err "%s: read %s unranked" what (pp r)
  in
  List.iter
    (fun (d : Log.dep) ->
      if not (Hashtbl.mem freed d.rf) then
        match d.w with Some w -> dep_edge "dep" w d.rf | None -> ())
    log.deps;
  List.iter
    (fun (r : Log.range) ->
      if r.prefix_reads && not (Hashtbl.mem freed (r.rt, r.lo)) then
        match r.w_in with Some w -> dep_edge "range" w (r.rt, r.lo) | None -> ())
    log.ranges;
  (* Equation-1 zones, checked straight from the interval normalization the
     constraint generator uses — one rank comparison per (reader, writer)
     pair, mirroring the naive clause set *)
  if zones then begin
    let must e =
      match rank e with
      | Some r -> r
      | None -> err "zone check: %s unranked" (pp e); -1
    in
    let inside (t, c) (j : Constraints.interval) =
      fst j.start_e = t && snd j.start_e <= c && c <= snd j.end_e
    in
    List.iter
      (fun (_, ivs) ->
        List.iter
          (fun (i : Constraints.interval) ->
            if i.reads then
              List.iter
                (fun (j : Constraints.interval) ->
                  if j != i && j.writes then begin
                    let clear = must i.end_e < must j.start_e in
                    let src =
                      match i.src with
                      | Some _ when Hashtbl.mem freed i.start_e -> None
                      | s -> s
                    in
                    match src with
                    | Some None ->
                      if not clear then
                        err "init reader %s..%s not before writer %s" (pp i.start_e)
                          (pp i.end_e) (pp j.start_e)
                    | Some (Some w) ->
                      if (not (inside w j)) && not (clear || must j.end_e < must w)
                      then
                        err "writer %s..%s inside zone (%s..%s] of reader %s..%s"
                          (pp j.start_e) (pp j.end_e) (pp w) (pp i.end_e)
                          (pp i.start_e) (pp i.end_e)
                    | None ->
                      if
                        fst i.start_e <> fst j.start_e
                        && not (clear || must j.end_e < must i.start_e)
                      then
                        err "writer %s..%s overlaps sourceless reader %s..%s"
                          (pp j.start_e) (pp j.end_e) (pp i.start_e) (pp i.end_e)
                  end)
                ivs)
          ivs)
      (Constraints.by_location (Constraints.intervals_of_log log))
  end;
  List.rev !errs
