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
      zone of a read interval (the rows of {!Constraints.table_of_log}).
      The zone sweep is quadratic per location, so tests enable it on
      small logs; the linear checks above run at workload scale.

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
  let d = log.deps in
  for k = 0 to Log.n_deps log - 1 do
    let b = k * Log.dep_width in
    let r = (d.(b + Log.d_rft), d.(b + Log.d_rfc)) in
    if d.(b + Log.d_wt) >= 0 && not (Hashtbl.mem freed r) then
      dep_edge "dep" (d.(b + Log.d_wt), d.(b + Log.d_wc)) r
  done;
  let a = log.ranges in
  for k = 0 to Log.n_ranges log - 1 do
    let b = k * Log.range_width in
    let r = (a.(b + Log.r_t), a.(b + Log.r_lo)) in
    if a.(b + Log.r_prefix) <> 0 && a.(b + Log.r_wt) >= 0 && not (Hashtbl.mem freed r) then
      dep_edge "range" (a.(b + Log.r_wt), a.(b + Log.r_wc)) r
  done;
  (* Equation-1 zones, checked straight from the interval table the
     constraint generator builds — one rank comparison per (reader,
     writer) pair on a location, mirroring the naive clause set *)
  if zones then begin
    let tb = Constraints.table_of_log log in
    let must e =
      match rank e with
      | Some r -> r
      | None -> err "zone check: %s unranked" (pp e); -1
    in
    let has = Constraints.has tb in
    let start k = (tb.tid.(k), tb.lo.(k)) and end_ k = (tb.tid.(k), tb.hi.(k)) in
    let inside (t, c) j = tb.tid.(j) = t && tb.lo.(j) <= c && c <= tb.hi.(j) in
    (* the source of row [i]'s reads: a variable, [init_src], or [no_src]
       when it has none or is freed *)
    let zsrc i =
      if i >= tb.n_base || (not (has i Constraints.f_sourced)) || Hashtbl.mem freed (start i)
      then Constraints.no_src
      else tb.src.(i)
    in
    Array.iter
      (fun rows ->
        List.iter
          (fun i ->
            if has i Constraints.f_reads then
              List.iter
                (fun j ->
                  if j <> i && has j Constraints.f_writes then begin
                    let clear = must (end_ i) < must (start j) in
                    let z = zsrc i in
                    if z = Constraints.init_src then begin
                      if not clear then
                        err "init reader %s..%s not before writer %s" (pp (start i))
                          (pp (end_ i)) (pp (start j))
                    end
                    else if z >= 0 then begin
                      let w = (tb.et.(z), tb.ec.(z)) in
                      if (not (inside w j)) && not (clear || must (end_ j) < must w) then
                        err "writer %s..%s inside zone (%s..%s] of reader %s..%s"
                          (pp (start j)) (pp (end_ j)) (pp w) (pp (end_ i))
                          (pp (start i)) (pp (end_ i))
                    end
                    else if
                      tb.tid.(i) <> tb.tid.(j)
                      && not (clear || must (end_ j) < must (start i))
                    then
                      err "writer %s..%s overlaps sourceless reader %s..%s"
                        (pp (start j)) (pp (end_ j)) (pp (start i)) (pp (end_ i))
                  end)
                rows)
          rows)
      (Constraints.location_rows tb)
  end;
  List.rev !errs
