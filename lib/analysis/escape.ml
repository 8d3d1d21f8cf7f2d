(** Thread-escape analysis: which allocation sites may produce objects
    reachable by a thread other than the allocating one.

    Seeds: everything a global may point to, plus everything passed as a
    spawn argument (the analogue of the paper's Soot pass: data reachable
    from static fields or from the [Runnable]s handed to threads).  Closure:
    anything stored in a field / array element / map value of an escaping
    object escapes too.  Return values need no special casing — the
    points-to pass flows them into the caller's variable, so a returned
    object escapes exactly when the caller publishes it.

    A non-escaping site is thread-confined: every dynamic access to one of
    its objects comes from the thread that allocated it (any cross-thread
    path would have to pass through a global, a spawn argument, or the heap
    image of an object that itself escapes — all in the closure).  Eliding
    instrumentation on thread-confined data therefore drops no cross-thread
    flow dependence; see DESIGN.md, "Elision soundness".  It works across
    calls because points-to edges already span call/return boundaries. *)

module ISet = Pointsto.ISet

type t = ISet.t

let escaping (pt : Pointsto.t) (p : Lang.Ast.program) : t =
  let seeds =
    List.fold_left
      (fun acc g -> ISet.union acc (Pointsto.pts_global pt g))
      (Pointsto.spawn_arg_pts pt) p.globals
  in
  let esc = ref seeds in
  let changed = ref true in
  while !changed do
    changed := false;
    ISet.iter
      (fun a ->
        let out = Pointsto.heap_out pt a in
        if not (ISet.subset out !esc) then begin
          esc := ISet.union out !esc;
          changed := true
        end)
      !esc
  done;
  !esc
