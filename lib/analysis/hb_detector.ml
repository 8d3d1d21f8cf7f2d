(** Vector-clock happens-before race detector, run as a dynamic tool over
    the VM's [observe] hook (FastTrack-flavored: last-write epoch
    plus a per-thread read table per location).

    Role in this repository: the static analysis decides which access sites
    to instrument; this detector is the referee.  Run under
    [Plan.all_shared] it sees {e every} data access plus the ghost accesses
    that model synchronization (Section 4.3), so the happens-before relation
    it tracks is exactly the one Theorem 3.6 quantifies over.  The oracle
    suite then checks that every dynamically observed race lands on a
    statically instrumented site — a race at an elided site would mean the
    sharpened plan can drop a cross-thread flow dependence.  The unconfirmed
    direction (static race pairs never observed dynamically) is the
    precision metric reported by the [analysis] bench.

    Clock discipline: a thread's own clock starts at 1 — epoch 0 would
    compare [<=] against every vector clock and mask all races.  Ghost
    reads join the thread's clock from the ghost location's clock; ghost
    writes join the ghost location from the thread and then tick the
    thread's own clock (the release rule).  Because spawn/join/wait/notify
    are all modeled as ghost accesses by the interpreter, no extra
    per-primitive cases are needed here. *)

open Runtime

module ISet = Pointsto.ISet

type vc = (int, int) Hashtbl.t

let vc_get (vc : vc) (t : int) : int =
  Option.value ~default:0 (Hashtbl.find_opt vc t)

let vc_join (dst : vc) (src : vc) : unit =
  Hashtbl.iter (fun t c -> if c > vc_get dst t then Hashtbl.replace dst t c) src

type locstate = {
  mutable lw : (int * int * int) option;  (* last writer: tid, clock, site *)
  reads : (int, int * int) Hashtbl.t;     (* reader tid -> clock, site *)
}

type race = {
  loc : Loc.t;
  tid1 : int;
  site1 : int;
  k1 : Event.akind;  (** earlier access *)
  tid2 : int;
  site2 : int;
  k2 : Event.akind;  (** later access, the one that detected the race *)
}

type t = {
  threads : (int, vc) Hashtbl.t;
  sync : vc Loc.Tbl.t;       (* ghost locations: locks, conds, thread ghosts *)
  data : locstate Loc.Tbl.t;
  seen : (int * int, unit) Hashtbl.t;  (* site-pair dedup *)
  mutable races_rev : race list;
}

let create () : t =
  {
    threads = Hashtbl.create 8;
    sync = Loc.Tbl.create 32;
    data = Loc.Tbl.create 256;
    seen = Hashtbl.create 32;
    races_rev = [];
  }

let thread_vc (d : t) (tid : int) : vc =
  match Hashtbl.find_opt d.threads tid with
  | Some vc -> vc
  | None ->
    let vc = Hashtbl.create 8 in
    Hashtbl.replace vc tid 1;
    Hashtbl.replace d.threads tid vc;
    vc

let report d ~loc ~tid1 ~site1 ~k1 ~tid2 ~site2 ~k2 =
  let key = (min site1 site2, max site1 site2) in
  if not (Hashtbl.mem d.seen key) then begin
    Hashtbl.add d.seen key ();
    d.races_rev <- { loc; tid1; site1; k1; tid2; site2; k2 } :: d.races_rev
  end

let on_access (d : t) (a : Event.access) : unit =
  let cu = thread_vc d a.tid in
  if a.ghost <> Event.NotGhost then begin
    let gvc =
      match Loc.Tbl.find_opt d.sync a.loc with
      | Some vc -> vc
      | None ->
        let vc = Hashtbl.create 8 in
        Loc.Tbl.replace d.sync a.loc vc;
        vc
    in
    match a.kind with
    | Event.Read -> vc_join cu gvc
    | Event.Write ->
      vc_join gvc cu;
      Hashtbl.replace cu a.tid (vc_get cu a.tid + 1)
  end
  else begin
    let st =
      match Loc.Tbl.find_opt d.data a.loc with
      | Some st -> st
      | None ->
        let st = { lw = None; reads = Hashtbl.create 4 } in
        Loc.Tbl.replace d.data a.loc st;
        st
    in
    (* unordered with the last write? *)
    (match st.lw with
    | Some (t, c, s) when t <> a.tid && c > vc_get cu t ->
      report d ~loc:a.loc ~tid1:t ~site1:s ~k1:Event.Write ~tid2:a.tid
        ~site2:a.site ~k2:a.kind
    | _ -> ());
    let my = vc_get cu a.tid in
    match a.kind with
    | Event.Read -> Hashtbl.replace st.reads a.tid (my, a.site)
    | Event.Write ->
      Hashtbl.iter
        (fun t (c, s) ->
          if t <> a.tid && c > vc_get cu t then
            report d ~loc:a.loc ~tid1:t ~site1:s ~k1:Event.Read ~tid2:a.tid
              ~site2:a.site ~k2:Event.Write)
        st.reads;
      st.lw <- Some (a.tid, my, a.site)
  end

let observe (d : t) (ev : Event.t) : unit =
  match ev with Event.Access (a, _) -> on_access d a | _ -> ()

let hooks (d : t) : Interp.hooks =
  { Interp.default_hooks with observe = Some (fun ev -> observe d ev) }

let races (d : t) : race list = List.rev d.races_rev

(** Every static site involved in at least one observed race. *)
let racy_sites (d : t) : ISet.t =
  List.fold_left
    (fun acc r -> ISet.add r.site1 (ISet.add r.site2 acc))
    ISet.empty (races d)

(** Run [p] un-instrumented with every site observed and races tracked. *)
let detect ?(max_steps = 5_000_000) ?seed ~(sched : Sched.t) (p : Lang.Ast.program) :
    Interp.outcome * t =
  let d = create () in
  let outcome =
    Vm.run ~hooks:(hooks d) ~plan:Plan.all_shared ~max_steps ?seed ~sched p
  in
  (outcome, d)

let race_to_string (r : race) : string =
  Printf.sprintf "%s: s%d(%s,t%d) ~ s%d(%s,t%d)" (Loc.to_string r.loc) r.site1
    (Event.akind_str r.k1) r.tid1 r.site2 (Event.akind_str r.k2) r.tid2
