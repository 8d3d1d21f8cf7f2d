(** Flow-insensitive, field-sensitive allocation-site points-to analysis
    (Andersen style) over the checked AST.

    Abstract objects are allocation sites — the [sid] of a [New] /
    [NewArray] / [NewMap] statement.  References flow through local copies,
    object fields, array elements, map values, globals, call arguments and
    returns (the subject language cannot produce a reference any other way:
    arithmetic over references is a runtime type error, so only [Var] and
    [Null] expressions carry them).  The solver is a plain inclusion-based
    fixpoint: programs in this repository are a few hundred statements, so
    worklist sophistication would buy nothing.

    Downstream consumers:
    - {!Sites.collect} partitions access targets per allocation site
      instead of per field name;
    - {!Escape} computes thread-escape by heap reachability from globals
      and spawn arguments;
    - the must-alias lock resolution uses [unique_site]: a lock expression
      whose points-to set is a single site that provably allocates at most
      one dynamic object names one concrete lock. *)

open Lang

module ISet = Set.Make (Int)

type alloc_kind = AObj of string | AArr | AMap

type alloc_site = {
  a_sid : int;
  a_line : int;
  a_kind : alloc_kind;
  a_body : string;  (** enclosing body; [""] = main *)
  a_in_loop : bool;
}

(** Pointer nodes of the constraint graph. *)
type node =
  | NVar of string * string  (* (body, local); body "" = main *)
  | NGlob of string
  | NFld of int * string     (* field f of objects allocated at the site *)
  | NElem of int             (* elements of arrays allocated at the site *)
  | NMapv of int             (* values of maps allocated at the site *)
  | NRet of string           (* return value of a function *)

type sel = SField of string | SElem | SMapv

let sel_node (a : int) = function
  | SField f -> NFld (a, f)
  | SElem -> NElem a
  | SMapv -> NMapv a

type t = {
  sites : alloc_site list;  (** in source order *)
  site_tbl : (int, alloc_site) Hashtbl.t;
  pts : (node, ISet.t) Hashtbl.t;
  mult : (string, int) Hashtbl.t;  (** body -> dynamic executions, capped at 2 *)
  heap_out_tbl : (int, ISet.t) Hashtbl.t;
  spawn_args : node list;  (** actual-argument nodes at spawn sites *)
}

let body_name = function None -> "" | Some f -> f

let pts_node (pt : t) (n : node) : ISet.t =
  Option.value ~default:ISet.empty (Hashtbl.find_opt pt.pts n)

let pts_var (pt : t) ~(fn : string option) (x : string) : ISet.t =
  pts_node pt (NVar (body_name fn, x))

let pts_global (pt : t) (g : string) : ISet.t = pts_node pt (NGlob g)

let site (pt : t) (sid : int) : alloc_site option = Hashtbl.find_opt pt.site_tbl sid

let body_mult (pt : t) (body : string) : int =
  Option.value ~default:0 (Hashtbl.find_opt pt.mult body)

(** The site provably produces at most one dynamic object: it sits outside
    any loop, in a body that executes at most once.  Basis of the must-alias
    lock resolution: a singleton points-to set over a unique site names one
    concrete object. *)
let unique_site (pt : t) (sid : int) : bool =
  match site pt sid with
  | Some a -> (not a.a_in_loop) && body_mult pt a.a_body = 1
  | None -> false

(** Everything stored into a field / element / map value of objects
    allocated at [sid] — one step of heap reachability for the escape
    closure. *)
let heap_out (pt : t) (sid : int) : ISet.t =
  Option.value ~default:ISet.empty (Hashtbl.find_opt pt.heap_out_tbl sid)

let solve (p : Ast.program) : t =
  let sites = ref [] in
  let site_tbl = Hashtbl.create 64 in
  let copies = ref [] in  (* (src, dst): pts dst ⊇ pts src *)
  let loads = ref [] in   (* (base, sel, dst) *)
  let stores = ref [] in  (* (base, sel, src) *)
  let seeds = ref [] in   (* (node, sid) *)
  let spawn_args = ref [] in
  let call_edges = ref [] in  (* (caller body, callee, in_loop) *)
  let edge src dst = copies := (src, dst) :: !copies in
  let bodies =
    ("", p.main) :: List.map (fun (f : Ast.fndef) -> (f.fname, f.body)) p.fns
  in
  let walk (bname, block) =
    let var x = NVar (bname, x) in
    let src_of (e : Ast.expr) = match e with Ast.Var y -> Some (var y) | _ -> None in
    let alloc (s : Ast.stmt) x kind ~in_loop =
      let a =
        { a_sid = s.sid; a_line = s.line; a_kind = kind; a_body = bname;
          a_in_loop = in_loop }
      in
      sites := a :: !sites;
      Hashtbl.replace site_tbl s.sid a;
      seeds := (var x, s.sid) :: !seeds
    in
    let bind_args callee args =
      match Ast.find_fn p callee with
      | None -> ()
      | Some fd ->
        List.iteri
          (fun i arg ->
            match (List.nth_opt fd.params i, src_of arg) with
            | Some prm, Some s -> edge s (NVar (callee, prm))
            | _ -> ())
          args
    in
    let load b s d = loads := (b, s, d) :: !loads in
    let store b sl v = match src_of v with Some s -> stores := (b, sl, s) :: !stores | None -> () in
    let rec go ~in_loop (s : Ast.stmt) =
      (match s.node with
      | New (x, c) -> alloc s x (AObj c) ~in_loop
      | NewArray (x, _) -> alloc s x AArr ~in_loop
      | NewMap x -> alloc s x AMap ~in_loop
      | Assign (x, Var y) -> edge (var y) (var x)
      | Assign _ -> ()
      | Load (x, Var o, f) -> load (var o) (SField f) (var x)
      | Store (Var o, f, v) -> store (var o) (SField f) v
      | LoadIdx (x, Var a, _) -> load (var a) SElem (var x)
      | StoreIdx (Var a, _, v) -> store (var a) SElem v
      | MapGet (x, Var m, _) -> load (var m) SMapv (var x)
      | MapPut (Var m, _, v) -> store (var m) SMapv v
      | GlobalLoad (x, g) -> edge (NGlob g) (var x)
      | GlobalStore (g, v) -> (
        match src_of v with Some sv -> edge sv (NGlob g) | None -> ())
      | Call (ret, f, args) ->
        call_edges := (bname, f, in_loop) :: !call_edges;
        bind_args f args;
        (match ret with Some x -> edge (NRet f) (var x) | None -> ())
      | Spawn (_, f, args) ->
        call_edges := (bname, f, in_loop) :: !call_edges;
        bind_args f args;
        List.iter
          (fun arg -> match src_of arg with Some n -> spawn_args := n :: !spawn_args | None -> ())
          args
      | Return (Some v) ->
        if bname <> "" then (
          match src_of v with Some sv -> edge sv (NRet bname) | None -> ())
      | _ -> ());
      match s.node with
      | If (_, b1, b2) ->
        List.iter (go ~in_loop) b1;
        List.iter (go ~in_loop) b2
      | While (_, b) -> List.iter (go ~in_loop:true) b
      | Sync (_, b) -> List.iter (go ~in_loop) b
      | _ -> ()
    in
    List.iter (go ~in_loop:false) block
  in
  List.iter walk bodies;
  (* inclusion fixpoint *)
  let pts : (node, ISet.t) Hashtbl.t = Hashtbl.create 128 in
  let get n = Option.value ~default:ISet.empty (Hashtbl.find_opt pts n) in
  let changed = ref true in
  let add_set n s =
    let cur = get n in
    if not (ISet.subset s cur) then begin
      Hashtbl.replace pts n (ISet.union cur s);
      changed := true
    end
  in
  List.iter (fun (n, sid) -> add_set n (ISet.singleton sid)) !seeds;
  while !changed do
    changed := false;
    List.iter (fun (s, d) -> add_set d (get s)) !copies;
    List.iter
      (fun (b, sl, d) -> ISet.iter (fun a -> add_set d (get (sel_node a sl))) (get b))
      !loads;
    List.iter
      (fun (b, sl, s) -> ISet.iter (fun a -> add_set (sel_node a sl) (get s)) (get b))
      !stores
  done;
  (* dynamic execution multiplicity per body, capped at 2: main runs once;
     a callee accumulates over call and spawn sites, doubled inside loops *)
  let mult = Hashtbl.create 16 in
  Hashtbl.replace mult "" 1;
  List.iter (fun (f : Ast.fndef) -> Hashtbl.replace mult f.fname 0) p.fns;
  let m_changed = ref true in
  while !m_changed do
    m_changed := false;
    List.iter
      (fun (f : Ast.fndef) ->
        let total =
          List.fold_left
            (fun acc (caller, callee, in_loop) ->
              if callee = f.fname then
                acc
                + Option.value ~default:0 (Hashtbl.find_opt mult caller)
                  * (if in_loop then 2 else 1)
              else acc)
            0 !call_edges
        in
        let total = min 2 total in
        if total > Option.value ~default:0 (Hashtbl.find_opt mult f.fname) then begin
          Hashtbl.replace mult f.fname total;
          m_changed := true
        end)
      p.fns
  done;
  let heap_out_tbl = Hashtbl.create 32 in
  Hashtbl.iter
    (fun n set ->
      match n with
      | NFld (a, _) | NElem a | NMapv a ->
        let prev = Option.value ~default:ISet.empty (Hashtbl.find_opt heap_out_tbl a) in
        Hashtbl.replace heap_out_tbl a (ISet.union prev set)
      | _ -> ())
    pts;
  {
    sites = List.rev !sites;
    site_tbl;
    pts;
    mult;
    heap_out_tbl;
    spawn_args = !spawn_args;
  }

(** Union of the points-to sets of every spawn-site actual argument. *)
let spawn_arg_pts (pt : t) : ISet.t =
  List.fold_left (fun acc n -> ISet.union acc (pts_node pt n)) ISet.empty pt.spawn_args
