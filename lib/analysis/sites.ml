(** Per-site facts: what each heap-access site touches, whether its base
    object is provably thread-local, and under which resolved locks it
    executes.  This is the substrate for the shared-location detection
    (Soot-style) and the consistent-lock-guard analysis of Lemma 4.2
    (Chord-style).

    Two collectors produce the same [info] shape at different precision:

    - {!collect_coarse} is the pre-points-to pipeline, kept verbatim as the
      old-vs-new comparison baseline: targets are name buckets ([AUnknown]
      allocation payloads), freshness is the per-body syntactic heuristic,
      and locks resolve only to global names;
    - {!collect_sharp} consumes the {!Pointsto} solution and an escape set:
      targets are (allocation-site, field) / per-site array and map
      partitions, thread-locality is real escape analysis, and locks
      resolve to unique allocation sites through arbitrary local aliases
      (must-alias). *)

open Lang

(** Allocation-site qualifier of a target: [ASite sid] pins the partition to
    one allocation statement; [AUnknown] is the name-bucket fallback (coarse
    mode, or a base whose points-to set is empty). *)
type alloc = ASite of int | AUnknown

type target =
  | TField of alloc * string
  | TGlobal of string
  | TArray of alloc  (** elements of arrays from one allocation site *)
  | TMap of alloc    (** entries of maps from one allocation site *)

(* Explicit structural comparator and hash: the target type carries
   allocation-site payloads, and inheriting polymorphic compare would tie
   the ordering (hence TM iteration order, hence every report) to the
   constructor layout.  Order: globals, then fields by name then site, then
   arrays, then maps; AUnknown sorts before any concrete site. *)

let alloc_compare (a : alloc) (b : alloc) : int =
  match (a, b) with
  | AUnknown, AUnknown -> 0
  | AUnknown, ASite _ -> -1
  | ASite _, AUnknown -> 1
  | ASite x, ASite y -> Int.compare x y

let target_compare (t1 : target) (t2 : target) : int =
  match (t1, t2) with
  | TGlobal a, TGlobal b -> String.compare a b
  | TGlobal _, _ -> -1
  | _, TGlobal _ -> 1
  | TField (a1, f1), TField (a2, f2) -> (
    match String.compare f1 f2 with 0 -> alloc_compare a1 a2 | c -> c)
  | TField _, _ -> -1
  | _, TField _ -> 1
  | TArray a, TArray b -> alloc_compare a b
  | TArray _, _ -> -1
  | _, TArray _ -> 1
  | TMap a, TMap b -> alloc_compare a b

(** Name bucket of a target (the coarse spelling): ".f", "g", "[]", "{}". *)
let target_base = function
  | TField (_, f) -> "." ^ f
  | TGlobal g -> g
  | TArray _ -> "[]"
  | TMap _ -> "{}"

let alloc_str = function ASite s -> "@s" ^ string_of_int s | AUnknown -> ""

let target_to_string = function
  | TGlobal g -> g
  | (TField (a, _) | TArray a | TMap a) as t -> target_base t ^ alloc_str a

type kind = KRead | KWrite

(** A lock identity: a unique allocation site (sharp mode, must-alias) or a
    global name (coarse mode's legacy resolution). *)
type lock = LSite of int | LName of string

type info = {
  sid : int;
  line : int;
  target : target;
  kind : kind;
  fn : string option;   (** enclosing body; [None] = main *)
  locks : lock list;    (** enclosing sync locks that resolved *)
  unresolved_lock : bool;  (** some enclosing sync lock failed to resolve *)
  base_local : bool;    (** every object the base may denote is thread-confined *)
  init_phase : bool;
      (** in the main body before the first spawn: happens-before-ordered
          with every thread, so it cannot race and does not break lock
          consistency (Java-style safe publication at thread start) *)
}

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

module SSet = Set.Make (String)

let base_var = function Ast.Var x -> Some x | _ -> None

(* main-body statement ids executed before the first spawn (top level or
   nested): a conservative prefix — once any statement can spawn, every
   later statement is post-init *)
let init_sids (p : Ast.program) : (int, unit) Hashtbl.t =
  let init = Hashtbl.create 64 in
  let rec has_spawn (s : Ast.stmt) =
    match s.node with
    | Ast.Spawn _ -> true
    | Ast.If (_, b1, b2) -> List.exists has_spawn b1 || List.exists has_spawn b2
    | Ast.While (_, b) | Ast.Sync (_, b) -> List.exists has_spawn b
    | Ast.Call (_, f, _) -> (
      (* a called function might spawn *)
      match Ast.find_fn p f with
      | Some fd -> List.exists has_spawn fd.body
      | None -> true)
    | _ -> false
  in
  let rec mark = function
    | [] -> ()
    | s :: rest ->
      if has_spawn s then ()
      else begin
        Ast.iter_stmts_block [ s ] (fun s' -> Hashtbl.replace init s'.sid ());
        mark rest
      end
  in
  mark p.main;
  init

(* ------------------------------------------------------------------ *)
(* Coarse freshness: flow-insensitive, per body                        *)
(* ------------------------------------------------------------------ *)

(* Variables that only ever hold freshly-allocated objects that never escape
   the body.  Escape = stored into the heap, a global, a map, an array,
   passed to a call/spawn, returned, or used as a sync lock (the lock ghost is
   then shared).  Assigning from anything other than an allocation or a
   fresh variable disqualifies. *)
let fresh_vars (body : Ast.block) : SSet.t =
  let assigned_fresh = ref SSet.empty in
  let disqualified = ref SSet.empty in
  let copies = ref [] in  (* (dst, src) for Assign(x, Var y) *)
  let disq x = disqualified := SSet.add x !disqualified in
  let disq_expr_vars e = List.iter disq (Ast.expr_vars e) in
  let rec go (s : Ast.stmt) =
    match s.node with
    | New (x, _) | NewArray (x, _) | NewMap x -> assigned_fresh := SSet.add x !assigned_fresh
    | Assign (x, Var y) -> copies := (x, y) :: !copies
    | Assign (x, e) ->
      (* arithmetic over refs is impossible; conservatively disqualify *)
      if Ast.expr_vars e <> [] then disq x
    | Load (x, _, _) | LoadIdx (x, _, _) | MapGet (x, _, _) | MapHas (x, _, _)
    | GlobalLoad (x, _) | Syscall (x, _, _) | Opaque (x, _, _) ->
      disq x
    | Store (_, _, v) -> disq_expr_vars v
    | StoreIdx (_, _, v) -> disq_expr_vars v
    | MapPut (_, _, v) -> disq_expr_vars v
    | GlobalStore (_, v) -> disq_expr_vars v
    | Call (ret, _, args) ->
      List.iter disq_expr_vars args;
      Option.iter disq ret
    | Spawn (x, _, args) ->
      List.iter disq_expr_vars args;
      disq x
    | Join h -> disq_expr_vars h
    | Return (Some v) -> disq_expr_vars v
    | Sync (m, b) ->
      disq_expr_vars m;
      List.iter go b
    | Lock m | Unlock m | Wait m | Notify m | NotifyAll m -> disq_expr_vars m
    | If (_, b1, b2) -> List.iter go b1; List.iter go b2
    | While (_, b) -> List.iter go b
    | _ -> ()
  in
  List.iter go body;
  (* propagate disqualification through copies to a fixpoint: a copy of a
     fresh var is fresh only if the copy itself never escapes, and copying
     aliases freshness both ways conservatively (treat dst and src as an
     equivalence: if either escapes, both are out) *)
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (x, y) ->
        let dx = SSet.mem x !disqualified and dy = SSet.mem y !disqualified in
        if dx && not dy then (disqualified := SSet.add y !disqualified; changed := true);
        if dy && not dx then (disqualified := SSet.add x !disqualified; changed := true);
        if SSet.mem y !assigned_fresh && not (SSet.mem x !assigned_fresh) then begin
          assigned_fresh := SSet.add x !assigned_fresh;
          changed := true
        end)
      !copies
  done;
  SSet.diff !assigned_fresh !disqualified

(* ------------------------------------------------------------------ *)
(* Coarse lock resolution: map a sync lock variable to a global name    *)
(* ------------------------------------------------------------------ *)

(* Flow-insensitive per body: v aliases global g if the body contains
   [GlobalLoad (v, g)] and no other definition of v.  Parameters resolve via
   call sites (handled by the caller in [collect_coarse]). *)
let global_aliases (body : Ast.block) : (string * string) list =
  let defs : (string, string option list) Hashtbl.t = Hashtbl.create 16 in
  let add_def x d =
    let prev = Option.value ~default:[] (Hashtbl.find_opt defs x) in
    Hashtbl.replace defs x (d :: prev)
  in
  let rec go (s : Ast.stmt) =
    (match s.node with
    | GlobalLoad (x, g) -> add_def x (Some g)
    | Assign (x, _) | Load (x, _, _) | LoadIdx (x, _, _) | MapGet (x, _, _)
    | MapHas (x, _, _) | New (x, _) | NewArray (x, _) | NewMap x
    | Syscall (x, _, _) | Opaque (x, _, _) ->
      add_def x None
    | Call (Some x, _, _) -> add_def x None
    | Spawn (x, _, _) -> add_def x None
    | _ -> ());
    match s.node with
    | If (_, b1, b2) -> List.iter go b1; List.iter go b2
    | While (_, b) | Sync (_, b) -> List.iter go b
    | _ -> ()
  in
  List.iter go body;
  Hashtbl.fold
    (fun x ds acc ->
      match ds with
      | [ Some g ] -> (x, g) :: acc
      | defs ->
        (* all defs load the same global: still a sound alias *)
        (match defs with
        | Some g :: rest when List.for_all (fun d -> d = Some g) rest -> (x, g) :: acc
        | _ -> acc))
    defs []

(* ------------------------------------------------------------------ *)
(* Coarse collection (legacy pipeline)                                 *)
(* ------------------------------------------------------------------ *)

let collect_coarse (p : Ast.program) : info list =
  (* parameter-to-global resolution: param i of fn f resolves to global g if
     every call/spawn site of f passes an expression aliasing g there *)
  let bodies = (None, p.main) :: List.map (fun (f : Ast.fndef) -> (Some f.fname, f.body)) p.fns in
  let aliases_of = List.map (fun (n, b) -> (n, global_aliases b)) bodies in
  let alias_in fn x =
    match List.assoc_opt fn aliases_of with
    | Some al -> List.assoc_opt x al
    | None -> None
  in
  (* gather, for each (fn, param index), the set of resolved argument globals *)
  let param_args : (string * int, string option list) Hashtbl.t = Hashtbl.create 32 in
  let note_call caller_fn callee args =
    List.iteri
      (fun i a ->
        let resolved =
          match a with
          | Ast.Var x -> alias_in caller_fn x
          | _ -> None
        in
        let key = (callee, i) in
        let prev = Option.value ~default:[] (Hashtbl.find_opt param_args key) in
        Hashtbl.replace param_args key (resolved :: prev))
      args
  in
  List.iter
    (fun (fn, body) ->
      Ast.iter_stmts_block body (fun s ->
          match s.node with
          | Call (_, f, args) | Spawn (_, f, args) -> note_call fn f args
          | _ -> ()))
    bodies;
  let param_global (fname : string) (i : int) : string option =
    match Hashtbl.find_opt param_args (fname, i) with
    | Some (Some g :: rest) when List.for_all (fun d -> d = Some g) rest -> Some g
    | _ -> None
  in
  (* resolve a lock variable within a body *)
  let resolve_lock (fn : string option) (e : Ast.expr) : string option =
    match e with
    | Var x -> (
      match alias_in fn x with
      | Some g -> Some g
      | None -> (
        (* a parameter consistently bound to a global at all call sites *)
        match fn with
        | Some fname -> (
          match Ast.find_fn p fname with
          | Some fd -> (
            match List.find_index (fun prm -> prm = x) fd.params with
            | Some i -> param_global fname i
            | None -> None)
          | None -> None)
        | None -> None))
    | _ -> None
  in
  let init = init_sids p in
  let out = ref [] in
  let emit ~sid ~line ~target ~kind ~fn ~locks ~unresolved ~fresh base =
    out :=
      {
        sid;
        line;
        target;
        kind;
        fn;
        locks;
        unresolved_lock = unresolved;
        base_local = (match base with Some b -> SSet.mem b fresh | None -> false);
        init_phase = fn = None && Hashtbl.mem init sid;
      }
      :: !out
  in
  List.iter
    (fun (fn, body) ->
      let fresh = fresh_vars body in
      let rec go ~locks ~unresolved (s : Ast.stmt) =
        let e ?(k = KRead) target base =
          emit ~sid:s.sid ~line:s.line ~target ~kind:k ~fn ~locks ~unresolved ~fresh base
        in
        match s.node with
        | Load (_, o, f) -> e (TField (AUnknown, f)) (base_var o)
        | Store (o, f, _) -> e ~k:KWrite (TField (AUnknown, f)) (base_var o)
        | LoadIdx (_, a, _) -> e (TArray AUnknown) (base_var a)
        | StoreIdx (a, _, _) -> e ~k:KWrite (TArray AUnknown) (base_var a)
        | MapGet (_, m, _) | MapHas (_, m, _) -> e (TMap AUnknown) (base_var m)
        | MapPut (m, _, _) -> e ~k:KWrite (TMap AUnknown) (base_var m)
        | GlobalLoad (_, g) -> e (TGlobal g) None
        | GlobalStore (g, _) -> e ~k:KWrite (TGlobal g) None
        | If (_, b1, b2) ->
          List.iter (go ~locks ~unresolved) b1;
          List.iter (go ~locks ~unresolved) b2
        | While (_, b) -> List.iter (go ~locks ~unresolved) b
        | Sync (m, b) -> (
          match resolve_lock fn m with
          | Some g -> List.iter (go ~locks:(LName g :: locks) ~unresolved) b
          | None -> List.iter (go ~locks ~unresolved:true) b)
        | _ -> ()
      in
      List.iter (go ~locks:[] ~unresolved:false) body)
    bodies;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Sharp collection (points-to driven)                                 *)
(* ------------------------------------------------------------------ *)

(* One [info] per (site, pointed-to allocation): a site whose base may
   denote several allocation sites joins each partition.  An empty points-to
   set (the base can only be null at runtime; or a non-variable base) falls
   back to the [AUnknown] name bucket, which {!Analyze} merges with every
   same-name partition. *)
let collect_sharp (pt : Pointsto.t) ~(escaping : int -> bool) (p : Ast.program) :
    info list =
  let init = init_sids p in
  let bodies =
    (None, p.main) :: List.map (fun (f : Ast.fndef) -> (Some f.fname, f.body)) p.fns
  in
  let out = ref [] in
  List.iter
    (fun (fn, body) ->
      let pts_of x = Pointsto.pts_var pt ~fn x in
      (* must-alias: a singleton points-to set over a site that allocates at
         most one dynamic object names one concrete lock *)
      let resolve_lock (e : Ast.expr) : lock option =
        match e with
        | Ast.Var x -> (
          match Pointsto.ISet.elements (pts_of x) with
          | [ a ] when Pointsto.unique_site pt a -> Some (LSite a)
          | _ -> None)
        | _ -> None
      in
      (* targets of an access through [base]; [mk] builds the per-site
         partition.  Also reports whether every denoted object is
         thread-confined. *)
      let partitions base (mk : alloc -> target) : target list * bool =
        match base with
        | Some x ->
          let s = pts_of x in
          if Pointsto.ISet.is_empty s then ([ mk AUnknown ], false)
          else
            ( List.map (fun a -> mk (ASite a)) (Pointsto.ISet.elements s),
              Pointsto.ISet.for_all (fun a -> not (escaping a)) s )
        | None -> ([ mk AUnknown ], false)
      in
      let emit ~sid ~line ~kind ~locks ~unresolved (targets, local) =
        List.iter
          (fun target ->
            out :=
              {
                sid;
                line;
                target;
                kind;
                fn;
                locks;
                unresolved_lock = unresolved;
                base_local = local;
                init_phase = fn = None && Hashtbl.mem init sid;
              }
              :: !out)
          targets
      in
      let rec go ~locks ~unresolved (s : Ast.stmt) =
        let e ?(k = KRead) parts =
          emit ~sid:s.sid ~line:s.line ~kind:k ~locks ~unresolved parts
        in
        match s.node with
        | Load (_, o, f) -> e (partitions (base_var o) (fun a -> TField (a, f)))
        | Store (o, f, _) -> e ~k:KWrite (partitions (base_var o) (fun a -> TField (a, f)))
        | LoadIdx (_, a, _) -> e (partitions (base_var a) (fun al -> TArray al))
        | StoreIdx (a, _, _) -> e ~k:KWrite (partitions (base_var a) (fun al -> TArray al))
        | MapGet (_, m, _) | MapHas (_, m, _) ->
          e (partitions (base_var m) (fun al -> TMap al))
        | MapPut (m, _, _) -> e ~k:KWrite (partitions (base_var m) (fun al -> TMap al))
        | GlobalLoad (_, g) -> e ([ TGlobal g ], false)
        | GlobalStore (g, _) -> e ~k:KWrite ([ TGlobal g ], false)
        | If (_, b1, b2) ->
          List.iter (go ~locks ~unresolved) b1;
          List.iter (go ~locks ~unresolved) b2
        | While (_, b) -> List.iter (go ~locks ~unresolved) b
        | Sync (m, b) -> (
          match resolve_lock m with
          | Some l -> List.iter (go ~locks:(l :: locks) ~unresolved) b
          | None -> List.iter (go ~locks ~unresolved:true) b)
        | _ -> ()
      in
      List.iter (go ~locks:[] ~unresolved:false) body)
    bodies;
  List.rev !out
