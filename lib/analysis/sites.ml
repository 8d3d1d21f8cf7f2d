(** Per-site facts: what each heap-access site touches and under which
    resolved locks it executes.  This is the substrate for the
    shared-location detection (Soot-style) and the consistent-lock-guard
    analysis of Lemma 4.2 (Chord-style).

    {!collect} consumes the {!Pointsto} solution: targets are
    (allocation-site, field) / per-site array and map partitions, and locks
    resolve to unique allocation sites through arbitrary local aliases
    (must-alias).  Thread-locality is decided per partition by
    {!Escape}, in {!Analyze}. *)

open Lang

(** Allocation-site qualifier of a target: [ASite sid] pins the partition to
    one allocation statement; [AUnknown] is the name-bucket fallback for a base
    whose points-to set is empty. *)
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

(** Name bucket of a target: ".f", "g", "[]", "{}". *)
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

(** A lock identity: the unique allocation site every execution of the
    sync statement locks (must-alias). *)
type lock = int

type info = {
  sid : int;
  line : int;
  target : target;
  kind : kind;
  fn : string option;   (** enclosing body; [None] = main *)
  locks : lock list;    (** enclosing sync locks that resolved *)
  unresolved_lock : bool;  (** some enclosing sync lock failed to resolve *)
  init_phase : bool;
      (** in the main body before the first spawn: happens-before-ordered
          with every thread, so it cannot race and does not break lock
          consistency (Java-style safe publication at thread start) *)
}

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

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
(* Collection (points-to driven)                                       *)
(* ------------------------------------------------------------------ *)

(* One [info] per (site, pointed-to allocation): a site whose base may
   denote several allocation sites joins each partition.  An empty points-to
   set (the base can only be null at runtime; or a non-variable base) falls
   back to the [AUnknown] name bucket, which {!Analyze} merges with every
   same-name partition. *)
let collect (pt : Pointsto.t) (p : Ast.program) : info list =
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
          | [ a ] when Pointsto.unique_site pt a -> Some a
          | _ -> None)
        | _ -> None
      in
      (* targets of an access through [base]; [mk] builds the per-site
         partition *)
      let partitions base (mk : alloc -> target) : target list =
        match base with
        | Some x ->
          let s = pts_of x in
          if Pointsto.ISet.is_empty s then [ mk AUnknown ]
          else List.map (fun a -> mk (ASite a)) (Pointsto.ISet.elements s)
        | None -> [ mk AUnknown ]
      in
      let emit ~sid ~line ~kind ~locks ~unresolved targets =
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
        | GlobalLoad (_, g) -> e [ TGlobal g ]
        | GlobalStore (g, _) -> e ~k:KWrite [ TGlobal g ]
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
