(** The transformer: weaves recording instrumentation into a program.

    Mirrors the paper's prototype component of the same name, which weaves
    hooks into class files via Soot.  Here the pass has two products:

    - an {b instrumentation plan} ({!Runtime.Plan.t}): per-site decisions —
      instrument (the site may touch shared data) and guarded (O2 applies) —
      consumed by the interpreter, which invokes the installed tool's hooks
      with exactly the atomicity Algorithm 1 requires;
    - a {b woven source view} ({!weave}): the same decisions materialized as
      explicit [__record_*] pseudo-calls around the affected statements, for
      inspection and debugging (what the bytecode would look like).  *)

open Lang

type t = {
  analysis : Analysis.Analyze.t;
  plan : Runtime.Plan.t;
  instrumented_sites : int;
  guarded_sites : int;
  total_access_sites : int;
}

let transform ?(enable_o2 = true) ?refine (p : Ast.program) : t =
  let analysis = Analysis.Analyze.analyze ?refine p in
  let shared = Analysis.Analyze.shared_sids analysis in
  let guarded =
    if enable_o2 then Analysis.Analyze.guarded_sids analysis else Hashtbl.create 1
  in
  let count h = Hashtbl.fold (fun _ b n -> if b then n + 1 else n) h 0 in
  {
    analysis;
    plan = Runtime.Plan.of_tables ~shared ~guarded;
    instrumented_sites = count shared;
    guarded_sites = count guarded;
    total_access_sites = Hashtbl.length shared;
  }

(* ------------------------------------------------------------------ *)
(* Woven source view                                                   *)
(* ------------------------------------------------------------------ *)

(* A dummy statement wrapper: the hooks are rendered as opaque calls so the
   woven program still parses and pretty-prints. *)
let hook (s : Ast.stmt) (name : string) : Ast.stmt =
  { sid = 0; line = s.line; node = Opaque ("$ignore", name, []) }

let is_read_site (s : Ast.stmt) =
  match s.node with
  | Load _ | LoadIdx _ | MapGet _ | MapHas _ | GlobalLoad _ -> true
  | _ -> false

let is_write_site (s : Ast.stmt) =
  match s.node with
  | Store _ | StoreIdx _ | MapPut _ | GlobalStore _ -> true
  | _ -> false

(** Materialize the plan as explicit hook pseudo-statements.  Reads get the
    optimistic validate-retry pattern of Section 2.3 (rendered as a single
    [__record_read_validated] hook); writes get the atomic last-write update
    placed in the same atomic section as the access. *)
let weave (tr : t) (p : Ast.program) : Ast.program =
  let plan = tr.plan in
  let rec weave_block (b : Ast.block) : Ast.block =
    List.concat_map
      (fun (s : Ast.stmt) ->
        let s =
          match s.node with
          | If (c, b1, b2) -> { s with node = If (c, weave_block b1, weave_block b2) }
          | While (c, b) -> { s with node = While (c, weave_block b) }
          | Sync (m, b) -> { s with node = Sync (m, weave_block b) }
          | _ -> s
        in
        if plan.shared_site s.sid && (is_read_site s || is_write_site s) then
          if plan.guarded_site s.sid then
            (* O2: counter tick only; the guarding lock's ghost deps subsume *)
            [ hook s "__tick_counter"; s ]
          else if is_read_site s then
            [ hook s "__begin_atomic_read"; s; hook s "__record_read_validated" ]
          else [ hook s "__begin_atomic_write"; s; hook s "__record_last_write" ]
        else [ s ])
      b
  in
  {
    p with
    main = weave_block p.main;
    fns = List.map (fun (f : Ast.fndef) -> { f with body = weave_block f.body }) p.fns;
  }
