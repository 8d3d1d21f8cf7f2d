(** [light lint]: a ranked static race report over the analysis results.

    The race set is {!Analyze.t.races} — conflicting site pairs that
    survived every elision argument (sharing, escape, init-phase, MHP
    ordering, must-held locksets).  Lint turns each pair into a finding
    with the {e evidence} for why it is a race:

    - an MHP witness: one overlapping thread-context pair per side
      ({!Mhp.witness}), showing the spawn windows that let both sites run
      concurrently;
    - lockset evidence: the Eraser candidate-set verdict for the
      partition ({!Lockset.discipline}) — which access emptied C(v), or
      that the sites run bare;
    - a severity score: write/write pairs outrank write/read, lock-free
      pairs outrank partially-locked ones, multi-instance witnesses and
      global targets add weight.

    The module also hosts the repository's tiny JSON layer (a hand-rolled
    AST, printer and parser — the repo deliberately has no external JSON
    dependency): [light lint --json], [light analyze --json], every
    [BENCH_*.json] bench artifact and the bench gates' baseline reader all
    speak through it, so a gate can re-read what a bench wrote. *)

(* ------------------------------------------------------------------ *)
(* Minimal JSON                                                        *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape (s : string) : string =
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  (* the shortest decimal that reads back as the same float, keeping a
     '.' or an exponent so it re-parses as [Float]; JSON has no nan or
     infinity, so those print as [null] *)
  let float_repr (f : float) : string =
    if not (Float.is_finite f) then "null"
    else
      let s =
        List.find
          (fun s -> float_of_string s = f)
          (List.map (fun p -> Printf.sprintf "%.*g" p f) [ 15; 16; 17 ])
      in
      if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

  let to_string ?(indent = 2) (j : t) : string =
    let buf = Buffer.create 1024 in
    let pad n = String.make n ' ' in
    let rec go depth j =
      match j with
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (string_of_bool b)
      | Int i -> Buffer.add_string buf (string_of_int i)
      | Float f -> Buffer.add_string buf (float_repr f)
      | Str s ->
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape s);
        Buffer.add_char buf '"'
      | List [] -> Buffer.add_string buf "[]"
      | List xs ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string buf ",\n";
            Buffer.add_string buf (pad ((depth + 1) * indent));
            go (depth + 1) x)
          xs;
        Buffer.add_char buf '\n';
        Buffer.add_string buf (pad (depth * indent));
        Buffer.add_char buf ']'
      | Obj [] -> Buffer.add_string buf "{}"
      | Obj kvs ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",\n";
            Buffer.add_string buf (pad ((depth + 1) * indent));
            Buffer.add_char buf '"';
            Buffer.add_string buf (escape k);
            Buffer.add_string buf "\": ";
            go (depth + 1) v)
          kvs;
        Buffer.add_char buf '\n';
        Buffer.add_string buf (pad (depth * indent));
        Buffer.add_char buf '}'
    in
    go 0 j;
    Buffer.contents buf

  exception Parse_error of string

  (** Recursive-descent parser for the subset [to_string] emits (which is
      a subset of standard JSON, so externally edited baselines parse
      too). *)
  let of_string (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail ("expected " ^ word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char buf '"'
          | Some '\\' -> Buffer.add_char buf '\\'
          | Some '/' -> Buffer.add_char buf '/'
          | Some 'n' -> Buffer.add_char buf '\n'
          | Some 't' -> Buffer.add_char buf '\t'
          | Some 'r' -> Buffer.add_char buf '\r'
          | Some 'b' -> Buffer.add_char buf '\b'
          | Some 'f' -> Buffer.add_char buf '\012'
          | Some 'u' ->
            if !pos + 4 >= n then fail "truncated \\u escape";
            let hex = String.sub s (!pos + 1) 4 in
            let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
            if not (String.for_all is_hex hex) then fail "bad \\u escape";
            let code = int_of_string ("0x" ^ hex) in
            pos := !pos + 4;
            (* the printer only emits \u for control bytes; decode those *)
            if code < 0x100 then Buffer.add_char buf (Char.chr code)
            else fail "non-latin \\u escape"
          | _ -> fail "bad escape");
          advance ();
          go ()
        | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num c =
        match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
      in
      while (match peek () with Some c when is_num c -> true | _ -> false) do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail ("bad number " ^ tok))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '"' -> Str (parse_string ())
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let kvs = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            kvs := field () :: !kvs;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !kvs)
        end
      | Some c -> (
        match c with
        | '0' .. '9' | '-' -> parse_number ()
        | _ -> fail (Printf.sprintf "unexpected '%c'" c))
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v

  let member (k : string) = function Obj kvs -> List.assoc_opt k kvs | _ -> None
  let to_int = function Int i -> Some i | _ -> None
  let to_list = function List xs -> Some xs | _ -> None
  let to_str = function Str s -> Some s | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Findings                                                            *)
(* ------------------------------------------------------------------ *)

type severity = High | Medium | Low

let severity_to_string = function High -> "high" | Medium -> "medium" | Low -> "low"

(** Two classes of findings:

    - [Race]: a pair from {!Analyze.t.races} — conflicting, concurrent,
      and no common lock.  Replay-relevant and a data-race candidate.
    - [Atomicity]: a conflicting pair that {e is} covered by a common
      must-held lock but still may run in parallel: the lock serializes
      the two critical sections without ordering them.  Harmless to
      recording (the ghost dependences pin the order) but the classic
      shape of check-then-act defects that lockset tools are blind to —
      Lucene-481's reader close racing a searcher is exactly such a
      pair. *)
type finding_class = Race | Atomicity

let class_to_string = function Race -> "race" | Atomicity -> "atomicity"

type finding = {
  rank : int;  (** 1-based position in the severity-sorted report *)
  cls : finding_class;
  on : Sites.target;
  s1 : Sites.info;
  s2 : Sites.info;
  score : int;
  severity : severity;
  witness : (Mhp.ctx * Mhp.ctx) option;  (** overlapping context pair *)
  lockset : Lockset.discipline;  (** partition-level Eraser verdict *)
}

let lock_str (a : Analyze.t) (l : Sites.lock) : string =
  Analyze.lock_display a.Analyze.pointsto a.Analyze.program l

(* Severity: how likely the pair is a bug worth a look, and how harsh its
   failure mode.  Write/write pairs corrupt data rather than read stale
   values; pairs with no lock anywhere run bare; a multi-instance witness
   means every added thread widens the exposure; globals are
   program-visible state.  The explorer's racy-first ranking uses the
   same race set, so lint's ordering matches what schedule exploration
   perturbs first. *)
let score_pair (s1 : Sites.info) (s2 : Sites.info) witness on : int =
  let ww = s1.Sites.kind = Sites.KWrite && s2.Sites.kind = Sites.KWrite in
  let bare = s1.Sites.locks = [] && s2.Sites.locks = [] in
  let multi =
    match witness with
    | Some (c1, c2) -> c1.Mhp.c_multi || c2.Mhp.c_multi
    | None -> false
  in
  let global = match on with Sites.TGlobal _ -> true | _ -> false in
  (if ww then 3 else 0) + (if bare then 2 else 0) + (if multi then 1 else 0)
  + if global then 1 else 0

let severity_of_score (n : int) : severity =
  if n >= 5 then High else if n >= 3 then Medium else Low

let findings (a : Analyze.t) : finding list =
  let mk cls (on : Sites.target) (s1 : Sites.info) (s2 : Sites.info) =
    let witness = Mhp.witness a.Analyze.mhp s1.Sites.sid s2.Sites.sid in
    let lockset =
      match Analyze.TM.find_opt on a.Analyze.targets with
      | Some tc -> Lockset.discipline a.Analyze.mhp tc.Analyze.sites
      | None -> Lockset.DSequential
    in
    let score =
      match cls with
      | Race -> score_pair s1 s2 witness on
      (* serialized pairs can't corrupt data; they rank below every race *)
      | Atomicity ->
        1
        + (if s1.Sites.kind = Sites.KWrite && s2.Sites.kind = Sites.KWrite then 1 else 0)
        + ( match witness with
          | Some (c1, c2) when c1.Mhp.c_multi || c2.Mhp.c_multi -> 1
          | _ -> 0 )
    in
    (score, { rank = 0; cls; on; s1; s2; score;
              severity = severity_of_score score; witness; lockset })
  in
  let races =
    List.map (fun (r : Analyze.race_pair) -> mk Race r.on r.t1 r.t2) a.Analyze.races
  in
  (* lock-serialized but unordered conflicting pairs: the common lock hides
     them from the race set, MHP says the sections still interleave — the
     check-then-act shape.  One finding per site pair, as with races. *)
  let atomicity =
    let seen = Hashtbl.create 32 in
    List.iter
      (fun (r : Analyze.race_pair) ->
        Hashtbl.replace seen
          (min r.t1.Sites.sid r.t2.Sites.sid, max r.t1.Sites.sid r.t2.Sites.sid)
          ())
      a.Analyze.races;
    Analyze.TM.fold
      (fun on (tc : Analyze.target_class) acc ->
        if not tc.Analyze.shared then acc
        else
          let rec pairs = function
            | [] -> []
            | (x : Sites.info) :: rest ->
              List.filter_map
                (fun (y : Sites.info) ->
                  let key = (min x.Sites.sid y.Sites.sid, max x.Sites.sid y.Sites.sid) in
                  if Hashtbl.mem seen key then None
                  else if
                    (x.Sites.kind = Sites.KWrite || y.Sites.kind = Sites.KWrite)
                    && Mhp.may_parallel a.Analyze.mhp x.Sites.sid y.Sites.sid
                    && Lockset.common_lock x y <> None
                  then begin
                    Hashtbl.replace seen key ();
                    Some (mk Atomicity on x y)
                  end
                  else None)
                (x :: rest)
              @ pairs rest
          in
          pairs tc.Analyze.sites @ acc)
      a.Analyze.targets []
  in
  let sorted =
    List.sort
      (fun (sa, fa) (sb, fb) ->
        match compare (sb : int) sa with
        | 0 -> compare (fa.s1.Sites.sid, fa.s2.Sites.sid) (fb.s1.Sites.sid, fb.s2.Sites.sid)
        | c -> c)
      (races @ atomicity)
  in
  List.mapi (fun i (_, f) -> { f with rank = i + 1 }) sorted

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let witness_str (f : finding) : string =
  match f.witness with
  | Some (c1, c2) ->
    Format.asprintf "%a || %a" Mhp.pp_ctx c1 Mhp.pp_ctx c2
  | None -> "unrefined (no MHP witness computed)"

let lockset_str (a : Analyze.t) (f : finding) : string =
  match f.lockset with
  | Lockset.DSequential -> "partition is phase-ordered"
  | Lockset.DReadShared -> "partition is read-shared"
  | Lockset.DConsistent ls ->
    let ls = String.concat ", " (List.map (lock_str a) ls) in
    (match f.cls with
    | Atomicity ->
      Printf.sprintf
        "sections serialized by {%s} but unordered: check-then-act exposure" ls
    | Race -> Printf.sprintf "partition consistently holds {%s}" ls)
  | Lockset.DBroken (s, before) ->
    Printf.sprintf "C(v) emptied by line %d (%s %s): held {%s} before it"
      s.Sites.line
      (match s.Sites.kind with Sites.KWrite -> "write" | Sites.KRead -> "read")
      (Sites.target_to_string s.Sites.target)
      (String.concat ", " (List.map (lock_str a) before))

let site_str (s : Sites.info) : string =
  Printf.sprintf "line %d %s of %s in %s%s" s.Sites.line
    (match s.Sites.kind with Sites.KWrite -> "write" | Sites.KRead -> "read")
    (Sites.target_to_string s.Sites.target)
    (match s.Sites.fn with Some f -> f | None -> "main")
    (match s.Sites.locks with
    | [] -> ""
    | _ -> Printf.sprintf " [%d lock(s) held]" (List.length s.Sites.locks))

let report (a : Analyze.t) : string =
  let fs = findings a in
  let races = List.length (List.filter (fun f -> f.cls = Race) fs) in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "lint: %d finding(s) after elision — %d race pair(s), %d atomicity \
        suspect(s) (%s)\n"
       (List.length fs) races
       (List.length fs - races)
       (Analyze.summary a));
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "\n#%d [%s %s, score %d] %s\n" f.rank
           (class_to_string f.cls)
           (severity_to_string f.severity) f.score (Sites.target_to_string f.on));
      Buffer.add_string buf (Printf.sprintf "    %s\n" (site_str f.s1));
      Buffer.add_string buf (Printf.sprintf "    %s\n" (site_str f.s2));
      Buffer.add_string buf (Printf.sprintf "    mhp:     %s\n" (witness_str f));
      Buffer.add_string buf (Printf.sprintf "    lockset: %s\n" (lockset_str a f)))
    fs;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON encoders                                                       *)
(* ------------------------------------------------------------------ *)

let site_json (a : Analyze.t) (s : Sites.info) : Json.t =
  Json.Obj
    [
      ("sid", Json.Int s.Sites.sid);
      ("line", Json.Int s.Sites.line);
      ("kind", Json.Str (match s.Sites.kind with Sites.KWrite -> "write" | _ -> "read"));
      ("target", Json.Str (Sites.target_to_string s.Sites.target));
      ("fn", match s.Sites.fn with Some f -> Json.Str f | None -> Json.Null);
      ("locks", Json.List (List.map (fun l -> Json.Str (lock_str a l)) s.Sites.locks));
    ]

let finding_json (a : Analyze.t) (f : finding) : Json.t =
  Json.Obj
    [
      ("rank", Json.Int f.rank);
      ("class", Json.Str (class_to_string f.cls));
      ("target", Json.Str (Sites.target_to_string f.on));
      ("severity", Json.Str (severity_to_string f.severity));
      ("score", Json.Int f.score);
      ("s1", site_json a f.s1);
      ("s2", site_json a f.s2);
      ("mhp_witness", Json.Str (witness_str f));
      ("lockset", Json.Str (lockset_str a f));
    ]

let report_json (a : Analyze.t) : Json.t =
  let fs = findings a in
  let count sev = List.length (List.filter (fun f -> f.severity = sev) fs) in
  Json.Obj
    [
      ("races", Json.List (List.map (finding_json a) fs));
      ( "summary",
        Json.Obj
          [
            ("total", Json.Int (List.length fs));
            ( "race_pairs",
              Json.Int (List.length (List.filter (fun f -> f.cls = Race) fs)) );
            ( "atomicity_suspects",
              Json.Int (List.length (List.filter (fun f -> f.cls = Atomicity) fs)) );
            ("high", Json.Int (count High));
            ("medium", Json.Int (count Medium));
            ("low", Json.Int (count Low));
          ] );
    ]

(** [light analyze --json]: the full classification (partitions, guards,
    elision counts) plus the lint race list, sharing its encoders. *)
let analysis_json (a : Analyze.t) ~(instrumented : int) ~(guarded : int)
    ~(total_sites : int) : Json.t =
  let target_json (tc : Analyze.target_class) : Json.t =
    Json.Obj
      [
        ("target", Json.Str (Sites.target_to_string tc.Analyze.target));
        ("shared", Json.Bool tc.Analyze.shared);
        ( "guarded_by",
          match tc.Analyze.guarded_by with Some l -> Json.Str l | None -> Json.Null );
        ("covered", Json.Bool tc.Analyze.covered);
        ( "active_sids",
          Json.List
            (List.map
               (fun i -> Json.Int i)
               (Analyze.ISet.elements tc.Analyze.active)) );
        ("sites", Json.List (List.map (site_json a) tc.Analyze.sites));
      ]
  in
  let targets =
    Analyze.TM.fold (fun _ tc acc -> target_json tc :: acc) a.Analyze.targets []
  in
  Json.Obj
    [
      ( "summary",
        Json.Obj
          [
            ("precision", Json.Str (match a.Analyze.precision with
                                    | Analyze.Sharp -> "sharp" | Analyze.Coarse -> "coarse"));
            ("refined", Json.Bool a.Analyze.refined);
            ("total_access_sites", Json.Int total_sites);
            ("instrumented_sites", Json.Int instrumented);
            ("guarded_sites", Json.Int guarded);
            ("sequential_sids", Json.Int (Analyze.sequential_sids a));
            ("race_pairs", Json.Int (List.length a.Analyze.races));
          ] );
      ("targets", Json.List (List.rev targets));
      ("races", Json.List (List.map (finding_json a) (findings a)));
    ]
