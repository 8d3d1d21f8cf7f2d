(** The bench gate behind [perfcheck], [sitecheck] and [servicecheck]: a
    fresh measurement — the [Json.t] its bench writes as the artifact — is
    checked rule by rule against a committed baseline.  DESIGN.md, "Bench
    gates", lists every verb's rules. *)

module J = Analysis.Lint.Json

type direction = At_most | At_least

type reference =
  | Baseline        (** the same metric in the baseline file *)
  | Const of float  (** a fixed floor or ceiling *)
  | Metric of string  (** another metric of the fresh measurement *)

(** A metric is a dotted path: object keys, or the ["name"] of a list
    element.  A ["*"] segment stands for every named element of the
    baseline's list at that point, so a baseline row the fresh run lacks
    fails as not measured.  The rule passes when the metric is at most
    (at least) the reference plus (minus) [tolerance] times its size. *)
type rule = {
  metric : string;
  reference : reference;
  direction : direction;
  tolerance : float;
}

let rec lookup (j : J.t) (path : string list) : J.t option =
  match (path, j) with
  | [], _ -> Some j
  | k :: rest, J.Obj kvs -> Option.bind (List.assoc_opt k kvs) (fun v -> lookup v rest)
  | k :: rest, J.List xs ->
    Option.bind
      (List.find_opt (fun x -> J.member "name" x = Some (J.Str k)) xs)
      (fun v -> lookup v rest)
  | _ -> None

(** The numeric value of [name] in [j]; a flag reads 1 when true. *)
let metric (j : J.t) (name : string) : float option =
  match lookup j (String.split_on_char '.' name) with
  | Some (J.Int i) -> Some (float_of_int i)
  | Some (J.Float f) -> Some f
  | Some (J.Bool b) -> Some (if b then 1.0 else 0.0)
  | _ -> None

(** Read and parse a baseline; the error names the path, and a parse error
    its byte offset. *)
let load (path : string) : (J.t, string) result =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> (
    match J.of_string s with
    | j -> Ok j
    | exception J.Parse_error e -> Error (path ^ ": " ^ e))

(* one rule per named baseline element for a "*" segment *)
let expand (base : J.t) (r : rule) : (rule list, string) result =
  match String.split_on_char '*' r.metric with
  | [ prefix; suffix ] -> (
    let list_path = String.sub prefix 0 (max 0 (String.length prefix - 1)) in
    let name x = match J.member "name" x with Some (J.Str n) -> Some n | _ -> None in
    match lookup base (String.split_on_char '.' list_path) with
    | Some (J.List xs) when List.for_all (fun x -> name x <> None) xs ->
      Ok
        (List.map
           (fun x -> { r with metric = prefix ^ Option.get (name x) ^ suffix })
           xs)
    | _ -> Error (Printf.sprintf "baseline has no named list at %s" list_path))
  | _ -> Ok [ r ]

let eval ~(base : J.t) ~(fresh : J.t) (r : rule) : bool * string =
  let ref_value, ref_name =
    match r.reference with
    | Baseline -> (metric base r.metric, "baseline")
    | Const c -> (Some c, "const")
    | Metric m -> (metric fresh m, m)
  in
  match (metric fresh r.metric, ref_value) with
  | None, _ -> (false, r.metric ^ " not measured")
  | _, None -> (false, Printf.sprintf "%s: %s has no value" r.metric ref_name)
  | Some v, Some rv ->
    let slack = r.tolerance *. Float.abs rv in
    let op, threshold, ok =
      match r.direction with
      | At_most -> ("<=", rv +. slack, v <= rv +. slack)
      | At_least -> (">=", rv -. slack, v >= rv -. slack)
    in
    let delta =
      if rv = 0.0 then Printf.sprintf "%+g" v
      else Printf.sprintf "%+.1f%%" (100. *. (v -. rv) /. Float.abs rv)
    in
    ( ok,
      Printf.sprintf "%s %.4g vs %s %.4g (%s, threshold %s %.4g)" r.metric v ref_name
        rv delta op threshold )

(** Evaluate [rules] for [fresh] against the baseline at [baseline_path],
    printing one line per rule: fresh value, reference, delta, threshold
    and verdict.  A missing or unparsable baseline fails the gate. *)
let check ~(gate : string) ~(baseline_path : string) (rules : rule list)
    (fresh : J.t) ppf : bool =
  let results =
    match load baseline_path with
    | Error e -> [ (false, "baseline unreadable: " ^ e) ]
    | Ok base ->
      List.concat_map
        (fun r ->
          match expand base r with
          | Error e -> [ (false, e) ]
          | Ok rs -> List.map (eval ~base ~fresh) rs)
        rules
  in
  List.iter
    (fun (ok, line) ->
      Fmt.pf ppf "  %s: %s — %s@." gate line (if ok then "ok" else "FAIL"))
    results;
  let failed = List.length (List.filter (fun (ok, _) -> not ok) results) in
  Fmt.pf ppf "  %s: %d of %d checks failed vs %s@.@." gate failed
    (List.length results) baseline_path;
  failed = 0
