(** The pipeline benchmark: record → reproduce → serve, timed end to end
    and layer by layer.

    Usage (from the repository root):
      main.exe pipeline --workload W [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
          run one workload in this process; the last stdout line is the
          result JSON (end-to-end metrics, or per-layer ones with --trace 1)
      main.exe pipeline [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--runs N]
          run every workload, each in its own child process, N times with
          seeds N, N+1, ... alternating the workload order; with --trace 1
          also a traced run of each, and the tracing overhead; with
          --runs > 1 the median, quartiles and spread of each metric next
          to its bound in BENCHMARK.json
      main.exe compare DIR_A DIR_B
          one row per workload x end-to-end metric of two result sets
          written by [pipeline --out], with a verdict from the bounds in
          BENCHMARK.json
      main.exe smoke BENCHMARK.json
          every workload at scale 1 for one round, traced and untraced;
          fails unless every metric the file names is printed with its
          unit and no operation failed

    Workloads and metrics are defined in {!Pipeline} and described in
    README.md next to this file. *)

module J = Analysis.Lint.Json

let default_out = "pipebench/results"
let bench_file = "BENCHMARK.json"

(* ------------------------------------------------------------------ *)
(* Result lines and files                                              *)
(* ------------------------------------------------------------------ *)

let unit_of name =
  match
    List.find_opt (fun (mt : Pipeline.metric) -> mt.name = name)
      (Pipeline.end_to_end @ Pipeline.per_layer)
  with
  | Some mt -> mt.unit_
  | None -> ""

let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

(** The one-line result object: [correct], [attempted], [failed] and
    [metrics] (each [{"value", "unit"}]) for the [names] given. *)
let result_line (r : Pipeline.result) (names : string list) : string =
  let metric n =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Trace.json_string n)
      (num (Option.value ~default:nan (List.assoc_opt n r.values)))
      (Trace.json_string (unit_of n))
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", " (List.map metric names))

let member k = function J.Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_float = function J.Int i -> Some (float_of_int i) | J.Float f -> Some f | _ -> None

(** Parse a result line back: [(failed, [(name, (value, unit))])]. *)
let parse_result (s : string) : int * (string * (float * string)) list =
  let j = J.of_string s in
  let failed = match member "failed" j with Some (J.Int n) -> n | _ -> -1 in
  let metrics =
    match member "metrics" j with
    | Some (J.Obj kvs) ->
      List.filter_map
        (fun (k, v) ->
          match (Option.bind (member "value" v) to_float, member "unit" v) with
          | Some x, Some (J.Str u) -> Some (k, (x, u))
          | _ -> None)
        kvs
    | _ -> []
  in
  (failed, metrics)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let result_path dir w seed ~trace =
  Filename.concat dir (Printf.sprintf "%s.s%d.%sjson" w seed (if trace then "layers." else ""))

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

type bound = { b_name : string; b_unit : string; higher : bool; bound : float }

(** The metrics of one list of BENCHMARK.json ("end_to_end" or
    "per_layer"); per-layer metrics have no bound and read [infinity]. *)
let load_bench ?(key = "end_to_end") (path : string) : bound list =
  let j = J.of_string (In_channel.with_open_text path In_channel.input_all) in
  match member key j with
  | Some (J.List ms) ->
    List.map
      (fun mj ->
        let str k = match member k mj with Some (J.Str s) -> s | _ -> "" in
        {
          b_name = str "name";
          b_unit = str "unit";
          higher = str "better" = "higher";
          bound = Option.value ~default:infinity (Option.bind (member "bound" mj) to_float);
        })
      ms
  | _ -> failwith (path ^ ": no " ^ key ^ " list")

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let median = Pipeline.median

(** Quartiles as Python's [statistics.quantiles(xs, n=4)] (exclusive
    method) gives them. *)
let quartiles (xs : float list) : float * float =
  let d = Array.of_list (List.sort compare xs) in
  let n = Array.length d in
  if n < 2 then (median xs, median xs)
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

let spread xs =
  let q1, q3 = quartiles xs in
  Pipeline.ratio (q3 -. q1) (Float.abs (median xs))

(* ------------------------------------------------------------------ *)
(* pipeline                                                            *)
(* ------------------------------------------------------------------ *)

let run_in_process ~w ~seed ~seconds ~trace ~out =
  Trace.enabled := trace;
  let r = Pipeline.run { seed; seconds; smoke = false } w in
  List.iter
    (fun (n, v) -> Printf.eprintf "  %-34s %16.4f %s\n" n v (unit_of n))
    r.values;
  Printf.eprintf "  %s: %d operations, %d failed\n%!" w r.attempted r.failed;
  mkdir_p out;
  Out_channel.with_open_text (result_path out w seed ~trace) (fun oc ->
      output_string oc (result_line r (List.map fst r.values));
      output_char oc '\n');
  if trace then
    Trace.write_chrome (Filename.concat out (Printf.sprintf "%s.s%d.chrome.json" w seed));
  let shown = if trace then Pipeline.per_layer else Pipeline.end_to_end in
  print_endline (result_line r (List.map (fun (mt : Pipeline.metric) -> mt.name) shown));
  exit (if r.failed = 0 then 0 else 1)

(* run one workload in a fresh process; its result file is the output *)
let spawn ~w ~seed ~seconds ~trace ~out : (string * (float * string)) list option =
  let args =
    [ "pipeline"; "--workload"; w; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0"); "--out"; out ]
  in
  Printf.eprintf "== %s seed %d%s\n%!" w seed (if trace then " (traced)" else "");
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin Unix.stderr Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 ->
    let path = result_path out w seed ~trace in
    Some (snd (parse_result (In_channel.with_open_text path In_channel.input_all)))
  | _ ->
    Printf.eprintf "pipebench: %s seed %d failed\n%!" w seed;
    None

let orchestrate ~seed ~seconds ~trace ~out ~runs =
  let bounds = if Sys.file_exists bench_file then load_bench bench_file else [] in
  let ok = ref true in
  (* (workload, traced) -> results of every run, in seed order *)
  let got = Hashtbl.create 8 in
  for k = 0 to runs - 1 do
    let order = if k land 1 = 0 then Pipeline.workloads else List.rev Pipeline.workloads in
    List.iter
      (fun w ->
        List.iter
          (fun tr ->
            match spawn ~w ~seed:(seed + k) ~seconds ~trace:tr ~out with
            | Some vs ->
              let prev = Option.value ~default:[] (Hashtbl.find_opt got (w, tr)) in
              Hashtbl.replace got (w, tr) (prev @ [ vs ])
            | None -> ok := false)
          (if trace then [ false; true ] else [ false ]))
      order
  done;
  let values w tr name =
    List.filter_map (List.assoc_opt name) (Option.value ~default:[] (Hashtbl.find_opt got (w, tr)))
    |> List.map fst
  in
  List.iter
    (fun w ->
      Printf.printf "\n%s (%d run%s of %gs)\n" w runs (if runs = 1 then "" else "s") seconds;
      Printf.printf "  %-22s %-9s %14s %14s %14s %8s %7s%s\n" "metric" "unit" "median" "q1" "q3"
        "spread" "bound" (if trace then "  traced" else "");
      List.iter
        (fun (mt : Pipeline.metric) ->
          let xs = values w false mt.name in
          if xs <> [] then begin
            let q1, q3 = quartiles xs in
            let bound = List.find_opt (fun b -> b.b_name = mt.name) bounds in
            let sp = spread xs in
            Printf.printf "  %-22s %-9s %14.4f %14.4f %14.4f %7.2f%% %6s%s\n" mt.name mt.unit_
              (median xs) q1 q3 (100.0 *. sp)
              (match bound with
              | Some b -> Printf.sprintf "%s%g%%" (if sp > b.bound then ">" else "") (100.0 *. b.bound)
              | None -> "-")
              (match values w true mt.name with
              | [] -> ""
              | ts ->
                (* tracing overhead: traced median against untraced median *)
                Printf.sprintf "  %+6.1f%%" (100.0 *. Pipeline.ratio (median ts -. median xs) (median xs)))
          end)
        Pipeline.end_to_end;
      if trace then
        List.iter
          (fun (mt : Pipeline.metric) ->
            match values w true mt.name with
            | [] -> ()
            | xs -> Printf.printf "  %-34s %14.4f %s\n" mt.name (median xs) mt.unit_)
          Pipeline.per_layer)
    Pipeline.workloads;
  Printf.printf "\nresults in %s\n" out;
  exit (if !ok then 0 else 1)

let pipeline args =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let out = ref default_out and runs = ref 1 in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W one of " ^ String.concat ", " Pipeline.workloads);
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S length of each timed phase (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 record spans and report per-layer metrics");
      ("--out", Arg.Set_string out, "DIR where result and trace files go (default " ^ default_out ^ ")");
      ("--runs", Arg.Set_int runs, "N processes per workload (default 1)");
    ]
  in
  Arg.parse_argv ~current:(ref 0) (Array.of_list ("pipeline" :: args)) specs
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe pipeline [options]";
  if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace takes 0 or 1");
  if !workload = "" then
    orchestrate ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:!out ~runs:(max 1 !runs)
  else if List.mem !workload Pipeline.workloads then
    run_in_process ~w:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~out:!out
  else raise (Arg.Bad ("unknown workload " ^ !workload))

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

(* untraced results of a directory: workload -> [(seed, values)] *)
let load_set dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter_map (fun f ->
         match Scanf.sscanf f "%[^.].s%d.json%!" (fun w s -> (w, s)) with
         | w, s when List.mem w Pipeline.workloads ->
           let _, vs = parse_result (In_channel.with_open_text (Filename.concat dir f) In_channel.input_all) in
           Some (w, (s, List.map (fun (k, (v, _)) -> (k, v)) vs))
         | _ -> None
         | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> None)

(** The verdict of choosing-metrics §6 and §8 for one metric: improved
    when B wins at least 90% of the seed-paired runs and the medians
    differ by more than A's interquartile range; regressed when B's
    median is worse than A's by more than the bound; unresolved when
    either side's spread is wider than the bound, unless every B run
    beats every A run. *)
let verdict (b : bound) (xa : float list) (xb : float list) (pairs : (float * float) list) =
  let better x y = if b.higher then x > y else x < y in
  let ma = median xa and mb = median xb in
  let q1a, q3a = quartiles xa in
  let wins = List.length (List.filter (fun (a, x) -> better x a) pairs) in
  let win_frac = Pipeline.ratio (float_of_int wins) (float_of_int (List.length pairs)) in
  let gain = (if b.higher then mb -. ma else ma -. mb) /. Float.abs ma in
  let verdict =
    if win_frac >= 0.9 && gain > 0.0 && Float.abs (mb -. ma) > q3a -. q1a then "improved"
    else if gain < -.b.bound then "regressed"
    else if spread xa > b.bound || spread xb > b.bound then
      if List.for_all (fun x -> List.for_all (fun a -> better x a) xa) xb then "unchanged"
      else "unresolved"
    else "unchanged"
  in
  (win_frac, verdict)

let compare_sets args =
  match args with
  | [ da; db ] ->
    let bounds = load_bench bench_file in
    let sa = load_set da and sb = load_set db in
    Printf.printf "%-17s %-20s %28s %28s %6s  %s\n" "workload" "metric" ("A " ^ da) ("B " ^ db)
      "wins" "verdict";
    let regressed = ref false in
    List.iter
      (fun w ->
        let runs s = List.sort compare (List.filter_map (fun (w', r) -> if w' = w then Some r else None) s) in
        let ra = runs sa and rb = runs sb in
        if ra <> [] && rb <> [] then
          List.iter
            (fun b ->
              let vals rs = List.filter_map (fun (_, vs) -> List.assoc_opt b.b_name vs) rs in
              let xa = vals ra and xb = vals rb in
              let pairs =
                List.filter_map
                  (fun (s, va) ->
                    match (List.assoc_opt b.b_name va, Option.bind (List.assoc_opt s rb) (List.assoc_opt b.b_name)) with
                    | Some x, Some y -> Some (x, y)
                    | _ -> None)
                  ra
              in
              if xa <> [] && xb <> [] then begin
                let win_frac, v = verdict b xa xb pairs in
                if v = "regressed" then regressed := true;
                let cell xs =
                  let q1, q3 = quartiles xs in
                  Printf.sprintf "%.4g [%.4g, %.4g]" (median xs) q1 q3
                in
                Printf.printf "%-17s %-20s %28s %28s %5.0f%%  %s\n" w b.b_name (cell xa) (cell xb)
                  (100.0 *. win_frac) v
              end)
            bounds)
      Pipeline.workloads;
    exit (if !regressed then 1 else 0)
  | _ -> raise (Arg.Bad "compare takes two result directories")

(* ------------------------------------------------------------------ *)
(* smoke                                                               *)
(* ------------------------------------------------------------------ *)

let smoke args =
  let path = match args with [ p ] -> p | _ -> raise (Arg.Bad "smoke takes BENCHMARK.json") in
  let lists = [ (false, load_bench path); (true, load_bench ~key:"per_layer" path) ] in
  let bad = ref 0 in
  (* the file and the benchmark must name the same metrics *)
  List.iter
    (fun ((trace, wanted), (specs : Pipeline.metric list)) ->
      let names = List.sort compare in
      if names (List.map (fun b -> b.b_name) wanted) <> names (List.map (fun (mt : Pipeline.metric) -> mt.name) specs)
      then begin
        Printf.printf "%s metrics in %s differ from the benchmark's\n"
          (if trace then "per_layer" else "end_to_end") path;
        incr bad
      end)
    (List.combine lists [ Pipeline.end_to_end; Pipeline.per_layer ]);
  List.iter
    (fun w ->
      List.iter
        (fun (trace, wanted) ->
          Trace.reset ();
          Trace.enabled := trace;
          let t0 = Unix.gettimeofday () in
          let r = Pipeline.run { seed = 1; seconds = 0.0; smoke = true } w in
          let failed, printed = parse_result (result_line r (List.map (fun b -> b.b_name) wanted)) in
          let problems =
            (if failed <> 0 then [ Printf.sprintf "%d failed operations" failed ] else [])
            @ List.filter_map
                (fun b ->
                  match List.assoc_opt b.b_name printed with
                  | None -> Some (b.b_name ^ " missing")
                  | Some (_, u) when u <> b.b_unit || u <> unit_of b.b_name ->
                    Some (Printf.sprintf "%s printed in %s, declared in %s" b.b_name u b.b_unit)
                  | Some (v, _) when (not trace) && not (v > 0.0) ->
                    Some (Printf.sprintf "%s reads %g" b.b_name v)
                  | Some _ -> None)
                wanted
          in
          Printf.printf "%-17s %-6s %5.1fs %s\n%!" w
            (if trace then "traced" else "")
            (Unix.gettimeofday () -. t0)
            (if problems = [] then "ok" else String.concat "; " problems);
          bad := !bad + List.length problems)
        lists)
    Pipeline.workloads;
  exit (if !bad = 0 then 0 else 1)

let () =
  let usage () =
    prerr_endline
      "usage: main.exe pipeline [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--runs N]\n\
      \       main.exe compare DIR_A DIR_B\n\
      \       main.exe smoke BENCHMARK.json";
    exit 2
  in
  try
    match List.tl (Array.to_list Sys.argv) with
    | "pipeline" :: rest -> pipeline rest
    | "compare" :: rest -> compare_sets rest
    | "smoke" :: rest -> smoke rest
    | _ -> usage ()
  with
  | Arg.Bad msg | Arg.Help msg ->
    prerr_endline msg;
    exit 2
