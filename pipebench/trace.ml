(** In-memory span tracer for the pipeline benchmark.

    One span per call into a layer's public function, recorded from the
    benchmark's own code: a name of the form ["<layer>.<op>"], start and
    end (wall clock), the enclosing span, the item the call belongs to,
    and the words this domain allocated while the span was open.  Spans
    stay in memory until the benchmark ends; {!write_chrome} then dumps
    them as Chrome trace-event JSON and {!aggregate} gives per-name self
    times.

    When tracing is off, {!span} and {!item} are a direct call of their
    body, so the untraced run executes the same code minus the clock
    reads.  Spans are only opened from the main domain; calls that fan
    out across the pool (the record service) are one span each. *)

type span = {
  name : string;
  id : int;
  parent : int;  (** -1 at top level *)
  item : int;    (** -1 outside an item *)
  t0 : float;
  t1 : float;
  words : float; (** words allocated by this domain while open *)
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let current = ref (-1)
let current_item = ref (-1)
let next_item = ref 0

let reset () =
  spans := [];
  next_id := 0;
  current := -1;
  current_item := -1;
  next_item := 0

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span (name : string) (f : unit -> 'a) : 'a =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let w0 = words () in
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      current := parent;
      spans :=
        { name; id; parent; item = !current_item; t0; t1; words = words () -. w0 }
        :: !spans
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(** [item f] runs [f] as one benchmark item: a ["bench.item"] span whose
    children are the item's layer calls, all tagged with a fresh item id.
    The item span's self time is the benchmark's own glue. *)
let item (f : unit -> 'a) : 'a =
  if not !enabled then f ()
  else begin
    let saved = !current_item in
    current_item := !next_item;
    incr next_item;
    Fun.protect ~finally:(fun () -> current_item := saved) (fun () -> span "bench.item" f)
  end

type agg = { self_s : float; dur_s : float; calls : int; alloc_words : float }

let zero = { self_s = 0.0; dur_s = 0.0; calls = 0; alloc_words = 0.0 }

(* spans wholly inside [lo, hi] *)
let within ~lo ~hi = List.filter (fun s -> s.t0 >= lo && s.t1 <= hi) !spans

let child_time (ss : span list) : (int, float) Hashtbl.t =
  let h = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace h s.parent
          (Option.value ~default:0.0 (Hashtbl.find_opt h s.parent) +. (s.t1 -. s.t0)))
    ss;
  h

(** Per span name, over the spans inside [lo, hi]: total self time (own
    duration minus the time its children cover), total duration, call
    count and allocated words (own, children included). *)
let aggregate ~lo ~hi : (string, agg) Hashtbl.t =
  let ss = within ~lo ~hi in
  let kids = child_time ss in
  let out = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let a = Option.value ~default:zero (Hashtbl.find_opt out s.name) in
      let dur = s.t1 -. s.t0 in
      let self = dur -. Option.value ~default:0.0 (Hashtbl.find_opt kids s.id) in
      Hashtbl.replace out s.name
        {
          self_s = a.self_s +. self;
          dur_s = a.dur_s +. dur;
          calls = a.calls + 1;
          alloc_words = a.alloc_words +. s.words;
        })
    ss;
  out

let get (h : (string, agg) Hashtbl.t) (name : string) : agg =
  Option.value ~default:zero (Hashtbl.find_opt h name)

(** Per item inside [lo, hi]: (item wall time, item self time) — the
    self time is the part of the item no layer span covers. *)
let items ~lo ~hi : (float * float) list =
  let ss = within ~lo ~hi in
  let kids = child_time ss in
  List.filter_map
    (fun s ->
      if s.name = "bench.item" then
        let dur = s.t1 -. s.t0 in
        Some (dur, dur -. Option.value ~default:0.0 (Hashtbl.find_opt kids s.id))
      else None)
    ss

let json_string (s : string) : string =
  "\"" ^ Analysis.Lint.Json.escape s ^ "\""

(** Write every span as a Chrome trace-event ("X" complete events,
    microseconds since the first span). *)
let write_chrome (path : string) : unit =
  let ss = List.rev !spans in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity ss in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          let layer =
            match String.index_opt s.name '.' with
            | Some k -> String.sub s.name 0 k
            | None -> s.name
          in
          Printf.fprintf oc
            "%s{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
             \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \
             \"item\": %d, \"words\": %.0f}}"
            (if i = 0 then "" else ",\n")
            (json_string s.name) (json_string layer)
            ((s.t0 -. base) *. 1e6)
            ((s.t1 -. s.t0) *. 1e6)
            s.id s.parent s.item s.words)
        ss;
      output_string oc "\n]}\n")
