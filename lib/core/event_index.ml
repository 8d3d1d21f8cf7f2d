(** Events [(t, c)] — a thread and its counter — at dense positions.

    Each thread the index covers has a {e slot}, in ascending tid order,
    and a span of counters [cmin .. cmax], the least and greatest it was
    built with.  The slot's events take the positions [base.(s) ..
    base.(s+1) - 1]: the event [(t, c)] is at [base.(s) + c - cmin.(s)].
    So finding an event is a slot lookup and a subtraction, and a thread's
    events in counter order are one slice; the constraint generator numbers
    its variables through the index and the replayer lays its rank tables
    out as it.

    A thread's slot is read from a table over the range of tids when the
    tids are dense enough, as recorded logs' are (small integers), and
    found by binary search in the sorted tids otherwise.

    Its size is the sum of the spans, which a malformed log could make as
    large as a counter value.  So {!create} refuses, with
    {!Log.Inconsistent}, an event past its thread's final counter (the
    log's [T] lines), and spans wider than the log vouches for: a
    thread's final counter counts the accesses the recorded run made, so
    a recorded log's spans fit under its final counters, whatever step
    budget it was recorded or is replayed with.  Threads without a final
    counter may span as many events as a replay steps by default
    ({!max_events}). *)

type t = {
  tids : int array;  (** the threads, ascending: a thread's slot is its index *)
  cmin : int array;  (** per slot, the least counter *)
  base : int array;  (** per slot, its first position; the size at the end *)
  tmin : int;
  direct : int array;
      (** the slot of tid [tmin + i] at [i], -1 for none; empty when the
          tids are too sparse for it *)
}

(** The replay's default step budget ({!Replayer.replay}'s [max_steps]):
    the most events the spans may hold, per thread and in all, beyond what
    the log's final counters vouch for. *)
let max_events = 10_000_000

(** The number of positions. *)
let[@inline] size (ix : t) : int = ix.base.(Array.length ix.tids)

(** The slot of thread [t], or -1. *)
let slot (ix : t) (t : int) : int =
  let d = ix.direct in
  if Array.length d > 0 then begin
    (* wraps past the range when [t] is far from [tmin] *)
    let i = t - ix.tmin in
    if i >= 0 && i < Array.length d then Array.unsafe_get d i else -1
  end
  else begin
    let lo = ref 0 and hi = ref (Array.length ix.tids) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if ix.tids.(mid) < t then lo := mid + 1 else hi := mid
    done;
    if !lo < Array.length ix.tids && ix.tids.(!lo) = t then !lo else -1
  end

(** The position of event [(t, c)] of slot [s], or -1 when [c] is outside
    the slot's span. *)
let[@inline] pos_in (ix : t) (s : int) (c : int) : int =
  let b = Array.unsafe_get ix.base s in
  let i = c - Array.unsafe_get ix.cmin s in
  if i >= 0 && i < Array.unsafe_get ix.base (s + 1) - b then b + i else -1

(** The position of event [(t, c)], or -1 when the index does not cover
    it. *)
let pos (ix : t) (t : int) (c : int) : int =
  let s = slot ix t in
  if s < 0 then -1 else pos_in ix s c

let inconsistent fmt = Printf.ksprintf (fun m -> raise (Log.Inconsistent m)) fmt

(** The index of the events [(tid.(k), lo.(k))] and [(tid.(k), hi.(k))]
    for [k < n], and of [extra]; [counters] are the log's final counters
    ([T] lines), which no event may pass.  Raises {!Log.Inconsistent} on
    an event past its thread's final counter, and on a thread's span, or
    the spans in all, wider than both {!max_events} and the final counters
    of the threads. *)
let create ~(tid : int array) ~(lo : int array) ~(hi : int array) (n : int)
    ~(extra : (int * int) list) ~(counters : (int * int) list) : t =
  let tmin = ref max_int and tmax = ref min_int in
  for k = 0 to n - 1 do
    let t = Array.unsafe_get tid k in
    if t < !tmin then tmin := t;
    if t > !tmax then tmax := t
  done;
  List.iter
    (fun (t, _) ->
      if t < !tmin then tmin := t;
      if t > !tmax then tmax := t)
    extra;
  let n_refs = n + List.length extra in
  let tmin = !tmin and range = !tmax - !tmin in
  (* a direct table when it is no longer than a few entries per event;
     [range] is negative when it wraps *)
  let dense = n_refs > 0 && range >= 0 && range < (4 * n_refs) + 64 in
  let direct = if dense then Array.make (range + 1) (-1) else [||] in
  let tids =
    if dense then begin
      for k = 0 to n - 1 do
        Array.unsafe_set direct (Array.unsafe_get tid k - tmin) 0
      done;
      List.iter (fun (t, _) -> direct.(t - tmin) <- 0) extra;
      let nt = ref 0 in
      for i = 0 to range do
        if direct.(i) = 0 then begin
          direct.(i) <- !nt;
          incr nt
        end
      done;
      let tids = Array.make !nt 0 in
      Array.iteri (fun i s -> if s >= 0 then tids.(s) <- tmin + i) direct;
      tids
    end
    else begin
      let all = Array.append (Array.sub tid 0 n) (Array.of_list (List.map fst extra)) in
      Array.sort Int.compare all;
      let distinct = ref [] in
      Array.iteri (fun i t -> if i = 0 || all.(i - 1) <> t then distinct := t :: !distinct) all;
      Array.of_list (List.rev !distinct)
    end
  in
  let nt = Array.length tids in
  let cmin = Array.make nt max_int and cmax = Array.make nt min_int in
  let ix = { tids; cmin; base = Array.make (nt + 1) 0; tmin; direct } in
  for k = 0 to n - 1 do
    let t = Array.unsafe_get tid k and a = Array.unsafe_get lo k and b = Array.unsafe_get hi k in
    let s = if dense then Array.unsafe_get direct (t - tmin) else slot ix t in
    let a, b = if a <= b then (a, b) else (b, a) in
    if a < Array.unsafe_get cmin s then Array.unsafe_set cmin s a;
    if b > Array.unsafe_get cmax s then Array.unsafe_set cmax s b
  done;
  List.iter
    (fun (t, c) ->
      let s = slot ix t in
      if c < cmin.(s) then cmin.(s) <- c;
      if c > cmax.(s) then cmax.(s) <- c)
    extra;
  (* the widest span [cmax - cmin] a slot may have: as wide as its final
     counter, which no recorded event passes, or as a default replay
     steps; and the events in all: as many as the final counters count
     together (saturating), or as a default replay steps *)
  let room = Array.make nt (max_events - 1) and vouched = ref 0 in
  List.iter
    (fun (t, d) ->
      let s = slot ix t in
      if s >= 0 then begin
        if cmax.(s) > d then
          inconsistent "event (%d,%d) is past thread %d's final counter %d" t cmax.(s) t d;
        if d > room.(s) then room.(s) <- d;
        if d >= 0 then vouched := if d >= max_int - !vouched then max_int else !vouched + d + 1
      end)
    counters;
  let total = max max_events !vouched in
  for s = 0 to nt - 1 do
    (* a wrapped difference is negative *)
    let w = cmax.(s) - cmin.(s) in
    if w < 0 || w > room.(s) then
      inconsistent
        "thread %d's events span counters %d..%d, more than its final counter or a replay's \
         %d steps cover"
        tids.(s) cmin.(s) cmax.(s) max_events;
    if ix.base.(s) + w + 1 > total then
      inconsistent
        "the log's threads span more events than their final counters or a replay's %d steps \
         cover"
        max_events;
    ix.base.(s + 1) <- ix.base.(s) + w + 1
  done;
  ix
