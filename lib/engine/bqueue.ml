(** Bounded blocking MPMC queue — the record service's submission channel.

    A mutex + two condition variables around a [Queue.t] with a hard
    capacity.  Producers choose their back-pressure policy per call:
    {!try_push} returns [`Full] immediately (reject, or park-and-steal in
    the service's producer loop), {!push} blocks until space frees.
    Consumers block in {!pop} until an item arrives or the queue is closed
    {e and} drained — close-then-drain is what gives the service its
    drain-on-shutdown guarantee: every accepted item is still delivered,
    only new submissions are refused.

    Occupancy statistics (peak depth, pushes, blocked pushes/pops) are
    tracked under the same mutex; they are interleaving-dependent, so report
    them behind [LIGHT_TIMINGS] only. *)

type 'a t = {
  q : 'a Queue.t;
  cap : int;
  m : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  mutable closed : bool;
  mutable pushes : int;
  mutable blocked_pushes : int;
  mutable blocked_pops : int;
  mutable peak : int;
}

type stats = {
  bq_capacity : int;
  bq_pushes : int;
  bq_blocked_pushes : int;
  bq_blocked_pops : int;
  bq_peak : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Bqueue.create: capacity must be >= 1";
  {
    q = Queue.create ();
    cap = capacity;
    m = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    closed = false;
    pushes = 0;
    blocked_pushes = 0;
    blocked_pops = 0;
    peak = 0;
  }

let capacity t = t.cap

let length t =
  Mutex.lock t.m;
  let n = Queue.length t.q in
  Mutex.unlock t.m;
  n

(* caller holds t.m *)
let enqueue_locked t x =
  Queue.push x t.q;
  t.pushes <- t.pushes + 1;
  let n = Queue.length t.q in
  if n > t.peak then t.peak <- n;
  Condition.signal t.not_empty

let try_push t x =
  Mutex.lock t.m;
  let r =
    if t.closed then `Closed
    else if Queue.length t.q >= t.cap then `Full
    else begin
      enqueue_locked t x;
      `Ok
    end
  in
  Mutex.unlock t.m;
  r

let push t x =
  Mutex.lock t.m;
  let blocked = ref false in
  while (not t.closed) && Queue.length t.q >= t.cap do
    if not !blocked then begin
      blocked := true;
      t.blocked_pushes <- t.blocked_pushes + 1
    end;
    Condition.wait t.not_full t.m
  done;
  let r =
    if t.closed then `Closed
    else begin
      enqueue_locked t x;
      `Ok
    end
  in
  Mutex.unlock t.m;
  r

let pop t =
  Mutex.lock t.m;
  let blocked = ref false in
  while Queue.is_empty t.q && not t.closed do
    if not !blocked then begin
      blocked := true;
      t.blocked_pops <- t.blocked_pops + 1
    end;
    Condition.wait t.not_empty t.m
  done;
  let r =
    if Queue.is_empty t.q then None (* closed and drained *)
    else begin
      let x = Queue.pop t.q in
      Condition.signal t.not_full;
      Some x
    end
  in
  Mutex.unlock t.m;
  r

let try_pop t =
  Mutex.lock t.m;
  let r =
    if Queue.is_empty t.q then None
    else begin
      let x = Queue.pop t.q in
      Condition.signal t.not_full;
      Some x
    end
  in
  Mutex.unlock t.m;
  r

let close t =
  Mutex.lock t.m;
  t.closed <- true;
  (* wake every waiter: parked producers give up, poppers drain then exit *)
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.m

let stats t =
  Mutex.lock t.m;
  let s =
    {
      bq_capacity = t.cap;
      bq_pushes = t.pushes;
      bq_blocked_pushes = t.blocked_pushes;
      bq_blocked_pops = t.blocked_pops;
      bq_peak = t.peak;
    }
  in
  Mutex.unlock t.m;
  s
