(** Bounded blocking MPMC queue with explicit back-pressure — the record
    service's submission channel.

    Capacity is hard: a full queue either rejects ({!try_push} returns
    [`Full]) or parks the producer ({!push} blocks) until a consumer frees a
    slot.  {!close} refuses new submissions but delivers everything already
    queued ({!pop} returns [None] only once the queue is closed {e and}
    empty), which is the service's drain-on-shutdown guarantee. *)

type 'a t

type stats = {
  bq_capacity : int;
  bq_pushes : int;          (** items accepted *)
  bq_blocked_pushes : int;  (** [push] calls that had to park on a full queue *)
  bq_blocked_pops : int;    (** [pop] calls that had to wait for an item *)
  bq_peak : int;            (** highest queue depth observed *)
}

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] if [capacity < 1]. *)

val try_push : 'a t -> 'a -> [ `Ok | `Full | `Closed ]
(** Non-blocking submit: [`Full] is the reject-mode back-pressure signal. *)

val push : 'a t -> 'a -> [ `Ok | `Closed ]
(** Parking submit: blocks while the queue is full, returns [`Closed]
    (dropping the item) if the queue closed while waiting.  Only safe when
    some other worker consumes — a producer that is also the only consumer
    must use {!try_push} and drain on [`Full] instead. *)

val pop : 'a t -> 'a option
(** Blocking receive; [None] once the queue is closed and fully drained. *)

val try_pop : 'a t -> 'a option
(** Non-blocking receive; [None] when currently empty (closed or not). *)

val close : 'a t -> unit
(** Refuse new submissions and wake all waiters; queued items remain
    poppable.  Idempotent. *)

val length : 'a t -> int
val capacity : 'a t -> int

val stats : 'a t -> stats
(** Occupancy counters (interleaving-dependent: report behind
    [LIGHT_TIMINGS] only). *)
