(** Thread schedulers resolving the [NoDet] rule of the interleaved
    semantics (Section 3.1).

    Seeded schedulers make "original runs" reproducible; [sticky] models
    realistic OS quanta (long uninterleaved runs — the pattern optimization
    O1 exploits); [pct] is a priority-based bug-finding scheduler.

    A [t] value carries mutable pick state, so every scheduler is exposed
    as a constructor: build a fresh instance per run, and never share an
    instance across runs or across domains (the batch engine's determinism
    contract depends on this).  The [save]/[load] pair serializes that pick
    state as text (decimal ints and hex generator states), so an epoch
    checkpoint can capture the scheduler's exact position and a later
    replay can resume it mid-run. *)

type t = {
  name : string;
  pick : step:int -> runnable:int list -> int;
      (** choose among the runnable thread ids (non-empty) *)
  save : unit -> string;
      (** serialize the pick state as a single line-safe token *)
  load : string -> unit;
      (** restore state produced by [save] on the same constructor (same
          scheduler kind and construction parameters) *)
}

val rng_token : Random.State.t -> string
(** A generator state as a line-safe token: the lowercase hex of
    [Random.State.to_binary_string], a format versioned by the runtime.
    Scheduler [save] tokens join it with decimal ints by commas; epoch
    checkpoints write the VM's [@rand] generator this way. *)

val rng_of_token : string -> (Random.State.t, string) result
(** Inverse of {!rng_token}; [Error] says why the token is no generator
    state (not even-length lowercase hex, or bytes the runtime's
    [Random.State.of_binary_string] refuses). *)

val round_robin : unit -> t
(** Lowest thread id above the previously picked one, wrapping around.
    A constructor: the rotation cursor is per-instance state. *)

val round_robin_pick : last:int -> int list -> int
(** What {!round_robin} picks from a non-empty runnable list after
    picking [last]: the first id above [last] in list order, else the
    first id.  A rank-gated VM run picks this way. *)

val random : seed:int -> t
(** Uniform choice at every step. *)

val sticky : seed:int -> stickiness:int -> t
(** Keeps running the current thread, switching with probability
    [1/stickiness].  Larger values approximate longer scheduling quanta. *)

val scripted : int list -> t
(** Follows an explicit thread-id script, skipping entries that are not
    runnable; falls back to the first runnable thread when exhausted. *)

val pct : seed:int -> depth:int -> expected_steps:int -> t
(** PCT-style: random fixed priorities with [depth] priority-change points
    scattered over [expected_steps]; always runs the highest-priority
    runnable thread. *)
