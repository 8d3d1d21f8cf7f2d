(** Memory locations: object id x interned field id, as in the paper's heap
    domain [Heap = O x FldId -> Val].  Array elements, map entries and the
    ghost fields modeling synchronization primitives (Section 4.3) are all
    encoded in the integer field id, so every layer handles one flat
    location type with O(1) equality/hashing and no per-access allocation.
    Names round-trip through {!Lang.Intern}: [to_string]/[pp]/[fld_name]
    render the original spelling. *)

type t = { obj : Value.objid; fld : int }

val field : Value.objid -> string -> t
(** Named field (interns the name). *)

val field_id : Value.objid -> int -> t
(** Named field by pre-interned id — the resolved-code fast path. *)

(** Array element. *)
val elem : Value.objid -> int -> t

(** Map entry, keyed by value (value-keyed intern cache; no string
    construction in the steady state). *)
val mapkey : Value.objid -> Value.t -> t

val mapkey_fld : Value.t -> int
(** The bare interned field id of a map key — the register-VM fast path,
    which carries object and field separately. *)

(** Global variable slot. *)
val global : string -> t

val global_id : int -> t
(** Global slot by pre-interned id. *)

val lock_ghost : Value.objid -> t
(** The ghost field abstracting a lock's owner/count state: acquisition is
    modeled as a read then a write of it, release as a write. *)

val cond_ghost : Value.objid -> t
(** Written by [notify]/[notifyAll]; read by the matching wait_after. *)

val thread_ghost : int -> t
(** Written at spawn (by the parent) and at termination (by the thread);
    read by the thread's first transition and by [join]. *)

val lock_fld : int
val cond_fld : int
val thread_fld : int
val len_fld : int
(** Pre-interned field ids for the ghosts and the array-length field, fixed
    at module initialization (before any domain spawns). *)

val fld_of_elem : int -> int
(** Arithmetic field-id encoding of array index [i] (no interning). *)

val elem_index : int -> int

val fld_name : int -> string
(** Original spelling of a field id ("x", "#3", "@i7", "$lock", ...). *)

val fld_of_name : string -> int
(** Inverse of [fld_name]: parse "#<i>" arithmetically, intern the rest.
    Used by log readers to map serialized names back to process-local ids. *)

val is_ghost : t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int
(** [compare] orders by field {e name} (matching the seed's string order) so
    Map/Set iteration is independent of process-local intern-id assignment
    order — a requirement of the engine's determinism contract. *)

val hash : t -> int
val to_string : t -> string
val pp : Format.formatter -> t -> unit

module Tbl : Hashtbl.S with type key = t
module Map : Map.S with type key = t
module Set : Set.S with type elt = t
