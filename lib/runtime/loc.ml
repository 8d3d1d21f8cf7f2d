(** Memory locations: an object id paired with a field id, as in the
    paper's heap domain [Heap = O x FldId -> Val].

    Field names, map keys and the ghost fields that model synchronization
    primitives (Section 4.3 of the paper) are interned into a global integer
    table ({!Lang.Intern}); array elements are encoded arithmetically without
    touching the table.  A location is therefore a pair of immediates with
    O(1) equality/hashing and zero per-access allocation — the seed encoded
    the field as a string, which put a string hash (and, for array/map/ghost
    accesses, a fresh allocation) on every heap access.

    Field-id encoding:
    - [fld >= 0]: intern id of the field name ("x", "$lock", "@i3", ...)
    - [fld < 0]: array element; index [i >= 0] maps to [-2i - 1] (odd) and
      the out-of-bounds probe indices [i < 0] map to [2i - 2] (even), so the
      encoding is injective over all of [int].

    [compare] orders by the *name* (exactly as the seed's string field
    ordering did), not the id: intern ids depend on interning order, which
    depends on how work interleaves across the engine's domain pool, and
    deterministic [Map]/[Set] iteration is what keeps experiment output
    byte-identical for any LIGHT_JOBS. *)

type t = { obj : Value.objid; fld : int }

(* Ghosts (and "len", which every array access consults) are interned at
   module initialization, before any domain is spawned, so their ids are
   fixed small constants in every process. *)
let lock_fld = Lang.Intern.id "$lock"
let cond_fld = Lang.Intern.id "$cond"
let thread_fld = Lang.Intern.id "$thread"
let len_fld = Lang.Intern.id "len"

let fld_of_elem (i : int) : int = if i >= 0 then (-2 * i) - 1 else (2 * i) - 2

let elem_index (fld : int) : int =
  if fld land 1 <> 0 then - ((fld + 1) / 2) else (fld + 2) / 2

let fld_name (fld : int) : string =
  if fld < 0 then "#" ^ string_of_int (elem_index fld) else Lang.Intern.name fld

(* Parse a serialized field name back to an id (log readers): array elements
   round-trip through their "#<i>" spelling, everything else re-interns. *)
let fld_of_name (s : string) : int =
  if String.length s > 1 && s.[0] = '#' then
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some i -> fld_of_elem i
    | None -> Lang.Intern.id s
  else Lang.Intern.id s

let field obj f = { obj; fld = Lang.Intern.id f }
let field_id obj fld = { obj; fld }
let elem obj i = { obj; fld = fld_of_elem i }

(* Map keys are interned through a value-keyed cache so the steady state
   performs no string construction at all ([Value.map_key] allocates).  The
   cache is striped by the key's structural hash: map accesses hit it on
   every heap operation, and with the record service running thousands of
   concurrent sessions a single cache mutex convoys exactly like the
   pre-sharding intern lock did.  Same-key lookups always land on the same
   stripe, so dedup needs no cross-stripe coordination. *)
let mk_stripe_count = 16

type mk_stripe = { mk_m : Mutex.t; mk_tbl : (Value.t, int) Hashtbl.t }

let mk_stripes =
  Array.init mk_stripe_count (fun _ ->
      { mk_m = Mutex.create (); mk_tbl = Hashtbl.create 64 })

let mapkey_fld (k : Value.t) : int =
  let st = mk_stripes.(Hashtbl.hash k land (mk_stripe_count - 1)) in
  Mutex.lock st.mk_m;
  let i =
    match Hashtbl.find_opt st.mk_tbl k with
    | Some i -> i
    | None ->
      let i = Lang.Intern.id ("@" ^ Value.map_key k) in
      Hashtbl.add st.mk_tbl k i;
      i
  in
  Mutex.unlock st.mk_m;
  i

let mapkey obj (k : Value.t) = { obj; fld = mapkey_fld k }
let global g = { obj = 0; fld = Lang.Intern.id g }
let global_id fld = { obj = 0; fld }

(** Ghost field modeling the monitor state (owner/count) of a lock object. *)
let lock_ghost obj = { obj; fld = lock_fld }

(** Ghost field written by [notify]/[notifyAll] and read by the matching
    wait_after transition. *)
let cond_ghost obj = { obj; fld = cond_fld }

(** Ghost location written when thread [t] starts or terminates; the child's
    first transition and the parent's [join] read it. *)
let thread_ghost (t : int) = { obj = -(t + 1); fld = thread_fld }

let is_ghost l =
  l.fld >= 0
  &&
  let n = Lang.Intern.name l.fld in
  String.length n > 0 && n.[0] = '$'

let equal (a : t) (b : t) = a.obj = b.obj && a.fld = b.fld

let compare (a : t) (b : t) =
  match Int.compare a.obj b.obj with
  | 0 -> if a.fld = b.fld then 0 else String.compare (fld_name a.fld) (fld_name b.fld)
  | c -> c

let hash (l : t) = Hashtbl.hash ((l.obj * 65599) + l.fld)

let to_string (l : t) =
  if l.obj = 0 then fld_name l.fld else Printf.sprintf "%d.%s" l.obj (fld_name l.fld)

let pp fmt l = Fmt.string fmt (to_string l)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t
  let equal = equal
  let hash = hash
end)

module Map = Map.Make (struct
  type nonrec t = t
  let compare = compare
end)

module Set = Set.Make (struct
  type nonrec t = t
  let compare = compare
end)
