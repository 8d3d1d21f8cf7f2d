(** Int pairs numbered densely in first-insertion order: the first key
    added is 0, the next new one 1, and so on.  A number is an index into
    the caller's own columns, and iterating [0 .. length - 1] visits the
    keys in the order they were first added, whatever their values — so
    an output ordered by it does not depend on process-local ids.

    The numbers' keys are kept in two int arrays ([fst], [snd]); an
    open-addressing table of numbers, probed linearly and kept at most
    half full, finds a key's number.  No operation allocates except
    growth, which doubles. *)

type t = {
  mutable fst : int array;  (** number -> first key; read-only outside *)
  mutable snd : int array;  (** number -> second key; read-only outside *)
  mutable n : int;
  mutable slots : int array;  (* a number, or -1 *)
}

(** An empty index with room for [n] keys before it grows. *)
let create (n : int) : t =
  let n = max n 8 in
  let s = ref 16 in
  while !s < 2 * n do s := 2 * !s done;
  { fst = Array.make n 0; snd = Array.make n 0; n = 0; slots = Array.make !s (-1) }

let[@inline] length (t : t) : int = t.n

(* the slot holding [(a, b)]'s number, or the empty slot where it goes *)
let[@inline] slot (t : t) (a : int) (b : int) : int =
  let mask = Array.length t.slots - 1 in
  let h = ((a * 65599) + b) * 0x9E3779B1 in
  let i = ref ((h lxor (h lsr 17)) land mask) in
  while
    let v = Array.unsafe_get t.slots !i in
    v >= 0 && not (Array.unsafe_get t.fst v = a && Array.unsafe_get t.snd v = b)
  do
    i := (!i + 1) land mask
  done;
  !i

(** The number of [(a, b)], or -1. *)
let[@inline] find (t : t) (a : int) (b : int) : int = Array.unsafe_get t.slots (slot t a b)

let grow (t : t) : unit =
  if t.n = Array.length t.fst then begin
    let fst = Array.make (2 * t.n) 0 and snd = Array.make (2 * t.n) 0 in
    Array.blit t.fst 0 fst 0 t.n;
    Array.blit t.snd 0 snd 0 t.n;
    t.fst <- fst;
    t.snd <- snd
  end;
  if 2 * (t.n + 1) > Array.length t.slots then begin
    t.slots <- Array.make (2 * Array.length t.slots) (-1);
    for v = 0 to t.n - 1 do
      t.slots.(slot t t.fst.(v) t.snd.(v)) <- v
    done
  end

(** The number of [(a, b)]; when absent, it is added as [length t]. *)
let index (t : t) (a : int) (b : int) : int =
  let i = slot t a b in
  let v = Array.unsafe_get t.slots i in
  if v >= 0 then v
  else begin
    let v = t.n in
    let i =
      if v = Array.length t.fst || 2 * (v + 1) > Array.length t.slots then begin
        grow t;
        slot t a b
      end
      else i
    in
    t.fst.(v) <- a;
    t.snd.(v) <- b;
    t.n <- v + 1;
    t.slots.(i) <- v;
    v
  end

(** Forget every key; capacity is kept. *)
let clear (t : t) : unit =
  Array.fill t.slots 0 (Array.length t.slots) (-1);
  t.n <- 0
