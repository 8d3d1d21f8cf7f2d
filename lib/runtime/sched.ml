(** Thread schedulers.

    The interpreter implements the paper's interleaved semantics: at each
    step the [NoDet] rule nondeterministically selects a runnable thread.  A
    scheduler resolves that nondeterminism.  Seeded schedulers make "original
    runs" reproducible for testing; the sticky scheduler yields realistic
    run-lengths of consecutive same-thread accesses, the pattern exploited by
    optimization O1 (Lemma 4.3). *)

type t = {
  name : string;
  pick : step:int -> runnable:int list -> int;
      (** chooses among the runnable thread ids (non-empty list) *)
  save : unit -> string;
      (** serialize the pick state (epoch checkpoints); line-safe text *)
  load : string -> unit;
      (** restore a state produced by [save] on the same constructor *)
}

(* Pick-state serialization helper: any marshalable value to a single
   line-safe hex token and back.  Used for [Random.State] (which has no
   public accessors) and for compound cursor state. *)
let marshal_hex (v : 'a) : string =
  let s = Marshal.to_string v [] in
  let hex = "0123456789abcdef" in
  let b = Buffer.create (2 * String.length s) in
  String.iter
    (fun c ->
      Buffer.add_char b hex.[Char.code c lsr 4];
      Buffer.add_char b hex.[Char.code c land 15])
    s;
  Buffer.contents b

let unmarshal_hex (h : string) : 'a =
  let n = String.length h / 2 in
  let s = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set s i (Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))
  done;
  Marshal.from_bytes s 0

(* the first tid above [last] in list order, else [wrap] *)
let rec first_above last ~wrap = function
  | [] -> wrap
  | t :: rest -> if t > last then t else first_above last ~wrap rest

let round_robin_pick ~last (runnable : int list) : int =
  first_above last ~wrap:(List.hd runnable) runnable

(* Every scheduler here is a [unit -> t]-style constructor: a [t] value
   carries mutable pick state, and sharing one instance across runs (or
   across domains) leaks schedule state from one run into the next.
   [round_robin] used to be a top-level [t] whose [last] ref was allocated
   once at module init — the archetype of that bug. *)
let round_robin () : t =
  let last = ref (-1) in
  {
    name = "round-robin";
    pick =
      (fun ~step:_ ~runnable ->
        let t = round_robin_pick ~last:!last runnable in
        last := t;
        t);
    save = (fun () -> string_of_int !last);
    load = (fun s -> last := int_of_string s);
  }

let random ~seed : t =
  let st = ref (Random.State.make [| seed; 0x11 |]) in
  {
    name = Printf.sprintf "random(%d)" seed;
    pick =
      (fun ~step:_ ~runnable ->
        List.nth runnable (Random.State.int !st (List.length runnable)));
    save = (fun () -> marshal_hex !st);
    load = (fun s -> st := (unmarshal_hex s : Random.State.t));
  }

(** Keeps running the current thread; switches with probability
    [1/stickiness] (or when the thread is no longer runnable).  Larger
    [stickiness] produces longer uninterleaved access sequences. *)
let sticky ~seed ~stickiness : t =
  let st = ref (Random.State.make [| seed; 0x22; stickiness |]) in
  let cur = ref (-1) in
  {
    name = Printf.sprintf "sticky(%d,%d)" seed stickiness;
    pick =
      (fun ~step:_ ~runnable ->
        let switch =
          (not (List.mem !cur runnable)) || Random.State.int !st stickiness = 0
        in
        if switch then
          cur := List.nth runnable (Random.State.int !st (List.length runnable));
        !cur);
    save = (fun () -> marshal_hex (!st, !cur));
    load =
      (fun s ->
        let rs, c = (unmarshal_hex s : Random.State.t * int) in
        st := rs;
        cur := c);
  }

(** Follows an explicit thread-id script; once exhausted (or when the
    scripted thread is not runnable) falls back to the first runnable
    thread.  Used by tests and by bug triggers. *)
let scripted (script : int list) : t =
  let rest = ref script in
  {
    name = "scripted";
    pick =
      (fun ~step:_ ~runnable ->
        let rec next () =
          match !rest with
          | [] -> List.hd runnable
          | t :: tl ->
            rest := tl;
            if List.mem t runnable then t else next ()
        in
        next ());
    save = (fun () -> marshal_hex !rest);
    load = (fun s -> rest := (unmarshal_hex s : int list));
  }

(** PCT-style priority scheduler: random fixed priorities with [depth]
    random priority-change points; always runs the highest-priority runnable
    thread.  Good at exposing rare-interleaving bugs. *)
let pct ~seed ~depth ~expected_steps : t =
  let st = ref (Random.State.make [| seed; 0x33 |]) in
  let prio : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let change_points =
    List.init depth (fun _ ->
        if expected_steps <= 0 then 0 else Random.State.int !st expected_steps)
  in
  let get_prio t =
    match Hashtbl.find_opt prio t with
    | Some p -> p
    | None ->
      let p = Random.State.int !st 1_000_000 in
      Hashtbl.add prio t p;
      p
  in
  {
    name = Printf.sprintf "pct(%d,%d)" seed depth;
    pick =
      (fun ~step ~runnable ->
        if List.mem step change_points then begin
          (* demote the currently highest thread *)
          match
            List.sort (fun a b -> compare (get_prio b) (get_prio a)) runnable
          with
          | top :: _ -> Hashtbl.replace prio top (-step)
          | [] -> ()
        end;
        List.fold_left
          (fun best t -> if get_prio t > get_prio best then t else best)
          (List.hd runnable) runnable);
    save =
      (fun () ->
        let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) prio [] in
        marshal_hex (!st, List.sort compare entries));
    load =
      (fun s ->
        let rs, entries = (unmarshal_hex s : Random.State.t * (int * int) list) in
        st := rs;
        Hashtbl.reset prio;
        List.iter (fun (k, v) -> Hashtbl.add prio k v) entries);
  }
