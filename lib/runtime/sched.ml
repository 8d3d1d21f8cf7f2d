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

(* Pick-state tokens are one line-safe word of comma-separated fields:
   a generator state as the lowercase hex of its versioned binary form
   ([Random.State.to_binary_string]), everything else as decimal ints. *)
let rng_token (rng : Random.State.t) : string =
  let s = Random.State.to_binary_string rng in
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun ch -> Printf.bprintf b "%02x" (Char.code ch)) s;
  Buffer.contents b

let rng_of_token (tok : string) : (Random.State.t, string) result =
  let nib ch =
    match ch with '0' .. '9' -> Char.code ch - 48 | 'a' .. 'f' -> Char.code ch - 87 | _ -> -1
  in
  let n = String.length tok / 2 in
  if String.length tok land 1 = 1 || not (String.for_all (fun ch -> nib ch >= 0) tok) then
    Error "not even-length lowercase hex"
  else
    let b = String.init n (fun i -> Char.chr ((16 * nib tok.[2 * i]) + nib tok.[(2 * i) + 1])) in
    match Random.State.of_binary_string b with
    | rng -> Ok rng
    | exception Failure _ -> Error (Printf.sprintf "%d bytes, not a generator state" n)

let rng_of_token_exn (tok : string) : Random.State.t =
  match rng_of_token tok with Ok rng -> rng | Error why -> failwith ("bad rng token: " ^ why)

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
    save = (fun () -> rng_token !st);
    load = (fun s -> st := rng_of_token_exn s);
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
    save = (fun () -> rng_token !st ^ "," ^ string_of_int !cur);
    load =
      (fun s ->
        match String.split_on_char ',' s with
        | [ rs; c ] ->
          st := rng_of_token_exn rs;
          cur := int_of_string c
        | _ -> failwith ("bad sticky token: " ^ s));
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
    save =
      (fun () ->
        (* the count first, so an exhausted script is still a non-empty token *)
        String.concat "," (List.map string_of_int (List.length !rest :: !rest)));
    load = (fun s -> rest := List.tl (List.map int_of_string (String.split_on_char ',' s)));
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
        List.sort compare entries
        |> List.concat_map (fun (k, v) -> [ string_of_int k; string_of_int v ])
        |> List.cons (rng_token !st)
        |> String.concat ",");
    load =
      (fun s ->
        match String.split_on_char ',' s with
        | rs :: entries ->
          st := rng_of_token_exn rs;
          Hashtbl.reset prio;
          let rec add = function
            | k :: v :: rest ->
              Hashtbl.add prio (int_of_string k) (int_of_string v);
              add rest
            | [] -> ()
            | [ _ ] -> failwith ("bad pct token: " ^ s)
          in
          add entries
        | [] -> failwith ("bad pct token: " ^ s));
  }
