(** The Light recording: what survives the original run.

    An access is identified by [(tid, c)] — thread id and the thread-local
    counter value [D(t)] (Section 2.3).  Two record kinds exist:

    - {!dep}: a flow dependence [w -> r] (Definition 3.1), compressed over
      the common write-then-many-reads-by-one-thread idiom via the [prec]
      map of Algorithm 1 (lines 7/9): [rl_c] is the counter of the *last*
      read of the same write by the reading thread, so the offline phase can
      materialize the implicit dependences.  [w = None] denotes a read of
      the location's initial (allocation-time) value, modeled as a flow
      dependence on a virtual initialization write that precedes every other
      write to the location.

    - {!range}: an O1 record (Lemma 4.3): a maximal sequence of consecutive
      accesses to one location by one thread with no interleaving access to
      that location.  Only the endpoints are recorded; interior dependences
      are re-inferred from thread-local order.  [w_in] feeds the reads that
      precede the range's first own write (if any).

    Space is accounted in the paper's unit (long integers), with records
    grouped per location as Leap's vectors are (location id amortized):
    dep = w + rf (2) + 1 when the span is non-trivial;
    range = lo + hi + w_in (3);
    syscall = 2.  [*_obs] fields are global access-clock stamps (the index
    of the access in the recorded run) used only as a solver heuristic: they
    let the offline phase reconstruct the recorded schedule as a search
    witness, which Z3's internal heuristics approximate for the paper's
    prototype — so they are not charged. *)

open Runtime

type evt = int * int  (** (tid, counter) *)

type dep = {
  loc : Loc.t;
  w : evt option;  (** [None]: virtual initialization write *)
  rf : evt;        (** first read of this write by the reading thread *)
  rl_c : int;      (** counter of the last such read (>= snd rf) *)
  dep_obs : int;   (** access-clock stamp of the last read *)
  w_obs : int;     (** access-clock stamp of [w] (0 for the virtual write) *)
}

type range = {
  loc : Loc.t;
  rt : int;        (** thread owning the run *)
  lo : int;        (** counter of the first access *)
  hi : int;        (** counter of the last access *)
  w_in : evt option;  (** write feeding the prefix reads; [None] = initial value *)
  prefix_reads : bool;  (** the run begins with reads (before any own write) *)
  has_write : bool;
  rng_obs : int;  (** access-clock stamp of the last access *)
  lo_obs : int;   (** access-clock stamp of the first access *)
  w_obs : int;    (** access-clock stamp of [w_in] (0 when absent) *)
}

type t = {
  deps : dep list;
  ranges : range list;
  syscalls : (int * int * string * Value.t) list;  (** tid, idx, name, value *)
  counters : (int * int) list;  (** final D(t) per thread *)
  o1 : bool;
  o2 : bool;
}

let empty = { deps = []; ranges = []; syscalls = []; counters = []; o1 = false; o2 = false }

(* ------------------------------------------------------------------ *)
(* Space accounting (long-integer units, Section 5.2)                   *)
(* ------------------------------------------------------------------ *)

(* Records are stored grouped by location (as Leap's per-location vectors
   are), so the location id is amortized and not counted per record —
   consistent with counting Leap at one long per access. *)
let dep_longs (d : dep) : int = 2 + if d.rl_c > snd d.rf then 1 else 0
let range_longs (_ : range) : int = 3

let space_longs (l : t) : int =
  List.fold_left (fun acc d -> acc + dep_longs d) 0 l.deps
  + List.fold_left (fun acc r -> acc + range_longs r) 0 l.ranges
  + (2 * List.length l.syscalls)

let num_records (l : t) : int = List.length l.deps + List.length l.ranges

(* ------------------------------------------------------------------ *)
(* Serialization (line-oriented text; used by the CLI)                  *)
(* ------------------------------------------------------------------ *)

(* The writer emits integers digit-by-digit into the output buffer and the
   reader scans tokens in place with a cursor — neither side allocates an
   intermediate string per line or per field (the seed used a
   [Printf.sprintf] per line and a [String.split_on_char] per line and per
   event).  The format is byte-identical to the seed's. *)

(* decimal writer; no scratch buffer so it is safe across engine domains *)
let rec add_pos (buf : Buffer.t) (n : int) : unit =
  if n >= 10 then add_pos buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let add_int (buf : Buffer.t) (n : int) : unit =
  if n >= 0 then add_pos buf n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    add_pos buf (-n)
  end

let add_bool (buf : Buffer.t) (b : bool) : unit =
  Buffer.add_string buf (if b then "true" else "false")

let add_evt (buf : Buffer.t) (e : evt option) : unit =
  match e with
  | None -> Buffer.add_char buf '-'
  | Some (t, c) ->
    add_int buf t;
    Buffer.add_char buf ':';
    add_int buf c

(* field names may contain arbitrary map-key strings; percent-encode the
   characters that would break the line format *)
let add_enc_field (buf : Buffer.t) (f : string) : unit =
  let hex = "0123456789abcdef" in
  String.iter
    (fun c ->
      if c = ' ' || c = '%' || c = '\n' then begin
        Buffer.add_char buf '%';
        Buffer.add_char buf hex.[Char.code c lsr 4];
        Buffer.add_char buf hex.[Char.code c land 15]
      end
      else Buffer.add_char buf c)
    f

let enc_field (f : string) : string =
  let buf = Buffer.create (String.length f) in
  add_enc_field buf f;
  Buffer.contents buf

(* decode the %-escapes of [s.[st .. st+len-1]] *)
let dec_field_sub (s : string) (st : int) (len : int) : string =
  let buf = Buffer.create len in
  let i = ref st in
  let n = st + len in
  while !i < n do
    if s.[!i] = '%' && !i + 2 < n then begin
      Buffer.add_char buf (Char.chr (int_of_string ("0x" ^ String.sub s (!i + 1) 2)));
      i := !i + 3
    end
    else (Buffer.add_char buf s.[!i]; incr i)
  done;
  Buffer.contents buf

let dec_field (s : string) : string = dec_field_sub s 0 (String.length s)

(* v3 ships the intern table once in the header (F lines) and writes
   integer field ids in events.  Array-element ids (negative, arithmetic
   encoding) are process-independent and appear verbatim; interned ids
   (>= 0) are remapped through the F table on load, since intern ids are
   only meaningful within one process. *)
let add_loc (buf : Buffer.t) (l : Loc.t) : unit =
  add_int buf l.obj;
  Buffer.add_char buf '/';
  add_int buf l.fld

let value_str (v : Value.t) =
  match v with
  | VInt n -> "i" ^ string_of_int n
  | VBool b -> "b" ^ string_of_bool b
  | VNull -> "n"
  | VRef o -> "r" ^ string_of_int o
  | VStr s -> "s" ^ enc_field s
  | VThread t -> "t" ^ string_of_int t

let value_of_string s : Value.t =
  if s = "n" then VNull
  else if s = "" then failwith "bad value: "
  else
    let body = String.sub s 1 (String.length s - 1) in
    match s.[0] with
    | 'i' -> VInt (int_of_string body)
    | 'b' -> (
      match bool_of_string_opt body with Some b -> VBool b | None -> failwith ("bad value: " ^ s))
    | 'r' -> VRef (int_of_string body)
    | 's' -> VStr (dec_field body)
    | 't' -> VThread (int_of_string body)
    | _ -> failwith ("bad value: " ^ s)

let body_add (l : t) (buf : Buffer.t) : unit =
  let sp () = Buffer.add_char buf ' ' in
  let nl () = Buffer.add_char buf '\n' in
  List.iter
    (fun (t, c) ->
      Buffer.add_string buf "T ";
      add_int buf t;
      sp ();
      add_int buf c;
      nl ())
    l.counters;
  List.iter
    (fun (d : dep) ->
      Buffer.add_string buf "D ";
      add_loc buf d.loc;
      sp ();
      add_evt buf d.w;
      sp ();
      let rf_t, rf_c = d.rf in
      add_int buf rf_t;
      Buffer.add_char buf ':';
      add_int buf rf_c;
      sp ();
      add_int buf d.rl_c;
      sp ();
      add_int buf d.dep_obs;
      sp ();
      add_int buf d.w_obs;
      nl ())
    l.deps;
  List.iter
    (fun (r : range) ->
      Buffer.add_string buf "R ";
      add_loc buf r.loc;
      sp ();
      add_int buf r.rt;
      sp ();
      add_int buf r.lo;
      sp ();
      add_int buf r.hi;
      sp ();
      add_evt buf r.w_in;
      sp ();
      add_bool buf r.prefix_reads;
      sp ();
      add_bool buf r.has_write;
      sp ();
      add_int buf r.rng_obs;
      sp ();
      add_int buf r.lo_obs;
      sp ();
      add_int buf r.w_obs;
      nl ())
    l.ranges;
  List.iter
    (fun (t, i, n, v) ->
      Buffer.add_string buf "S ";
      add_int buf t;
      sp ();
      add_int buf i;
      sp ();
      Buffer.add_string buf n;
      sp ();
      Buffer.add_string buf (value_str v);
      nl ())
    l.syscalls

(** v3 serialization: the intern table is stored once as F lines in the
    header, events carry integer field ids. *)
let to_string (l : t) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "light-log v3 o1=";
  add_bool buf l.o1;
  Buffer.add_string buf " o2=";
  add_bool buf l.o2;
  Buffer.add_char buf '\n';
  (* the intern-table header: every named (non-element) field id in use *)
  let seen = Hashtbl.create 16 in
  let note (loc : Loc.t) =
    if loc.fld >= 0 && not (Hashtbl.mem seen loc.fld) then begin
      Hashtbl.add seen loc.fld ();
      Buffer.add_string buf "F ";
      add_int buf loc.fld;
      Buffer.add_char buf ' ';
      add_enc_field buf (Loc.fld_name loc.fld);
      Buffer.add_char buf '\n'
    end
  in
  List.iter (fun (d : dep) -> note d.loc) l.deps;
  List.iter (fun (r : range) -> note r.loc) l.ranges;
  body_add l buf;
  Buffer.contents buf

(** The [o1=B o2=B] flags of a ["light-log <version>"] header line and
    the tokens after them; a header of another shape fails naming it. *)
let header_flags ~(version : string) (header : string) : bool * bool * string list =
  let bad () = failwith ("bad log header: " ^ header) in
  let flag name tok =
    if tok = name ^ "=true" then true else if tok = name ^ "=false" then false else bad ()
  in
  match String.split_on_char ' ' header with
  | "light-log" :: v :: o1 :: o2 :: rest when v = version -> (flag "o1" o1, flag "o2" o2, rest)
  | _ -> bad ()

(** Reads a v3 log (intern-table header, integer field ids); locations
    come back keyed by this process's intern ids.  The parser is a single
    in-place scan: a cursor walks the string and every integer, event, and
    location is decoded straight out of the input bytes; the only
    substrings taken are the decoded field-name / syscall payloads
    themselves.  Malformed input fails with [Failure] naming the header or
    the line, including an integer that does not fit in an [int]. *)
let of_string (s : string) : t =
  let n = String.length s in
  let hstart = ref 0 in
  while !hstart < n && s.[!hstart] = '\n' do incr hstart done;
  if !hstart >= n then failwith "empty log";
  let hdr_end =
    match String.index_from_opt s !hstart '\n' with Some i -> i | None -> n
  in
  let header = String.sub s !hstart (hdr_end - !hstart) in
  let o1, o2 =
    match header_flags ~version:"v3" header with
    | o1, o2, [] -> (o1, o2)
    | _ -> failwith ("bad log header: " ^ header)
  in
  (* file-local intern ids -> this process's ids *)
  let fmap : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let deps = ref [] and ranges = ref [] and sys = ref [] and counters = ref [] in
  let pos = ref (if hdr_end < n then hdr_end + 1 else n) in
  while !pos < n do
    if s.[!pos] = '\n' then incr pos
    else begin
      let bol = !pos in
      let eol = match String.index_from_opt s bol '\n' with Some e -> e | None -> n in
      let bad () = failwith ("bad log line: " ^ String.sub s bol (eol - bol)) in
      let p = ref bol in
      (* tokens are space-delimited within [bol, eol) *)
      let next_tok () : int * int =
        if !p >= eol then bad ();
        let st = !p in
        while !p < eol && s.[!p] <> ' ' do incr p done;
        let len = !p - st in
        if !p < eol then incr p;  (* skip the delimiter *)
        (st, len)
      in
      let int_sub (st : int) (len : int) : int =
        if len = 0 then bad ();
        let neg = s.[st] = '-' in
        let i0 = if neg then st + 1 else st in
        if i0 >= st + len then bad ();
        let v = ref 0 in
        for k = i0 to st + len - 1 do
          let d = Char.code (String.unsafe_get s k) - 48 in
          if d < 0 || d > 9 then bad ();
          v := (!v * 10) + d
        done;
        if st + len - i0 > 18 then
          (* 19 digits or more may not fit in an [int]: such a number is a
             bad line, not a wrapped one, and the stdlib's reader knows *)
          match int_of_string_opt (String.sub s st len) with Some v -> v | None -> bad ()
        else if neg then - !v
        else !v
      in
      let int_tok () : int =
        let st, len = next_tok () in
        int_sub st len
      in
      let evt_tok () : evt option =
        let st, len = next_tok () in
        if len = 1 && s.[st] = '-' then None
        else begin
          let colon = ref (-1) in
          for k = st to st + len - 1 do
            if !colon < 0 && s.[k] = ':' then colon := k
          done;
          if !colon < 0 then failwith ("bad event: " ^ String.sub s st len);
          Some (int_sub st (!colon - st), int_sub (!colon + 1) (st + len - !colon - 1))
        end
      in
      let bool_tok () : bool =
        let st, len = next_tok () in
        if len = 4 && s.[st] = 't' && s.[st + 1] = 'r' && s.[st + 2] = 'u' && s.[st + 3] = 'e'
        then true
        else if
          len = 5 && s.[st] = 'f' && s.[st + 1] = 'a' && s.[st + 2] = 'l'
          && s.[st + 3] = 's' && s.[st + 4] = 'e'
        then false
        else bad ()
      in
      let loc_tok () : Loc.t =
        let st, len = next_tok () in
        let slash = ref (-1) in
        for k = st to st + len - 1 do
          if !slash < 0 && s.[k] = '/' then slash := k
        done;
        if !slash < 0 then failwith ("bad location: " ^ String.sub s st len);
        let obj = int_sub st (!slash - st) in
        let fld = int_sub (!slash + 1) (st + len - !slash - 1) in
        if fld < 0 then { Loc.obj; fld }
        else
          match Hashtbl.find_opt fmap fld with
          | Some fld -> { Loc.obj; fld }
          | None ->
            failwith
              (Printf.sprintf "bad location (field id %d not in intern table): %s" fld
                 (String.sub s st len))
      in
      let eod () = if !p <> eol then bad () in
      let tag_st, tag_len = next_tok () in
      if tag_len <> 1 then bad ();
      (match s.[tag_st] with
      | 'F' ->
        let id = int_tok () in
        let nst, nlen = next_tok () in
        eod ();
        Hashtbl.replace fmap id (Loc.fld_of_name (dec_field_sub s nst nlen))
      | 'T' ->
        let t = int_tok () in
        let c = int_tok () in
        eod ();
        counters := (t, c) :: !counters
      | 'D' ->
        let loc = loc_tok () in
        let w = evt_tok () in
        let rf = match evt_tok () with Some e -> e | None -> bad () in
        let rl_c = int_tok () in
        let dep_obs = int_tok () in
        let w_obs = int_tok () in
        eod ();
        deps := { loc; w; rf; rl_c; dep_obs; w_obs } :: !deps
      | 'R' ->
        let loc = loc_tok () in
        let rt = int_tok () in
        let lo = int_tok () in
        let hi = int_tok () in
        let w_in = evt_tok () in
        let prefix_reads = bool_tok () in
        let has_write = bool_tok () in
        let rng_obs = int_tok () in
        let lo_obs = int_tok () in
        let w_obs = int_tok () in
        eod ();
        ranges :=
          { loc; rt; lo; hi; w_in; prefix_reads; has_write; rng_obs; lo_obs; w_obs }
          :: !ranges
      | 'S' ->
        let t = int_tok () in
        let i = int_tok () in
        let nst, nlen = next_tok () in
        let vst, vlen = next_tok () in
        eod ();
        sys := (t, i, String.sub s nst nlen, value_of_string (String.sub s vst vlen)) :: !sys
      | _ -> bad ());
      pos := eol
    end
  done;
  {
    deps = List.rev !deps;
    ranges = List.rev !ranges;
    syscalls = List.rev !sys;
    counters = List.rev !counters;
    o1;
    o2;
  }
