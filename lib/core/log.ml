(** The Light recording: what survives the original run.

    An access is identified by [(tid, c)] — thread id and the thread-local
    counter value [D(t)] (Section 2.3).  Two record kinds exist, each a
    row of ints; a log holds each kind's rows in one flat array, in
    emission order.  These rows are the log from {!Recorder.seal} through
    the v3/v4 text to the constraint table: no per-record value is built.

    - a dep ([obj fld w_t w_c w_obs rf_t rf_c rl_c dep_obs]): a flow
      dependence [w -> r] (Definition 3.1), compressed over the common
      write-then-many-reads-by-one-thread idiom via the [prec] map of
      Algorithm 1 (lines 7/9): [rl_c] is the counter of the *last* read of
      the write [w_t:w_c] by the thread whose first such read is
      [rf_t:rf_c], so the offline phase can materialize the implicit
      dependences.  [w_t = -1] (and [w_c = -1]) denotes a read of the
      location's initial (allocation-time) value, modeled as a flow
      dependence on a virtual initialization write that precedes every
      other write to the location.

    - a range ([obj fld rt lo hi w_t w_c prefix_reads has_write rng_obs
      lo_obs w_obs], flags 0 or 1): an O1 record (Lemma 4.3), a maximal
      sequence of consecutive accesses to one location by one thread with
      no interleaving access to that location.  Only the endpoints are
      recorded; interior dependences are re-inferred from thread-local
      order.  [w_t:w_c] feeds the reads that precede the range's first own
      write (if any).

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

(* row widths and columns; a row starts with [obj] and [fld] *)
let dep_width = 9
let range_width = 12
let d_wt = 2
let d_wc = 3
let d_wobs = 4
let d_rft = 5
let d_rfc = 6
let d_rl = 7
let d_obs = 8
let r_t = 2
let r_lo = 3
let r_hi = 4
let r_wt = 5
let r_wc = 6
let r_prefix = 7
let r_write = 8
let r_obs = 9
let r_loobs = 10
let r_wobs = 11

type t = {
  deps : int array;    (** [dep_width] ints per dep *)
  ranges : int array;  (** [range_width] ints per range *)
  syscalls : (int * int * string * Value.t) list;  (** tid, idx, name, value *)
  counters : (int * int) list;  (** final D(t) per thread *)
  o1 : bool;
  o2 : bool;
}

(** A log whose rows cannot come from one run: an event past its thread's
    final counter, or counters spread wider than the final counters vouch
    for and a default replay steps.  The offline phase raises it
    ({!Event_index.create}) before it allocates anything as large as a
    counter; {!Light.replay}, [light replay] and the explorer's
    [run_reproducer] return it as an [Error]. *)
exception Inconsistent of string

let empty = { deps = [||]; ranges = [||]; syscalls = []; counters = []; o1 = false; o2 = false }

let n_deps (l : t) : int = Array.length l.deps / dep_width
let n_ranges (l : t) : int = Array.length l.ranges / range_width

(* ------------------------------------------------------------------ *)
(* Appending rows                                                      *)
(* ------------------------------------------------------------------ *)

(** A growable buffer of rows. *)
type rows = { mutable buf : int array; mutable len : int }

(** A log being appended to, by the recorder between seals or by the
    decoder; syscalls and counters newest first. *)
type builder = {
  b_deps : rows;
  b_ranges : rows;
  mutable b_syscalls : (int * int * string * Value.t) list;
  mutable b_counters : (int * int) list;
}

let builder () : builder =
  {
    b_deps = { buf = Array.make 4096 0; len = 0 };
    b_ranges = { buf = Array.make 1024 0; len = 0 };
    b_syscalls = [];
    b_counters = [];
  }

(* the start of [k] more ints at the end of [a] *)
let[@inline] reserve (a : rows) (k : int) : int =
  let base = a.len in
  if base + k > Array.length a.buf then begin
    let bigger = Array.make (max (2 * Array.length a.buf) (base + k)) 0 in
    Array.blit a.buf 0 bigger 0 base;
    a.buf <- bigger
  end;
  a.len <- base + k;
  base

let add_dep (b : builder) obj fld w_t w_c w_obs rf_t rf_c rl_c dep_obs : unit =
  let i = reserve b.b_deps dep_width in
  let a = b.b_deps.buf in
  a.(i) <- obj;
  a.(i + 1) <- fld;
  a.(i + d_wt) <- w_t;
  a.(i + d_wc) <- w_c;
  a.(i + d_wobs) <- w_obs;
  a.(i + d_rft) <- rf_t;
  a.(i + d_rfc) <- rf_c;
  a.(i + d_rl) <- rl_c;
  a.(i + d_obs) <- dep_obs

let add_range (b : builder) obj fld rt lo hi w_t w_c prefix_reads has_write rng_obs lo_obs
    w_obs : unit =
  let i = reserve b.b_ranges range_width in
  let a = b.b_ranges.buf in
  a.(i) <- obj;
  a.(i + 1) <- fld;
  a.(i + r_t) <- rt;
  a.(i + r_lo) <- lo;
  a.(i + r_hi) <- hi;
  a.(i + r_wt) <- w_t;
  a.(i + r_wc) <- w_c;
  a.(i + r_prefix) <- prefix_reads;
  a.(i + r_write) <- has_write;
  a.(i + r_obs) <- rng_obs;
  a.(i + r_loobs) <- lo_obs;
  a.(i + r_wobs) <- w_obs

(** Forget everything appended (capacity retained). *)
let clear (b : builder) : unit =
  b.b_deps.len <- 0;
  b.b_ranges.len <- 0;
  b.b_syscalls <- [];
  b.b_counters <- []

(** What was appended since the last {!build} or {!clear}, as a log with
    exact-length row arrays; [b] is cleared. *)
let build (b : builder) ~(o1 : bool) ~(o2 : bool) : t =
  let l =
    {
      deps = Array.sub b.b_deps.buf 0 b.b_deps.len;
      ranges = Array.sub b.b_ranges.buf 0 b.b_ranges.len;
      syscalls = List.rev b.b_syscalls;
      counters = List.rev b.b_counters;
      o1;
      o2;
    }
  in
  clear b;
  l

(* ------------------------------------------------------------------ *)
(* Space accounting (long-integer units, Section 5.2)                   *)
(* ------------------------------------------------------------------ *)

(* Records are stored grouped by location (as Leap's per-location vectors
   are), so the location id is amortized and not counted per record —
   consistent with counting Leap at one long per access. *)
let space_longs (l : t) : int =
  let n = ref ((3 * n_ranges l) + (2 * List.length l.syscalls)) in
  for k = 0 to n_deps l - 1 do
    let b = k * dep_width in
    n := !n + 2 + if l.deps.(b + d_rl) > l.deps.(b + d_rfc) then 1 else 0
  done;
  !n

let num_records (l : t) : int = n_deps l + n_ranges l

(* ------------------------------------------------------------------ *)
(* Serialization (line-oriented text; used by the CLI)                  *)
(* ------------------------------------------------------------------ *)

(* The writers append to a {!sink}, a byte buffer that grows by doubling
   and that {!to_string} presizes from the row counts.  A dep or range line
   reserves its longest possible length once and is then written with
   unchecked stores: each integer is sized once and its digits are filled
   in backwards, two per division, so nothing is allocated and no
   per-character bounds check is made.  The reader ({!cursor}) decodes
   in place, D and R lines in one pass over their bytes.  The format is
   byte-identical to the seed's. *)

(** A growable output buffer; [fill] bytes of [bytes] are written. *)
type sink = { mutable bytes : Bytes.t; mutable fill : int }

let sink (n : int) : sink = { bytes = Bytes.create (max 64 n); fill = 0 }

(** The bytes written so far. *)
let contents (s : sink) : string = Bytes.sub_string s.bytes 0 s.fill

(** Forget what was written (capacity retained). *)
let clear_sink (s : sink) : unit = s.fill <- 0

let grow_sink (s : sink) (k : int) : unit =
  let b = Bytes.create (max (2 * Bytes.length s.bytes) (s.fill + k)) in
  Bytes.blit s.bytes 0 b 0 s.fill;
  s.bytes <- b

(* room for [k] more bytes *)
let[@inline] reserve_bytes (s : sink) (k : int) : unit =
  if s.fill + k > Bytes.length s.bytes then grow_sink s k

(* The [put_*] writers store at [p] of a buffer with room for them and
   return the position after what they wrote. *)

let[@inline] put_char (b : Bytes.t) (p : int) (c : char) : int =
  Bytes.unsafe_set b p c;
  p + 1

let put_str (b : Bytes.t) (p : int) (s : string) : int =
  Bytes.unsafe_blit_string s 0 b p (String.length s);
  p + String.length s

let min_int_str = string_of_int min_int

(* the longest decimal [int] *)
let int_max_len = String.length min_int_str

(* "00" "01" ... "99": the two digits of [k] at [2k] *)
let digit_pairs =
  String.init 200 (fun i ->
      let k = i / 2 in
      Char.chr (48 + if i land 1 = 0 then k / 10 else k mod 10))

(* the number of decimal digits of [n >= 0] *)
let ndigits (n : int) : int =
  if n < 10 then 1
  else if n < 100 then 2
  else if n < 1000 then 3
  else if n < 10000 then 4
  else if n < 100000 then 5
  else if n < 1000000 then 6
  else begin
    let k = ref 7 and p = ref 10000000 in
    (* [max_int] has 19 digits; stop before [p] overflows *)
    while !k < 19 && n >= !p do
      incr k;
      p := !p * 10
    done;
    !k
  end

let put_nat (b : Bytes.t) (p : int) (n : int) : int =
  let e = p + ndigits n in
  let i = ref e and n = ref n in
  while !n >= 100 do
    let q = !n / 100 in
    let r = 2 * (!n - (q * 100)) in
    i := !i - 2;
    Bytes.unsafe_set b !i (String.unsafe_get digit_pairs r);
    Bytes.unsafe_set b (!i + 1) (String.unsafe_get digit_pairs (r + 1));
    n := q
  done;
  if !n >= 10 then begin
    let r = 2 * !n in
    Bytes.unsafe_set b (!i - 2) (String.unsafe_get digit_pairs r);
    Bytes.unsafe_set b (!i - 1) (String.unsafe_get digit_pairs (r + 1))
  end
  else Bytes.unsafe_set b (!i - 1) (Char.unsafe_chr (48 + !n));
  e

let put_int (b : Bytes.t) (p : int) (n : int) : int =
  if n >= 0 then put_nat b p n
  else if n = min_int then put_str b p min_int_str
  else put_nat b (put_char b p '-') (-n)

let put_bool (b : Bytes.t) (p : int) (v : bool) : int =
  put_str b p (if v then "true" else "false")

(* a source write, [-] for the virtual initialization write *)
let put_src (b : Bytes.t) (p : int) (t : int) (c : int) : int =
  if t < 0 then put_char b p '-' else put_int b (put_char b (put_int b p t) ':') c

let add_char (s : sink) (c : char) : unit =
  reserve_bytes s 1;
  s.fill <- put_char s.bytes s.fill c

let add_string (s : sink) (str : string) : unit =
  reserve_bytes s (String.length str);
  s.fill <- put_str s.bytes s.fill str

let add_int (s : sink) (n : int) : unit =
  reserve_bytes s int_max_len;
  s.fill <- put_int s.bytes s.fill n

let add_bool (s : sink) (v : bool) : unit = add_string s (if v then "true" else "false")

(* field names may contain arbitrary map-key strings; percent-encode the
   characters that would break the line format *)
let add_enc_field (s : sink) (f : string) : unit =
  let hex = "0123456789abcdef" in
  reserve_bytes s (3 * String.length f);
  let b = s.bytes and p = ref s.fill in
  String.iter
    (fun c ->
      if c = ' ' || c = '%' || c = '\n' then begin
        p := put_char b !p '%';
        p := put_char b !p hex.[Char.code c lsr 4];
        p := put_char b !p hex.[Char.code c land 15]
      end
      else p := put_char b !p c)
    f;
  s.fill <- !p

let enc_field (f : string) : string =
  let s = sink (String.length f) in
  add_enc_field s f;
  contents s

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

(* v3 ships a field table in the header (F lines) and writes integer
   field numbers in events.  Array-element ids (negative, arithmetic
   encoding) are process-independent and appear verbatim.  A named field
   (intern id >= 0) is written as its number in the writer's [seen]
   table, which numbers the named fields 0, 1, 2, ... in the order they
   first appear in the rows, so the bytes do not depend on the process's
   intern ids; the reader maps F numbers back to intern ids on load. *)
(* a row column; the writers' loops stay inside the rows *)
let[@inline] at (a : int array) (i : int) : int = Array.unsafe_get a i

(** The named fields a writer has numbered: [num.(id)] is intern id
    [id]'s field number, or -1 before its [F] line is written. *)
type seen = { mutable num : int array; mutable next : int }

let seen () : seen = { num = Array.make 64 (-1); next = 0 }

let put_loc (seen : seen) (b : Bytes.t) (p : int) (a : int array) (r : int) : int =
  let fld = at a (r + 1) in
  put_int b (put_char b (put_int b p (at a r)) '/')
    (if fld >= 0 then Array.unsafe_get seen.num fld else fld)

let value_str (v : Value.t) =
  match v with
  | VInt n -> "i" ^ string_of_int n
  | VBool b -> "b" ^ string_of_bool b
  | VNull -> "n"
  | VRef o -> "r" ^ string_of_int o
  | VStr s -> "s" ^ enc_field s
  | VThread t -> "t" ^ string_of_int t

(* the longest D and R lines: the tag, a space and every column as a
   separated [int] *)
let dep_line_max = 2 + (dep_width * (int_max_len + 1))
let range_line_max = 2 + (range_width * (int_max_len + 1))

(** The field-table lines ([F number name]) for the named fields of
    [l]'s rows that are not yet in [seen], which numbers them. *)
let add_fields (s : sink) (seen : seen) (l : t) : unit =
  let note (a : int array) (width : int) =
    for k = 0 to (Array.length a / width) - 1 do
      let fld = a.((k * width) + 1) in
      if fld >= 0 then begin
        if fld >= Array.length seen.num then begin
          let m = Array.make (max (2 * Array.length seen.num) (fld + 1)) (-1) in
          Array.blit seen.num 0 m 0 (Array.length seen.num);
          seen.num <- m
        end;
        if Array.unsafe_get seen.num fld < 0 then begin
          seen.num.(fld) <- seen.next;
          add_string s "F ";
          add_int s seen.next;
          add_char s ' ';
          add_enc_field s (Loc.fld_name fld);
          add_char s '\n';
          seen.next <- seen.next + 1
        end
      end
    done
  in
  note l.deps dep_width;
  note l.ranges range_width

(** [l]'s records: the [F] lines of its new fields, added to [seen], then
    its T, D, R and S lines. *)
let body_add (seen : seen) (l : t) (s : sink) : unit =
  add_fields s seen l;
  List.iter
    (fun (t, c) ->
      add_string s "T ";
      add_int s t;
      add_char s ' ';
      add_int s c;
      add_char s '\n')
    l.counters;
  let a = l.deps in
  for k = 0 to n_deps l - 1 do
    let r = k * dep_width in
    reserve_bytes s dep_line_max;
    let b = s.bytes in
    let p = put_char b (put_char b s.fill 'D') ' ' in
    let p = put_char b (put_loc seen b p a r) ' ' in
    let p = put_char b (put_src b p (at a (r + d_wt)) (at a (r + d_wc))) ' ' in
    let p = put_char b (put_int b p (at a (r + d_rft))) ':' in
    let p = put_char b (put_int b p (at a (r + d_rfc))) ' ' in
    let p = put_char b (put_int b p (at a (r + d_rl))) ' ' in
    let p = put_char b (put_int b p (at a (r + d_obs))) ' ' in
    s.fill <- put_char b (put_int b p (at a (r + d_wobs))) '\n'
  done;
  let a = l.ranges in
  for k = 0 to n_ranges l - 1 do
    let r = k * range_width in
    reserve_bytes s range_line_max;
    let b = s.bytes in
    let p = put_char b (put_char b s.fill 'R') ' ' in
    let p = put_char b (put_loc seen b p a r) ' ' in
    let p = put_char b (put_int b p (at a (r + r_t))) ' ' in
    let p = put_char b (put_int b p (at a (r + r_lo))) ' ' in
    let p = put_char b (put_int b p (at a (r + r_hi))) ' ' in
    let p = put_char b (put_src b p (at a (r + r_wt)) (at a (r + r_wc))) ' ' in
    let p = put_char b (put_bool b p (at a (r + r_prefix) <> 0)) ' ' in
    let p = put_char b (put_bool b p (at a (r + r_write) <> 0)) ' ' in
    let p = put_char b (put_int b p (at a (r + r_obs))) ' ' in
    let p = put_char b (put_int b p (at a (r + r_loobs))) ' ' in
    s.fill <- put_char b (put_int b p (at a (r + r_wobs))) '\n'
  done;
  List.iter
    (fun (t, i, n, v) ->
      add_string s "S ";
      add_int s t;
      add_char s ' ';
      add_int s i;
      add_char s ' ';
      add_string s n;
      add_char s ' ';
      add_string s (value_str v);
      add_char s '\n')
    l.syscalls

(** A ["light-log <version> o1=B o2=B"] header, without its newline. *)
let add_header (s : sink) ~(version : string) ~(o1 : bool) ~(o2 : bool) : unit =
  add_string s "light-log ";
  add_string s version;
  add_string s " o1=";
  add_bool s o1;
  add_string s " o2=";
  add_bool s o2

(** v3 serialization: the field table is stored once as F lines in the
    header, events carry integer field numbers. *)
let to_string (l : t) : string =
  let s = sink (64 + (48 * List.length l.counters) + (64 * n_deps l) + (80 * n_ranges l)) in
  add_header s ~version:"v3" ~o1:l.o1 ~o2:l.o2;
  add_char s '\n';
  body_add (seen ()) l s;
  contents s

(* ------------------------------------------------------------------ *)
(* Reading: one in-place line cursor for the v3 and v4 readers          *)
(* ------------------------------------------------------------------ *)

(* A cursor walks the input one line at a time; every integer, event,
   location and value is decoded straight out of the input bytes, and the
   only substrings taken are the decoded field-name / syscall payloads
   themselves, so a dep or range line allocates nothing.

   D and R lines, nearly all of a log, are read in one pass over their
   bytes ({!dep_line}, {!range_line}): each field's digits are accumulated
   as they are scanned, its separator is checked in place, and the row is
   written straight into the builder's buffer; the line's end is found by
   its last field.  Every other line (F, T, S and v4's checkpoint lines)
   is found first and then read token by token ({!next_tok}).

   A malformed field fails with [Failure "bad log line: <line>"], including
   an integer that does not fit in an [int]; a malformed event or location
   without its separator names the token instead.  The cursor keeps the
   line number and the start of the field being read, which {!located}
   reports: a line that ends before its last field is located at its
   end. *)
type cursor = {
  cs : string;
  mutable bol : int;  (** start of the current line *)
  mutable eol : int;
      (** its end: the newline or the end of input; -1 while a D or R line
          is being read, which finds it *)
  mutable pos : int;  (** next unread byte of the line *)
  mutable ts : int;   (** start of the last token read *)
  mutable tl : int;   (** its length (token-by-token lines only) *)
  mutable lnum : int; (** the current line's number, from 1 *)
}

let cursor (s : string) : cursor = { cs = s; bol = 0; eol = 0; pos = 0; ts = 0; tl = 0; lnum = 1 }

(* whether position [p] of [s] ends a line: a newline or the end of input *)
let[@inline] at_eol (s : string) (p : int) : bool =
  p >= String.length s || String.unsafe_get s p = '\n'

(** The end of the current line, found from [pos] when not yet known. *)
let line_end (c : cursor) : int =
  if c.eol < 0 then begin
    let e = ref c.pos in
    while not (at_eol c.cs !e) do incr e done;
    c.eol <- !e
  end;
  c.eol

(** The current line. *)
let line (c : cursor) : string = String.sub c.cs c.bol (line_end c - c.bol)

let bad (c : cursor) : 'a = failwith ("bad log line: " ^ line c)
let bad_header (c : cursor) : 'a = failwith ("bad log header: " ^ line c)

(** Advance to the next non-empty line; [false] (the cursor unmoved) at
    the end of input.  The line's end is left to be found. *)
let next_line (c : cursor) : bool =
  let s = c.cs in
  let e = line_end c in
  let i = ref e in
  while !i < String.length s && String.unsafe_get s !i = '\n' do incr i done;
  !i < String.length s
  && begin
    c.lnum <- c.lnum + (!i - e);
    c.bol <- !i;
    c.pos <- !i;
    c.ts <- !i;
    c.tl <- 0;
    c.eol <- -1;
    true
  end

(** The [o1=B o2=B] flags of the first line, a ["light-log <version>"]
    header, and the tokens after them; no line, or a header of another
    shape, fails naming it. *)
let header (c : cursor) ~(version : string) : bool * bool * string list =
  if not (next_line c) then failwith "empty log";
  let flag name tok =
    if tok = name ^ "=true" then true else if tok = name ^ "=false" then false else bad_header c
  in
  match String.split_on_char ' ' (line c) with
  | "light-log" :: v :: o1 :: o2 :: rest when v = version -> (flag "o1" o1, flag "o2" o2, rest)
  | _ -> bad_header c

(** Read the next space-delimited token of the line into [ts], [tl]. *)
let next_tok (c : cursor) : unit =
  let s = c.cs and e = c.eol and p = ref c.pos in
  c.ts <- !p;
  if !p >= e then bad c;
  while !p < e && String.unsafe_get s !p <> ' ' do incr p done;
  c.tl <- !p - c.ts;
  c.pos <- (if !p < e then !p + 1 else !p)  (* past the delimiter *)

(** The line's end: no token may follow. *)
let eod (c : cursor) : unit =
  if c.pos <> c.eol then begin
    c.ts <- c.pos;
    bad c
  end

(** The first index of [ch] in the token at [st, st+len), or [-1]. *)
let find_in (c : cursor) (st : int) (len : int) (ch : char) : int =
  let s = c.cs and e = st + len and i = ref st in
  while !i < e && String.unsafe_get s !i <> ch do incr i done;
  if !i < e then !i else -1

(** The decimal integer at [st, st+len). *)
let int_sub (c : cursor) (st : int) (len : int) : int =
  let s = c.cs in
  if len <= 0 then bad c;
  let neg = s.[st] = '-' in
  let i0 = if neg then st + 1 else st in
  if i0 >= st + len then bad c;
  let v = ref 0 in
  for k = i0 to st + len - 1 do
    let d = Char.code (String.unsafe_get s k) - 48 in
    if d < 0 || d > 9 then bad c;
    v := (!v * 10) + d
  done;
  if st + len - i0 > 18 then
    (* 19 digits or more may not fit in an [int]: such a number is a
       bad line, not a wrapped one, and the stdlib's reader knows *)
    match int_of_string_opt (String.sub s st len) with Some v -> v | None -> bad c
  else if neg then - !v
  else !v

let int_tok (c : cursor) : int =
  next_tok c;
  int_sub c c.ts c.tl

let bool_sub (c : cursor) (st : int) (len : int) : bool =
  let s = c.cs in
  if len = 4 && s.[st] = 't' && s.[st + 1] = 'r' && s.[st + 2] = 'u' && s.[st + 3] = 'e'
  then true
  else if
    len = 5 && s.[st] = 'f' && s.[st + 1] = 'a' && s.[st + 2] = 'l'
    && s.[st + 3] = 's' && s.[st + 4] = 'e'
  then false
  else bad c

let bool_tok (c : cursor) : bool =
  next_tok c;
  bool_sub c c.ts c.tl

(** The current token's text. *)
let tok_text (c : cursor) : string = String.sub c.cs c.ts c.tl

(* the integer after position [m] of the current token *)
let right (c : cursor) (m : int) : int = int_sub c (m + 1) (c.ts + c.tl - m - 1)

(** The value token at [st, st+len), in {!value_str}'s form. *)
let value_sub (c : cursor) (st : int) (len : int) : Value.t =
  if len <= 0 then bad c
  else
    match c.cs.[st] with
    | 'n' when len = 1 -> VNull
    | 'i' -> VInt (int_sub c (st + 1) (len - 1))
    | 'b' -> VBool (bool_sub c (st + 1) (len - 1))
    | 'r' -> VRef (int_sub c (st + 1) (len - 1))
    | 's' -> VStr (dec_field_sub c.cs (st + 1) (len - 1))
    | 't' -> VThread (int_sub c (st + 1) (len - 1))
    | _ -> bad c

let value_tok (c : cursor) : Value.t =
  next_tok c;
  value_sub c c.ts c.tl

(** A percent-encoded field name. *)
let field_tok (c : cursor) : string =
  next_tok c;
  dec_field_sub c.cs c.ts c.tl

(** The one-character tag that opens every line, and the cursor past it
    and its space.  The end of any line but a D or R line is found here,
    for the token readers. *)
let tag (c : cursor) : char =
  let s = c.cs and p = c.pos in
  (* [next_line] leaves [pos] on a byte that is no newline *)
  let ch = String.unsafe_get s p in
  if ch = ' ' || not (at_eol s (p + 1) || String.unsafe_get s (p + 1) = ' ') then bad c;
  c.pos <- (if at_eol s (p + 1) then p + 1 else p + 2);
  if ch <> 'D' && ch <> 'R' then ignore (line_end c);
  ch

(** A file's field table read so far: [ids.(n)] is the intern id of the
    field its [F] line numbered [n], [min_int] where no line did.  Writers
    number fields densely, so the array grows to the largest number read,
    which is bounded by the input's length. *)
type fields = { mutable ids : int array }

let fields () : fields = { ids = Array.make 16 min_int }

(* record [F n name]'s field, whose intern id is [f] *)
let define_field (c : cursor) (fm : fields) (n : int) (f : int) : unit =
  if n < 0 || n > String.length c.cs then bad c;
  if n >= Array.length fm.ids then begin
    let a = Array.make (max (n + 1) (2 * Array.length fm.ids)) min_int in
    Array.blit fm.ids 0 a 0 (Array.length fm.ids);
    fm.ids <- a
  end;
  fm.ids.(n) <- f

(* ---- D and R lines, one pass over their bytes ---- *)

(* A malformed location or event field, the one that starts at [ts]: a
   missing field or one holding [sep] is a bad line, any other is
   ["<what>: <field>"]. *)
let bad_field (c : cursor) (what : string) (sep : char) : 'a =
  let s = c.cs and st = c.ts in
  let e = ref st in
  while not (at_eol s !e || String.unsafe_get s !e = ' ') do incr e done;
  if (!e = st && at_eol s st) || find_in c st (!e - st) sep >= 0 then bad c
  else failwith (what ^ ": " ^ String.sub s st (!e - st))

(* The decimal integer (an optional '-', then digits) at [pos], its digits
   accumulated as they are scanned; [pos] is left on the byte after it.
   When [head] (a location's object, an event's thread), that byte must be
   the inner separator [sep], else the field is [what]'s malformed field
   ({!bad_field}).  No digit is a bad line; so is a number past the [int]
   range: nineteen digits or more are read again by the stdlib. *)
let[@inline] scan (c : cursor) (head : bool) (what : string) (sep : char) : int =
  let s = c.cs and n = String.length c.cs and st = c.pos in
  let p = ref (if st < n && String.unsafe_get s st = '-' then st + 1 else st) in
  let d0 = !p and v = ref 0 in
  while
    !p < n
    &&
    let d = Char.code (String.unsafe_get s !p) - 48 in
    d >= 0 && d <= 9 && (v := (!v * 10) + d; true)
  do
    incr p
  done;
  c.pos <- !p;
  if head && not (!p < n && String.unsafe_get s !p = sep) then bad_field c what sep;
  if !p = d0 then bad c
  else if !p - d0 > 18 then
    match int_of_string_opt (String.sub s st (!p - st)) with Some v -> v | None -> bad c
  else if d0 > st then - !v
  else !v

let scan_int (c : cursor) : int = scan c false "" ' '

(* A location's object or an event's thread, and [pos] past its inner
   separator [sep] *)
let scan_head (c : cursor) (what : string) (sep : char) : int =
  let v = scan c true what sep in
  c.pos <- c.pos + 1;
  v

(* Past the separator [sep] at [pos], which ends the field that started
   at [ts]; a line that ends there lacks its next field, located at its
   end.  (An event's or location's inner separator fails with {!bad_field}
   instead.) *)
let[@inline] skip (c : cursor) (sep : char) : unit =
  let p = c.pos in
  if p < String.length c.cs && String.unsafe_get c.cs p = sep then c.pos <- p + 1
  else begin
    if at_eol c.cs p then c.ts <- p;
    bad c
  end

(* The integer field at [pos] and its space. *)
let int_field (c : cursor) : int =
  c.ts <- c.pos;
  let v = scan_int c in
  skip c ' ';
  v

(* The integer field that ends the line, which may carry one trailing
   space, as the token reader allows; the line's end is then known. *)
let last_field (c : cursor) : int =
  c.ts <- c.pos;
  let v = scan_int c in
  let s = c.cs and p = c.pos in
  if at_eol s p then c.eol <- p
  else if String.unsafe_get s p = ' ' && at_eol s (p + 1) then c.eol <- p + 1
  else begin
    if String.unsafe_get s p = ' ' then c.ts <- p + 1;
    bad c
  end;
  c.pos <- c.eol;
  v

(* The [true] or [false] field at [pos], as 1 or 0, and its space. *)
let flag_field (c : cursor) : int =
  let s = c.cs and p = c.pos in
  c.ts <- p;
  (* the field is the word [w] *)
  let is (w : string) =
    let k = String.length w in
    p + k <= String.length s
    && (let i = ref 0 in
        while !i < k && String.unsafe_get s (p + !i) = String.unsafe_get w !i do incr i done;
        !i = k)
    && (at_eol s (p + k) || String.unsafe_get s (p + k) = ' ')
  in
  let v = if is "true" then 1 else if is "false" then 0 else bad c in
  c.pos <- p + if v = 1 then 4 else 5;
  skip c ' ';
  v

(* The location field [obj/fld] into [a.(i)], [a.(i + 1)], and its space;
   a named field's file-local number is mapped through [fm] to this
   process's intern id. *)
let loc_field (c : cursor) (fm : fields) (a : int array) (i : int) : unit =
  let st = c.pos in
  c.ts <- st;
  let obj = scan_head c "bad location" '/' in
  let fld = scan_int c in
  let e = c.pos in
  if not (at_eol c.cs e || String.unsafe_get c.cs e = ' ') then bad c;
  Array.unsafe_set a i obj;
  Array.unsafe_set a (i + 1)
    (if fld < 0 then fld
     else if fld < Array.length fm.ids && Array.unsafe_get fm.ids fld <> min_int then
       Array.unsafe_get fm.ids fld
     else
       failwith
         (Printf.sprintf "bad location (field id %d not in intern table): %s" fld
            (String.sub c.cs st (e - st))));
  skip c ' '

(* The event field [t:c] into [a.(i)], [a.(i + 1)], and its space; when
   [init], [-] is the virtual initialization write, stored as -1 -1.
   Thread ids are never negative. *)
let evt_field (c : cursor) ~(init : bool) (a : int array) (i : int) : unit =
  let s = c.cs and st = c.pos in
  c.ts <- st;
  if st < String.length s && String.unsafe_get s st = '-'
     && (at_eol s (st + 1) || String.unsafe_get s (st + 1) = ' ')
  then begin
    if not init then bad c;
    Array.unsafe_set a i (-1);
    Array.unsafe_set a (i + 1) (-1);
    c.pos <- st + 1
  end
  else begin
    let t = scan_head c "bad event" ':' in
    if t < 0 then bad c;
    let n = scan_int c in
    if not (at_eol s c.pos || String.unsafe_get s c.pos = ' ') then bad c;
    Array.unsafe_set a i t;
    Array.unsafe_set a (i + 1) n
  end;
  skip c ' '

(* Room for one more row of [k] ints at the end of [r], for a reader at
   [pos]: a full buffer grows by what the rest of the input can hold at
   one int per four bytes (a row's ints take two bytes or more each, and
   four to six on recorded logs), so a log is read with one or two
   buffers of its kind and not by doubling.  On the 28 workloads' O1+O2
   logs, {!builder}'s doubling instead allocates 22% more words in
   {!parse} and reads about 14% fewer bytes per second (2-vCPU Xeon). *)
let reserve_row (c : cursor) (r : rows) (k : int) : int =
  let base = r.len in
  if base + k > Array.length r.buf then begin
    let bigger = Array.make (base + k + ((String.length c.cs - c.pos) / 4)) 0 in
    Array.blit r.buf 0 bigger 0 base;
    r.buf <- bigger
  end;
  r.len <- base + k;
  base

(* A D line's fields, the cursor past its tag: obj/fld w rf rl dep_obs w_obs *)
let dep_line (c : cursor) (fm : fields) (b : builder) : unit =
  let i = reserve_row c b.b_deps dep_width in
  let a = b.b_deps.buf in
  loc_field c fm a i;
  evt_field c ~init:true a (i + d_wt);
  evt_field c ~init:false a (i + d_rft);
  Array.unsafe_set a (i + d_rl) (int_field c);
  Array.unsafe_set a (i + d_obs) (int_field c);
  Array.unsafe_set a (i + d_wobs) (last_field c)

(* An R line's fields, the cursor past its tag: obj/fld rt lo hi w
   prefix_reads has_write rng_obs lo_obs w_obs *)
let range_line (c : cursor) (fm : fields) (b : builder) : unit =
  let i = reserve_row c b.b_ranges range_width in
  let a = b.b_ranges.buf in
  loc_field c fm a i;
  Array.unsafe_set a (i + r_t) (int_field c);
  Array.unsafe_set a (i + r_lo) (int_field c);
  Array.unsafe_set a (i + r_hi) (int_field c);
  evt_field c ~init:true a (i + r_wt);
  Array.unsafe_set a (i + r_prefix) (flag_field c);
  Array.unsafe_set a (i + r_write) (flag_field c);
  Array.unsafe_set a (i + r_obs) (int_field c);
  Array.unsafe_set a (i + r_loobs) (int_field c);
  Array.unsafe_set a (i + r_wobs) (last_field c)

(** A builder for a reader: its rows are sized from the input when the
    first of their kind is read ({!reserve_row}). *)
let reader () : builder =
  { b_deps = { buf = [||]; len = 0 }; b_ranges = { buf = [||]; len = 0 }; b_syscalls = [];
    b_counters = [] }

(** Decode the rest of an F, T, D, R or S line, the cursor standing after
    its [tag]: an F line extends [fmap], the others are appended to [b]
    (a D or R line without allocating). *)
let record_line (c : cursor) ~(fmap : fields) (b : builder) (tag : char) : unit =
  match tag with
  | 'D' -> dep_line c fmap b
  | 'R' -> range_line c fmap b
  | 'F' ->
    let id = int_tok c in
    let name = field_tok c in
    eod c;
    define_field c fmap id (Loc.fld_of_name name)
  | 'T' ->
    let t = int_tok c in
    let n = int_tok c in
    eod c;
    b.b_counters <- (t, n) :: b.b_counters
  | 'S' ->
    let t = int_tok c in
    let i = int_tok c in
    next_tok c;
    let name = tok_text c in
    let v = value_tok c in
    eod c;
    b.b_syscalls <- (t, i, name, v) :: b.b_syscalls
  | _ -> bad c

(** Where a read failed: the line's number (from 1), the byte offset of
    the token being decoded, and the message. *)
type error = { line : int; byte : int; msg : string }

(** [read] run over a fresh cursor on [s], a [Failure] it raises located
    at the cursor. *)
let located (s : string) (read : cursor -> 'a) : ('a, error) result =
  let c = cursor s in
  match read c with
  | v -> Ok v
  | exception Failure msg -> Error { line = c.lnum; byte = c.ts; msg }

(** Reads a v3 log (field-table header, integer field numbers); locations
    come back keyed by this process's intern ids.  The parser is a single
    in-place scan with a {!cursor} that appends rows to one {!builder}.  A
    malformed input is an [Error] naming the header or the line. *)
let parse (s : string) : (t, error) result =
  located s (fun c ->
      let o1, o2 =
        match header c ~version:"v3" with o1, o2, [] -> (o1, o2) | _ -> bad_header c
      in
      let fmap = fields () and b = reader () in
      while next_line c do
        record_line c ~fmap b (tag c)
      done;
      build b ~o1 ~o2)

(** {!parse}, failing with [Failure] and the error's message. *)
let of_string (s : string) : t =
  match parse s with Ok l -> l | Error e -> failwith e.msg
