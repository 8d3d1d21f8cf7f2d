(** Register bytecode for [lang]: the flat instruction array the VM
    dispatches over ({!Runtime.Vm}), produced by {!Compile.lower} from the
    slot-resolved form ({!Resolve}).

    Design at a glance:
    - {b Registers.}  A frame is a single [Value.t array].  Registers
      [0 .. nslots-1] are exactly the resolved frame slots of PR 3 (so
      slot-indexed machinery — argument binding, snapshot slot vectors,
      the v4 checkpoint codec — carries over unchanged); registers
      [nslots ..] are compiler temporaries that are dead at every
      statement boundary and therefore never serialized.
    - {b Operands.}  An operand is one [int]: [>= 0] names a register,
      [< 0] indexes the constant pool as [-1 - k].  Constants are
      deduplicated and pre-boxed by the VM at load, so the dispatch loop
      never allocates for literals.
    - {b Site-id baking.}  Every heap-access instruction carries its
      static site id as an immediate, so the record decision is a single
      array-indexed branch on that immediate ([shared.(sid)]) with no
      statement record in sight.
    - {b Statement grain.}  One scheduler transition is one source
      statement: a run of instructions from one boundary pc
      ([starts.(pc)]) to the next.  Evaluation order inside a statement
      replicates the tree interpreter exactly (including OCaml's
      right-to-left argument order where [Interp.eval] relies on it), so
      crash order, crash messages and the D(t) counter stream are
      preserved instruction for instruction.
    - {b Snapshot-PC invariant.}  Every pc a thread can rest at between
      transitions is a boundary, and every boundary pc has a
      compile-time continuation template ([templates]): the chain of
      statement sequences (each named by its head statement's sid) and
      pending sync exits still to run, the tree walker's continuation,
      with the lock object ids abstracted; the per-frame sync stack
      fills them back in.  This is what lets the VM write and restore
      epoch checkpoints ([Vm.snapshot]) by pc. *)

(** Constant-pool entry.  The VM boxes these into [Value.t] at load. *)
type const = KInt of int | KBool of bool | KNull | KStr of string

type operand = int
(** [>= 0]: register index; [< 0]: constant-pool index [-1 - k]. *)

(** Non-short-circuit binary operators ([Eq]/[Ne] are separate because
    their operand read order differs — see {!Compile}). *)
type binkind = BAdd | BSub | BMul | BDiv | BMod | BLt | BLe | BGt | BGe

type instr =
  | IHalt
      (** pc 0 only: implicit return.  Pops the frame, stores [VNull] to
          the caller's return slot.  A frame resting at pc 0 is exactly a
          [CDone] continuation. *)
  | INop  (** [nop] / [yield]: a real (empty) transition *)
  | IMove of int * operand  (** dst := src (unbound-checked) *)
  | IBin of binkind * int * operand * operand
      (** dst := a op b; reads [a] then [b] (the tree interpreter's
          left-to-right [let ... and ...] order) *)
  | IEq of int * operand * operand
      (** dst := a == b; reads [b] {e first} (OCaml right-to-left
          application order in [Value.equal (eval a) (eval b)]) *)
  | INe of int * operand * operand  (** dst := a != b; reads [b] first *)
  | INot of int * operand
  | INeg of int * operand
  | IBoolJmp of int * operand * int * bool
      (** [&&]/[||] short circuit: [(dst, a, target, is_and)].  For
          [&&]: a=false stores false and jumps; a=true falls through to
          the right-operand code; non-bool crashes.  [||] dually. *)
  | IBoolMove of int * operand * bool
      (** dst := src checked to be a bool ([is_and] picks the crash
          message); the join point of a short-circuit chain *)
  | IJmp of int
  | IJmpIfNot of operand * int
      (** if/while condition: crash on non-bool, fire [on_branch], jump
          to target when false *)
  | ICheckRef of operand
      (** force the null/type check of an already-evaluated reference at
          its source position (before a later operand's code runs) *)
  | ICheckIdx of operand * operand
      (** (arr, idx): the full array-store pre-check (null, type,
          bounds) at its source position *)
  | ILoad of int * operand * int * int  (** (dst, obj, fld, sid) *)
  | IStore of operand * int * operand * int  (** (obj, fld, v, sid) *)
  | ILoadIdx of int * operand * operand * int  (** (dst, arr, idx, sid) *)
  | IStoreIdx of operand * operand * operand * int  (** (arr, idx, v, sid) *)
  | IGLoad of int * int * int  (** (dst, global fld, sid) *)
  | IGStore of int * operand * int  (** (global fld, v, sid) *)
  | INew of int * string * int array  (** (dst, class, field ids) *)
  | INewArray of int * operand
  | INewMap of int
  | IMapGet of int * operand * operand * int
      (** (dst, map, key, sid); reads [key] then [map] (application
          order in [Loc.mapkey (eval_ref m) (eval k)]) *)
  | IMapPut of operand * operand * operand * int
      (** (map, key, v, sid); reads key, map, then v *)
  | IMapHas of int * operand * operand * int  (** reads key then map *)
  | ICall of int * int * operand array
      (** (ret register or -1, function index, args).  Saves the
          jump-threaded next-statement pc as the caller's resume point,
          so saved pcs are always boundaries. *)
  | ICallUndef of string  (** call to an unresolved callee: crash *)
  | IRet of operand
  | ISpawn of int * int * string * operand array
      (** (handle dst, function index, name, args); the index check
          happens {e after} argument evaluation, unlike [ICall] *)
  | IJoin of operand * int  (** (handle, sid); blocks by pc rewind *)
  | IEnterSync of operand * int
      (** (m, sid): acquire and push [m] on the frame's sync stack, or
          block (rewinding pc to the statement entry) *)
  | IExitSync of int
      (** (sid): its own boundary — the [CUnlock] transition.  Pops the
          sync stack and releases. *)
  | ILock of operand * int
  | IUnlock of operand * int
  | IWait of operand * int
  | INotify of operand * int * bool  (** (m, sid, notify-all?) *)
  | IAssert of operand
  | IPrint of operand
  | ISyscall of int * string * operand array
  | IOpaque of int * string * operand array

(** Continuation-template entry: [Vm.scont] with the lock object id
    of an [SUnlock] left abstract (it lives in the frame's sync stack —
    innermost first, the same order the template lists its [TUnlock]s). *)
type template_entry = TSeq of int | TUnlock of int

type fninfo = {
  fi_name : string;
  fi_entry : int;  (** entry pc; [0] for an empty body *)
  fi_nparams : int;
  fi_nslots : int;  (** source slots = [Resolve.rf_frame] *)
  fi_nregs : int;  (** slots + temporaries *)
  fi_reg_names : string array;
      (** [fi_nregs] names for the "unbound local variable" diagnostic *)
}

type program = {
  bc_code : instr array;
  bc_consts : const array;
  bc_fns : fninfo array;
      (** [Resolve.cp_fns] order; the last entry is [$main] *)
  bc_starts : bool array;  (** per pc: statement boundary *)
  bc_stmt_start : int array;
      (** per pc: boundary pc of the statement the instruction belongs
          to (identity on boundaries) — crash/snapshot attribution for
          mid-statement pcs *)
  bc_threaded : int array;
      (** per pc: pc with [IJmp] chains resolved — the "next statement"
          target used for saved call pcs and early advances *)
  bc_sid_at : int array;  (** per pc: owning statement sid, [-1] none *)
  bc_line_at : int array;  (** per pc: source line, [0] none *)
  bc_templates : template_entry list array;
      (** per boundary pc: the continuation template *)
  bc_pc_of_sid : int array;  (** sid -> statement entry pc, [-1] *)
  bc_exit_pc_of_sid : int array;
      (** sync-statement sid -> its [IExitSync] pc, [-1] *)
  bc_fn_of_pc : int array;  (** pc -> [bc_fns] index *)
  bc_stmt_at : Resolve.rstmt option array;
      (** boundary pc -> the resolved statement heading there (for
          enabledness peeking and pre-event computation) *)
  bc_src : Resolve.compiled;
}

let main_index (p : program) : int = Array.length p.bc_fns - 1

(* ------------------------------------------------------------------ *)
(* Disassembler                                                        *)
(* ------------------------------------------------------------------ *)

let const_str = function
  | KInt n -> string_of_int n
  | KBool b -> string_of_bool b
  | KNull -> "null"
  | KStr s -> Printf.sprintf "%S" s

let operand_str (p : program) (o : operand) : string =
  if o >= 0 then Printf.sprintf "r%d" o
  else const_str p.bc_consts.(-1 - o)

let bin_str = function
  | BAdd -> "add" | BSub -> "sub" | BMul -> "mul" | BDiv -> "div"
  | BMod -> "mod" | BLt -> "lt" | BLe -> "le" | BGt -> "gt" | BGe -> "ge"

let args_str p (args : operand array) =
  String.concat ", " (Array.to_list (Array.map (operand_str p) args))

let instr_str (p : program) (i : instr) : string =
  let op = operand_str p in
  let r d = Printf.sprintf "r%d" d in
  match i with
  | IHalt -> "halt"
  | INop -> "nop"
  | IMove (d, s) -> Printf.sprintf "move %s, %s" (r d) (op s)
  | IBin (k, d, a, b) -> Printf.sprintf "%s %s, %s, %s" (bin_str k) (r d) (op a) (op b)
  | IEq (d, a, b) -> Printf.sprintf "eq %s, %s, %s" (r d) (op a) (op b)
  | INe (d, a, b) -> Printf.sprintf "ne %s, %s, %s" (r d) (op a) (op b)
  | INot (d, a) -> Printf.sprintf "not %s, %s" (r d) (op a)
  | INeg (d, a) -> Printf.sprintf "neg %s, %s" (r d) (op a)
  | IBoolJmp (d, a, t, is_and) ->
    Printf.sprintf "%s %s, %s -> %d" (if is_and then "and.sc" else "or.sc") (r d) (op a) t
  | IBoolMove (d, a, is_and) ->
    Printf.sprintf "bool.move %s, %s (%s)" (r d) (op a) (if is_and then "&&" else "||")
  | IJmp t -> Printf.sprintf "jmp %d" t
  | IJmpIfNot (c, t) -> Printf.sprintf "jmp.ifnot %s -> %d" (op c) t
  | ICheckRef a -> Printf.sprintf "check.ref %s" (op a)
  | ICheckIdx (a, i) -> Printf.sprintf "check.idx %s[%s]" (op a) (op i)
  | ILoad (d, o, f, sid) -> Printf.sprintf "load %s, %s.%d  !%d" (r d) (op o) f sid
  | IStore (o, f, v, sid) -> Printf.sprintf "store %s.%d, %s  !%d" (op o) f (op v) sid
  | ILoadIdx (d, a, i, sid) -> Printf.sprintf "load.idx %s, %s[%s]  !%d" (r d) (op a) (op i) sid
  | IStoreIdx (a, i, v, sid) ->
    Printf.sprintf "store.idx %s[%s], %s  !%d" (op a) (op i) (op v) sid
  | IGLoad (d, g, sid) -> Printf.sprintf "gload %s, g%d  !%d" (r d) g sid
  | IGStore (g, v, sid) -> Printf.sprintf "gstore g%d, %s  !%d" g (op v) sid
  | INew (d, cls, fids) -> Printf.sprintf "new %s, %s/%d" (r d) cls (Array.length fids)
  | INewArray (d, n) -> Printf.sprintf "new.array %s, %s" (r d) (op n)
  | INewMap d -> Printf.sprintf "new.map %s" (r d)
  | IMapGet (d, m, k, sid) -> Printf.sprintf "map.get %s, %s[%s]  !%d" (r d) (op m) (op k) sid
  | IMapPut (m, k, v, sid) ->
    Printf.sprintf "map.put %s[%s], %s  !%d" (op m) (op k) (op v) sid
  | IMapHas (d, m, k, sid) -> Printf.sprintf "map.has %s, %s[%s]  !%d" (r d) (op m) (op k) sid
  | ICall (ret, fidx, args) ->
    Printf.sprintf "call %s, f%d (%s)" (if ret < 0 then "_" else r ret) fidx (args_str p args)
  | ICallUndef f -> Printf.sprintf "call.undef %s" f
  | IRet v -> Printf.sprintf "ret %s" (op v)
  | ISpawn (d, fidx, f, args) ->
    Printf.sprintf "spawn %s, f%d:%s (%s)" (r d) fidx f (args_str p args)
  | IJoin (h, sid) -> Printf.sprintf "join %s  !%d" (op h) sid
  | IEnterSync (m, sid) -> Printf.sprintf "sync.enter %s  !%d" (op m) sid
  | IExitSync sid -> Printf.sprintf "sync.exit  !%d" sid
  | ILock (m, sid) -> Printf.sprintf "lock %s  !%d" (op m) sid
  | IUnlock (m, sid) -> Printf.sprintf "unlock %s  !%d" (op m) sid
  | IWait (m, sid) -> Printf.sprintf "wait %s  !%d" (op m) sid
  | INotify (m, sid, all) ->
    Printf.sprintf "%s %s  !%d" (if all then "notify.all" else "notify") (op m) sid
  | IAssert c -> Printf.sprintf "assert %s" (op c)
  | IPrint v -> Printf.sprintf "print %s" (op v)
  | ISyscall (d, n, args) -> Printf.sprintf "syscall %s, @%s (%s)" (r d) n (args_str p args)
  | IOpaque (d, n, args) -> Printf.sprintf "opaque %s, #%s (%s)" (r d) n (args_str p args)

(** Render the whole program, one instruction per line:
    [pc  [*] instr  ; fn=NAME sid=N line=L], where [*] marks statement
    boundaries.  [annot] can append e.g. source text per sid. *)
let disassemble ?(annot : (int -> string option) option) (p : program) : string =
  let buf = Buffer.create 4096 in
  let n = Array.length p.bc_code in
  Array.iteri
    (fun fi (f : fninfo) ->
      Buffer.add_string buf
        (Printf.sprintf "; f%d %s  entry=%d params=%d slots=%d regs=%d\n" fi f.fi_name
           f.fi_entry f.fi_nparams f.fi_nslots f.fi_nregs))
    p.bc_fns;
  for pc = 0 to n - 1 do
    let sid = p.bc_sid_at.(pc) in
    let line = p.bc_line_at.(pc) in
    let star = if p.bc_starts.(pc) then "*" else " " in
    let extra =
      match annot with
      | Some f when p.bc_starts.(pc) && sid >= 0 -> (
        match f sid with Some s -> "  ; " ^ s | None -> "")
      | _ -> ""
    in
    Buffer.add_string buf
      (Printf.sprintf "%4d %s %-40s ; sid=%d line=%d%s\n" pc star
         (instr_str p p.bc_code.(pc)) sid line extra)
  done;
  Buffer.contents buf
