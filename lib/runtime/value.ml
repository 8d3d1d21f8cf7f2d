(** Runtime values.

    Object identities are allocated thread-deterministically (an object id
    encodes the allocating thread and its per-thread allocation index), so
    that two runs in which each thread performs the same local computation
    allocate identical ids — a prerequisite for the paper's Assumption 1
    (thread determinism) to extend to reference values. *)

type objid = int

type t =
  | VInt of int
  | VBool of bool
  | VNull
  | VRef of objid
  | VStr of string
  | VThread of int  (** thread handle *)

let to_string = function
  | VInt n -> string_of_int n
  | VBool b -> string_of_bool b
  | VNull -> "null"
  | VRef o -> Printf.sprintf "<obj%d>" o
  | VStr s -> s
  | VThread t -> Printf.sprintf "<thread%d>" t

let pp fmt v = Fmt.string fmt (to_string v)

let equal (a : t) (b : t) = a = b

(** Truthiness used by [if]/[while]/[assert]: booleans as themselves,
    any other value is a dynamic type error (handled by the interpreter). *)
let as_bool = function VBool b -> Some b | _ -> None

(** Stable key used to index map entries: every value maps to a distinct
    string (maps keyed by ints, strings, bools or refs). *)
let map_key = function
  | VInt n -> "i" ^ string_of_int n
  | VBool b -> "b" ^ string_of_bool b
  | VNull -> "null"
  | VRef o -> "r" ^ string_of_int o
  | VStr s -> "s" ^ s
  | VThread t -> "t" ^ string_of_int t
