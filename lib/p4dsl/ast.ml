type position = { line : int; col : int }
type typ = Bit of int | Bool

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | BitAnd
  | BitOr
  | BitXor
  | Shl
  | Shr
  | Concat
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or

type unop = Not | BitNot | Neg

type expr =
  | Int of int
  | Bool_lit of bool
  | String_lit of string
  | Path of string list
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Call of string * expr list

type lvalue = string list

type stmt =
  | Declare of { typ : typ; name : string; init : expr option; pos : position }
  | Assign of { lvalue : lvalue; expr : expr; pos : position }
  | If of { cond : expr; then_ : stmt list; else_ : stmt list; pos : position }
  | Method_call of { target : string; meth : string; args : expr list; pos : position }
  | Builtin_call of { name : string; args : expr list; pos : position }

type efsm_transition = {
  t_from : int;
  t_guard : expr option;
  t_next : int;
  t_actions : (string * expr) list;
  t_pos : position;
}

type decl =
  | Shared_register_decl of { width : int; entries : int; name : string; pos : position }
  | Register_decl of { width : int; entries : int; name : string; pos : position }
  | Const_decl of { name : string; value : int; pos : position }
  | Timer_decl of { name : string; period_us : int; pos : position }
  | Efsm_decl of {
      name : string;
      entries : int;
      nregs : int;
      timeout_us : int option;
      transitions : efsm_transition list;
      pos : position;
    }
  | Pattern_decl of {
      name : string;
      entries : int;
      tick_us : int option;
      timeout_us : int option;
      expr : expr;
      pos : position;
    }
  | Control_decl of { name : string; body : stmt list; pos : position }

type program = decl list
