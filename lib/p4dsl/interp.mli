(** Evaluator for the P4 subset.

    The loader builds an {!env} per handler invocation: dotted paths
    resolve through [get_field]/[set_field] (the event's metadata),
    register method calls go through [reg_read]/[reg_write]/[reg_add],
    and effect builtins ([forward], [drop], [hash], ...) through
    [builtin]. Locals live in the environment and are width-masked on
    every assignment.

    Semantics notes (subset limitations, documented rather than
    silent): integer ops are on 62-bit values; [a ++ b] concatenates
    with the right operand taken as 32 bits ([a lsl 32 | b land
    0xffffffff]) — wide enough for the paper's [ip.src ++ ip.dst];
    division/modulo by zero raise {!Runtime_error}. *)

exception Runtime_error of string * Ast.position option

type env = {
  consts : (string, int) Hashtbl.t;
  locals : (string, local) Hashtbl.t;
  get_field : string list -> Ast.position -> int;
  set_field : string list -> int -> Ast.position -> unit;
  reg_read : target:string -> index:int -> Ast.position -> int;
  reg_write : target:string -> index:int -> value:int -> Ast.position -> unit;
  reg_add : target:string -> index:int -> delta:int -> Ast.position -> unit;
  builtin : name:string -> args:arg list -> Ast.position -> unit;
  func : name:string -> args:int list -> Ast.position -> int;
  efsm_step : target:string -> key:int -> input:int -> Ast.position -> int;
      (** [efsm.step(key, input)] / [efsm.step(key, input, dst)]:
          drive the named EFSM extern one transition for [key],
          returning the post-transition state. *)
}

and local = { mutable value : int; mask : int }

and arg = Num of int | Str of string | Dest of Ast.lvalue
    (** [Dest]: an out-parameter, e.g. the second argument of
        [hash(data, dst)]. *)

val eval_expr : env -> Ast.expr -> int
val exec_block : env -> Ast.stmt list -> unit
val assign : env -> Ast.lvalue -> int -> Ast.position -> unit
(** Store into a local or a writable field. *)
