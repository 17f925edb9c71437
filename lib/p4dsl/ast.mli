(** Abstract syntax of the embedded P4 subset.

    The subset covers what the paper's event-driven programs need —
    §2's [microburst.p4] runs nearly verbatim (see the test suite):
    register externs shared between controls, per-event [control]
    blocks with an [apply] body, bit<N> locals, arithmetic /
    comparison / concatenation expressions, extern method calls
    ([reg.read]/[reg.write]/[reg.add]), and the architecture builtins
    ([hash], [forward], [drop], [recirculate], [multicast], [mark],
    [emit_user], [notify]). *)

type position = { line : int; col : int }

type typ = Bit of int  (** [bit<N>], N <= 62 *) | Bool

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
  | Concat  (** [++], width-aware concatenation *)
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
  | Path of string list  (** [x], [meta.flowID], [hdr.ip.src] *)
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Call of string * expr list  (** value-returning builtins, e.g. [now()], [max(a,b)] *)

type lvalue = string list

type stmt =
  | Declare of { typ : typ; name : string; init : expr option; pos : position }
  | Assign of { lvalue : lvalue; expr : expr; pos : position }
  | If of { cond : expr; then_ : stmt list; else_ : stmt list; pos : position }
  | Method_call of { target : string; meth : string; args : expr list; pos : position }
      (** [reg.read(i, dst)], [reg.write(i, v)], [reg.add(i, delta)] *)
  | Builtin_call of { name : string; args : expr list; pos : position }
      (** [forward(p)], [drop()], [hash(e, dst)], [notify("...")] ... *)

type efsm_transition = {
  t_from : int;
  t_guard : expr option;  (** [None] = unconditional *)
  t_next : int;
  t_actions : (string * expr) list;  (** register-name, update expression *)
  t_pos : position;
}
(** One [on FROM when GUARD => NEXT { rN = e; ... }] clause. Guard and
    action expressions are restricted at load time to what the
    {!Pisa.Efsm} extern can execute (consts, [state], [in], [rN],
    comparisons, [&&]/[||], [+]/[-], [min]/[max]/[sat_add]/[sat_sub]). *)

(** Top-level declarations. *)
type decl =
  | Shared_register_decl of { width : int; entries : int; name : string; pos : position }
      (** [shared_register<bit<32>>(1024) name;] *)
  | Register_decl of { width : int; entries : int; name : string; pos : position }
      (** [register<bit<32>>(64) name;] — plain single-threaded state *)
  | Const_decl of { name : string; value : int; pos : position }
  | Timer_decl of { name : string; period_us : int; pos : position }
      (** [timer(100) tick;] — a periodic timer, period in microseconds *)
  | Efsm_decl of {
      name : string;
      entries : int;
      nregs : int;
      timeout_us : int option;
      transitions : efsm_transition list;
      pos : position;
    }
      (** [efsm(1024) conn { regs 2; timeout 500; on 0 when in == 1 => 1 { r0 = 1; } ... }]
          — a per-flow EFSM extern; controls drive it with
          [conn.step(key, input, dst)]. *)
  | Pattern_decl of {
      name : string;
      entries : int;
      tick_us : int option;  (** detector tick period; default 10 µs *)
      timeout_us : int option;
      expr : expr;
      pos : position;
    }
      (** [pattern(1024) flood { tick 10; timeout 200;
          match within(100, count(16, ingress_packet(1, 1))); }]
          — a complex-event pattern compiled onto the EFSM extern
          ({!Cep.Compile}). The match expression reuses the ordinary
          expression grammar: [seq(...)], [conj(...)], [disj(...)],
          [count(n, p)], [within(us, p)] and class atoms
          ([ingress_packet], [buffer_overflow], ...) optionally
          restricted to an attribute interval [cls(lo)] / [cls(lo, hi)].
          Controls drive it with [flood.step(key, attr, matched)];
          [matched] reads 1 exactly when that event completed the
          pattern for [key]. *)
  | Control_decl of { name : string; body : stmt list; pos : position }
      (** [control Name(...) { ... apply { body } }]; parameters are
          accepted and ignored (the architecture supplies the
          environment) *)

type program = decl list
