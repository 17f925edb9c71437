open P4dsl.Ast

let typ_to_string = function Bit n -> Printf.sprintf "bit<%d>" n | Bool -> "bool"

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | BitAnd -> "&"
  | BitOr -> "|"
  | BitXor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"
  | Concat -> "++"
  | Eq -> "=="
  | Neq -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "&&"
  | Or -> "||"

(* Mirror of Parser.binop_of_token's precedence table. *)
let prec = function
  | Or -> 1
  | And -> 2
  | Eq | Neq -> 3
  | Lt | Le | Gt | Ge -> 4
  | BitOr -> 5
  | BitXor -> 6
  | BitAnd -> 7
  | Shl | Shr | Concat -> 8
  | Add | Sub -> 9
  | Mul | Div | Mod -> 10

let rec expr_prec ctx_prec e =
  match e with
  | Int n -> string_of_int n
  | Bool_lit b -> if b then "true" else "false"
  | String_lit s -> Printf.sprintf "%S" s
  | Path p -> String.concat "." p
  | Unop (op, e) ->
      let s = match op with Not -> "!" | BitNot -> "~" | Neg -> "-" in
      s ^ expr_prec 11 e
  | Binop (op, a, b) ->
      let p = prec op in
      (* The parser is left-associative at each level (rhs parsed at
         prec+1), so parenthesise a right child of equal precedence. *)
      let s =
        Printf.sprintf "%s %s %s" (expr_prec p a) (binop_str op) (expr_prec (p + 1) b)
      in
      if p < ctx_prec then "(" ^ s ^ ")" else s
  | Call (f, args) ->
      Printf.sprintf "%s(%s)" f (String.concat ", " (List.map (expr_prec 0) args))

let expr_to_string e = expr_prec 0 e

let pad n = String.make n ' '

let rec stmt_to_string ?(indent = 0) stmt =
  let ind = pad indent in
  match stmt with
  | Declare { typ; name; init; _ } -> (
      match init with
      | None -> Printf.sprintf "%s%s %s;" ind (typ_to_string typ) name
      | Some e -> Printf.sprintf "%s%s %s = %s;" ind (typ_to_string typ) name (expr_to_string e))
  | Assign { lvalue; expr; _ } ->
      Printf.sprintf "%s%s = %s;" ind (String.concat "." lvalue) (expr_to_string expr)
  | If { cond; then_; else_; _ } ->
      let block stmts =
        if stmts = [] then "{ }"
        else
          Printf.sprintf "{\n%s\n%s}"
            (String.concat "\n" (List.map (stmt_to_string ~indent:(indent + 2)) stmts))
            ind
      in
      let base = Printf.sprintf "%sif (%s) %s" ind (expr_to_string cond) (block then_) in
      if else_ = [] then base else Printf.sprintf "%s else %s" base (block else_)
  | Method_call { target; meth; args; _ } ->
      Printf.sprintf "%s%s.%s(%s);" ind target meth
        (String.concat ", " (List.map expr_to_string args))
  | Builtin_call { name; args; _ } ->
      Printf.sprintf "%s%s(%s);" ind name (String.concat ", " (List.map expr_to_string args))

let decl_to_string = function
  | Shared_register_decl { width; entries; name; _ } ->
      Printf.sprintf "shared_register<bit<%d>>(%d) %s;" width entries name
  | Register_decl { width; entries; name; _ } ->
      Printf.sprintf "register<bit<%d>>(%d) %s;" width entries name
  | Const_decl { name; value; _ } -> Printf.sprintf "const %s = %d;" name value
  | Timer_decl { name; period_us; _ } -> Printf.sprintf "timer(%d) %s;" period_us name
  | Efsm_decl { name; entries; nregs; timeout_us; transitions; _ } ->
      let header =
        Printf.sprintf "regs %d;" nregs
        :: (match timeout_us with None -> [] | Some t -> [ Printf.sprintf "timeout %d;" t ])
      in
      let transition tr =
        let guard =
          match tr.t_guard with
          | None -> ""
          | Some g -> Printf.sprintf " when %s" (expr_to_string g)
        in
        let actions =
          String.concat " "
            (List.map (fun (dst, e) -> Printf.sprintf "%s = %s;" dst (expr_to_string e)) tr.t_actions)
        in
        Printf.sprintf "on %d%s => %d { %s}" tr.t_from guard tr.t_next
          (if actions = "" then "" else actions ^ " ")
      in
      Printf.sprintf "efsm(%d) %s {\n%s\n}" entries name
        (String.concat "\n" (List.map (fun l -> "  " ^ l) (header @ List.map transition transitions)))
  | Pattern_decl { name; entries; tick_us; timeout_us; expr; _ } ->
      let header =
        (match tick_us with None -> [] | Some t -> [ Printf.sprintf "tick %d;" t ])
        @ (match timeout_us with None -> [] | Some t -> [ Printf.sprintf "timeout %d;" t ])
        @ [ Printf.sprintf "match %s;" (expr_to_string expr) ]
      in
      Printf.sprintf "pattern(%d) %s {\n%s\n}" entries name
        (String.concat "\n" (List.map (fun l -> "  " ^ l) header))
  | Control_decl { name; body; _ } ->
      Printf.sprintf "control %s() {\n  apply {\n%s\n  }\n}" name
        (String.concat "\n" (List.map (stmt_to_string ~indent:4) body))

let program_to_string program = String.concat "\n\n" (List.map decl_to_string program) ^ "\n"
