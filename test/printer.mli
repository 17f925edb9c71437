(** Pretty-printer for the P4 subset, the oracle of the parser
    round-trip tests: it emits source text that {!P4dsl.Parser.parse}
    accepts and that parses back to the same AST. *)

open P4dsl

val expr_to_string : Ast.expr -> string
val stmt_to_string : ?indent:int -> Ast.stmt -> string
val decl_to_string : Ast.decl -> string
val program_to_string : Ast.program -> string
