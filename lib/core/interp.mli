(** The reference evaluator of expressions and rule conditions over
    boxed {!Value.t}s, written as a direct tree walk of the §4 syntax.

    No executor uses it: {!Engine} evaluates compiled postfix code over
    tagged scratch stacks.  The property tests compare the two, so this
    module states the expression semantics independently of the
    compiler and the stepper (it shares only the {!Binop} table). *)

type env = (string, Value.t) Hashtbl.t
(** Per-task local bindings. *)

val eval_binop : Spec.binop -> Value.t -> Value.t -> Value.t
(** Arithmetic promotes int to float when mixed; comparisons yield
    [Bool]; [And]/[Or] require booleans.
    @raise Invalid_argument on kind errors or division by zero. *)

val eval_expr : env -> Value.t array -> Spec.expr -> Value.t
(** [eval_expr env payload e]: [Param i] reads the payload, [Var]
    reads the environment.  @raise Invalid_argument on unbound
    variables. *)

val eval_cond_strict :
  params:Value.t array ->
  fields:Value.t array ->
  earlier:bool ->
  later:bool ->
  Spec.cond ->
  bool
(** Evaluate a rule condition against a triggering event, with the
    well-order relations between the event's task and the rule's parent
    given ([CEarlier] / [CLater]; ties are neither).  Out-of-range
    [CParam]/[CField] make the condition false rather than raising, so
    variadic rules can probe. *)
