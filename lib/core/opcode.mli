(** Spec → flat op-array compiler for the stepper ({!Engine}).

    Task-set bodies compile into one shared instruction array indexed
    by pc; every instruction embeds the pc of its continuation, so
    executing a task is a `match code.(pc)` dispatch with no list
    traversal.  Expressions and rule conditions become postfix bytecode
    evaluated over preallocated scratch stacks.  Variables, handles,
    state arrays, event labels and prim names are all interned to dense
    integer ids so the engine's hot state can live in flat int arrays.

    The compiler changes representation only: evaluation semantics
    (numeric promotion, division checks, error strings, out-of-range
    clause probes) live in {!Engine} and {!Binop}; the reference
    evaluator {!Interp} states them independently for the property
    tests.  Every pc keeps the {!Spec.op} it was compiled from, so
    observers can report execution in source terms. *)

type eop =
  | E_int of int
  | E_float of float
  | E_bool of bool
  | E_param of int  (** task payload field *)
  | E_reg of int * string  (** register slot; name kept for the unbound error *)
  | E_binop of Spec.binop
  | E_not
  | E_neg
  | E_cparam of int  (** rule-instance param (out-of-range aborts the clause) *)
  | E_cfield of int  (** event field (out-of-range aborts the clause) *)
  | E_earlier
  | E_later
  | E_overlap of int * int

type inst =
  | I_let of { dst : int; e : eop array; next : int }
  | I_load of { dst : int; arr : int; addr : eop array; next : int }
  | I_store of { arr : int; addr : eop array; v : eop array; next : int }
  | I_push of { set : int; args : eop array array; next : int }
  | I_push_iter of {
      set : int;
      lo : eop array;
      hi : eop array;
      ivar : int;
      args : eop array array;
      next : int;
    }
  | I_alloc of { site : int; handle : int; rule : int; args : eop array array; next : int }
  | I_await of { dst : int; handle : int; handle_name : string; next : int }
  | I_emit of { label : int; args : eop array array; next : int }
  | I_if of { c : eop array; then_pc : int; else_pc : int }
  | I_abort
  | I_retry
  | I_prim of { dsts : int array; prim : int; name : string; args : eop array array; next : int }
  | I_commit  (** empty continuation: the task commits *)

type cclause = {
  c_kind : int;  (** 0 = activated(set), 1 = reached(set,label), 2 = min_changed *)
  c_set : int;  (** source task-set slot, -1 for min_changed *)
  c_label : int;  (** label id for reached, -1 otherwise *)
  c_cond : eop array;
  c_return : bool option;  (** None = Decrement *)
  c_keys : (int * int) array;
      (** [(field, param)] pairs from {!cond_keys}; empty when unkeyed *)
  c_total : bool;  (** {!cond_total} of the condition *)
}

type crule = {
  r_name : string;
  r_nparams : int;
  r_clauses : cclause array;
  r_otherwise : bool;
  r_min_waiting : bool;  (** otherwise scope is [Min_waiting] *)
  r_counted : bool;
  r_has_decrement : bool;
  r_keyed : bool;
      (** not counted, and every activated/reached clause is total with a
          non-empty key: instances can be dispatched by key lookup *)
}

type program = {
  code : inst array;
  entry : int array;  (** per task-set slot *)
  n_sets : int;
  set_names : string array;
  set_for_each : bool array;
  set_arity : int array;
  max_arity : int;
  max_regs : int;
  max_handles : int;
  n_sites : int;  (** static Alloc sites across all sets *)
  rules : crule array;
  labels : string array;
  array_names : string array;  (** state arrays referenced by Load/Store *)
  prim_names : string array;
  max_stack : int;  (** expression scratch-stack depth *)
  max_push_args : int;
  max_rule_params : int;  (** widest Alloc argument list *)
  max_event_fields : int;  (** widest event field vector (payloads + emits) *)
  has_counted : bool;
  has_min_changed : bool;  (** some clause listens to [On_min_changed] *)
  has_min_waiting : bool;  (** some rule's otherwise scope is [Min_waiting] *)
}

val cond_keys : Spec.cond -> (int * int) list option
(** A disjunction of [CField f = CParam p] equalities, as [(f, p)]
    pairs, one of which holds whenever the condition is true and every
    field and param is an int.  [Eq] of a field and a param yields that
    pair, [And] the key of its first keyed side, [Or] the union when
    both sides are keyed; anything else is unkeyed ([None]). *)

val cond_total : Spec.cond -> bool
(** The condition cannot raise when every field and param is
    int-tagged: it is built only from comparisons of fields and params,
    [And]/[Or]/[Not], [CEarlier]/[CLater]/[COverlap] and boolean
    [CConst]s.  Arithmetic, a constant comparand, or a bare field or
    param in boolean position make it non-total. *)

val compile : Spec.t -> program
(** Compile a validated spec.  @raise Invalid_argument on an Alloc of a
    rule the spec does not define (also caught by {!Spec.validate}). *)
