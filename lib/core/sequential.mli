(** Sequential execution (Definition 4.3): iteratively apply the
    minimum active task to Σ until no active task remains.

    This is the semantics oracle — a parallelized execution is correct
    exactly when its result is equivalent to this one (§4.1).  Rules
    degenerate gracefully: the running task is always minimal, so each
    rendezvous resolves via its [otherwise] path (or immediately for
    counted rules whose dependences have all fired). *)

type report = {
  tasks_run : int;
  stats : Engine.stats;
  prim_counts : (string * int) list;
}

val run :
  ?initial:(string * Value.t list) list ->
  ?max_tasks:int ->
  Spec.t ->
  Spec.bindings ->
  State.t ->
  report
(** [run ~initial spec bindings state] pushes the initial tasks (host
    injection), then executes to quiescence, mutating [state].
    [max_tasks] (default 10 million) guards against diverging
    specifications.
    @raise Semantics.Deadlock when a rendezvous cannot resolve.
    @raise Semantics.Step_limit_exceeded when [max_tasks] is exceeded
    (the payload is [max_tasks]). *)
