(** Shared execution machinery for specifications: task instances and
    their well-order indices, task queues, rule instances (lanes),
    event broadcast, and minimum-task tracking.

    Every software substrate drives this engine through
    {!Semantics}, each with its own scheduling policy (the
    {!Sequential} oracle, the aggressive {!Runtime}, the multicore
    runtime), so they cannot drift apart.  The hardware model does not
    step this engine: [Agp_hw.Engine_compiled] executes the same §4
    semantics from compiled op arrays, shares only {!stats}, and is
    held to the oracle by the conformance matrix. *)

type task = private {
  tid : int;  (** unique per activation (a retry gets a fresh tid) *)
  set_slot : int;
  index : Index.t;
  payload : Value.t array;
  env : Interp.env;
  mutable cont : Spec.op list;  (** remaining operations *)
  mutable status : status;
  mutable awaiting : (string * rule_instance) option;
      (** destination variable and rule blocked on *)
  mutable broadcast_committed : bool;
      (** the task fired its commit broadcast (first [Emit]): it is
          retired for well-order purposes while its tail pipelines out *)
}

and status =
  | Pending  (** in a task queue *)
  | Running
  | Waiting  (** stalled at a rendezvous *)
  | Committed
  | Squashed  (** aborted or retried *)

and rule_instance = private {
  rule : Spec.rule;
  params : Value.t array;
  parent : task;
  mutable counter : int;  (** meaningful only for counted rules *)
  mutable resolved : bool option;
}

type outcome =
  | Committed_task
  | Aborted_task
  | Retried_task

type step_result =
  | Stepped  (** one operation executed *)
  | Blocked  (** task is now waiting at a rendezvous *)
  | Finished of outcome

type stats = {
  mutable activated : int;
  mutable committed : int;
  mutable aborted : int;
  mutable retried : int;
  mutable events_fired : int;
  mutable otherwise_fired : int;
  mutable clause_resolutions : int;
  mutable ops_executed : int;
  mutable rule_allocs : int;
}

type t

val create : Spec.t -> Spec.bindings -> State.t -> t
(** @raise Invalid_argument when the specification fails
    {!Spec.validate}. *)

val stats : t -> stats

val push_initial : t -> string -> Value.t list -> unit
(** Host-side activation into a task set (index stamped as a normal
    push from the root index). *)

val pop_any : t -> task option
(** Dequeue round-robin across sets. *)

val pop_min : t -> task option
(** Dequeue the globally minimum pending task (per-set queue heads are
    per-set minima because for-each stamps are monotone). *)

val min_pending_head : t -> task option
(** The smallest-index task among the queue heads, without popping. *)

val waiting_tasks : t -> task list
(** Tasks stalled at rendezvous. *)

val uncommitted_remaining : t -> bool
(** True while any task is pending, running or waiting. *)

val step : t -> task -> step_result
(** Execute exactly one operation of a running task.  All events,
    pushes and rule transitions implied by the operation happen
    inside. *)

val run_to_completion : t -> task -> outcome
(** Step a task until it finishes, resolving its own rendezvous via
    the minimum rule (used by the sequential oracle, where the running
    task is always minimal). *)

val resolve_pending : t -> unit
(** Re-evaluate minimum-task conditions: fire [On_min_changed] events
    when the minimum uncommitted task changes, and fire the
    [otherwise] clause of rules whose waiting parent is minimal in the
    rule's scope.  Call after any commit, squash or block. *)

val resume_ready : t -> task list
(** Waiting tasks whose rendezvous has resolved; they are returned in
    index order, marked running, and their await binding is applied. *)

val prim_counts : t -> (string * int) list
(** Invocations per [Prim] kernel so far. *)

val deadlocked : t -> bool
(** No task is running or resumable, queues are empty, but waiting
    tasks remain — indicates a specification whose rules lack a viable
    exit path. *)
