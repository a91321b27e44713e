(** The ECA-rule stepper: the one executor of a specification (§4).

    A specification is compiled once ({!Opcode.compile}) and run over
    pooled mutable frames: task payloads and registers live in unboxed
    int/float/tag arrays, pending queues are per-set rings, the
    uncommitted order is a flat binary heap, live rule instances (the
    rule lanes) sit in a key index plus a residual list, and parked
    tasks wake only when a resolve hits the instance they await.  The
    steady state allocates nothing.

    The stepper is {e untimed}: {!step} executes one operation and
    records in the {!footprint} what it touched, without pricing it.
    Two layers drive it:
    - the scheduling policies of {!Semantics} — the sequential oracle
      (Definition 4.3), the worker-pool runtime of §4.4 and OCaml
      domains — for every software substrate;
    - the cycle loop of [Agp_hw.Engine_compiled], which turns each
      footprint into a latency through its memory model.

    The conformance matrix holds every driver's final state to the
    oracle's, and [App_instance] checks each against the reference
    algorithms, which do not use this module. *)

type outcome =
  | Committed_task
  | Aborted_task
  | Retried_task

type step_result =
  | Stepped  (** one operation executed *)
  | Blocked  (** the task parked at a rendezvous *)
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

(** {1 Footprints} *)

(** What kind of work the last {!step} did. *)
type access =
  | Compute  (** register, rule or queue work only *)
  | Read  (** a [Load] of {!field-addr} *)
  | Write  (** a [Store] to {!field-addr} *)
  | Fanout  (** a [Push_iter] of {!field-width} pushes *)
  | Kernel  (** a [Prim] call of {!field-prim}; its accesses are in the
                {!State} trace when tracing is on *)

type footprint = {
  mutable access : access;
  mutable addr : int;  (** flat byte address ({!State.address_of}) *)
  mutable width : int;  (** [hi - lo] of the [Push_iter]; may be [<= 0] *)
  mutable prim : int;  (** prim id in {!Opcode.program.prim_names} *)
}
(** Only the fields named by [access] are meaningful. *)

(** {1 Frames} *)

type inst
(** A rule instance: one lane of a rule engine. *)

(** A task frame.  Frames are pooled: once a task finishes its frame is
    recycled for a later activation, so a frame must not be held past
    the step that finished it.  Drivers read [tid], [set], [idx], [pc]
    and [verdict]; everything else belongs to the stepper, except
    [fr_ready] and [fr_ops], which belong to the driver. *)
type task = {
  mutable tid : int;  (** unique per activation (a retry gets a fresh tid) *)
  mutable set : int;  (** task-set slot *)
  mutable idx : int array;  (** well-order index, as {!Index.to_array} *)
  mutable pay_i : int array;
  mutable pay_f : float array;
  mutable pay_tg : int array;
  mutable n_pay : int;
  reg_i : int array;
  reg_f : float array;
  reg_tg : int array;
  handles : inst array;
  insts : inst Agp_util.Vec.t;
  mutable pc : int;  (** next instruction in {!Opcode.program.code} *)
  mutable status : int;
  mutable await_dst : int;
  mutable await_inst : inst;
  mutable bcast : bool;  (** fired its commit broadcast (first [Emit]) *)
  mutable verdict : bool;  (** the rule verdict it last woke with *)
  mutable fr_ready : int;  (** driver scratch, reset on activation *)
  mutable fr_ops : int;  (** driver scratch, reset on activation *)
}

val nil_task : task
(** The "no task" sentinel of the functions below that return a bare
    {!task}; compare with [==]. *)

(** {1 Engines} *)

type t

val create : Spec.t -> Spec.bindings -> State.t -> t
(** Compile the specification and bind its arrays, prims and expected
    counts.  @raise Invalid_argument when it fails {!Spec.validate}. *)

val reserve : t -> lanes:int -> unit
(** Presize the rule-lane structures for [lanes] live instances, so a
    run within that bound never grows them.
    @raise Invalid_argument once a task has been pushed. *)

val program : t -> Opcode.program

val stats : t -> stats

val footprint : t -> footprint
(** The engine's one footprint record, overwritten by every {!step}. *)

val cond_evals : t -> int
(** Rule-clause conditions evaluated so far (kept apart from {!stats}). *)

val prim_counts : t -> (string * int) list
(** Invocations per [Prim] kernel so far (kernels never called are
    left out). *)

val push_initial : t -> string -> Value.t list -> unit
(** Host-side activation into a task set (index stamped as a push from
    the all-zero root index). *)

(** {1 Queues} *)

val pending_count : t -> int

val waiting_count : t -> int
(** Tasks parked at a rendezvous. *)

val waiting_in : t -> int -> int
(** Parked tasks of one task-set slot. *)

val live_rules : t -> int
(** Rule instances allocated and not yet resolved or released. *)

val uncommitted_remaining : t -> bool
(** True while any task is pending, running or waiting. *)

val min_pending_head : t -> task
(** The smallest-index pending task (a ring head), or {!nil_task}. *)

val pop_min : t -> task option
(** Dequeue the globally minimum pending task, marked running. *)

val pop_any : t -> task option
(** Dequeue round-robin across sets, marked running. *)

val pop_set : t -> int -> task
(** Dequeue the head of one set's ring, marked running, or {!nil_task}. *)

val pop_if_minimal : t -> task
(** Dequeue the minimum pending task if it is also the minimum
    uncommitted task, else {!nil_task}. *)

val outranked : t -> task -> bool
(** Some other index is the minimum uncommitted task's. *)

(** {1 Stepping} *)

val step : t -> task -> step_result
(** Execute exactly one operation of a running task.  All events,
    pushes and rule transitions it implies happen inside.  A [Finished]
    frame has gone back to the pool: the next activation reuses it. *)

val resolve_pending : t -> unit
(** Broadcast a change of the minimum uncommitted task to
    [On_min_changed] clauses, then fire the [otherwise] clause of every
    rule whose waiting parent is minimal in the rule's scope.  Call
    after any commit, squash or block. *)

val resume_ready : t -> unit
(** Wake the parked tasks whose rendezvous resolved: their await
    binding is applied, [verdict] set, and they are marked running.
    They are then {!resumed}[ t 0 .. ]{!resumed_count}[ t - 1], in
    index order, until the next call. *)

val resumed_count : t -> int

val resumed : t -> int -> task

val deadlocked : t -> bool
(** No task is running or pending, tasks are parked, and even after
    {!resolve_pending} none can wake: a rule lacks a viable exit
    path. *)
