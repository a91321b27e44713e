(** One semantics, many interpretations.

    The small-step ECA-rule stepper lives in {!Engine}; this module is
    the {e single} software driver around it, parameterized over an
    {!interpretation} record [{descr; policy; sink}].  The software
    backends, [Trace] capture and [Cpu_model] are each one of three
    scheduling {!policy}s plus an {!Agp_obs.Sink.t}:

    - {!oracle} — always run the minimum active task to completion
      (Definition 4.3's well-order; the conformance reference).
    - {!pipelined} — a fixed pool of abstract workers, one operation per
      busy worker per tick; the aggressive software runtime of §4.4.
    - {!multicore} — OCaml 5 domains over the shared engine.

    The sink receives the hardware simulator's own task events
    ({!Agp_obs.Event.t}) at lifecycle transitions only, never per op:
    [Task_dispatch] when a worker takes a task (fresh or resumed),
    [Rendezvous_park], [Rendezvous_resume] with the rule's verdict, and
    [Task_finish].  [ts] is the policy tick (the op count under
    {!oracle}, the scheduler tick under {!pipelined}, the global count
    of ops stepped under {!multicore}); [pipe] is the worker or domain.
    The tracer is [pipelined] plus a collect sink. *)

(** Typed liveness failures, raised by every policy and by the
    hardware simulator. *)

exception Deadlock of string

exception Step_limit_exceeded of int

(** {1 Interpretations} *)

type policy =
  | Min_first of { max_tasks : int }
      (** run the minimum active task to completion, repeat *)
  | Workers of { workers : int; max_steps : int }
      (** deterministic worker-pool interleaving, one op per busy
          worker per tick *)
  | Domains of { domains : int option }
      (** OCaml 5 domains; [None] picks [min 4 recommended] *)

type interpretation = {
  descr : string;  (** prefix for error messages, e.g. ["Semantics.pipelined"] *)
  policy : policy;
  sink : Agp_obs.Sink.t;
      (** receives the lifecycle events; {!Agp_obs.Sink.null} (the
          default of every constructor) builds none.  Under {!multicore}
          events are emitted holding the engine lock. *)
}

type report = {
  tasks_run : int;  (** tasks that reached an outcome (incl. squashes) *)
  steps : int;
      (** the final policy tick: ops stepped ({!oracle}, {!multicore}) or
          scheduler ticks, a proxy for parallel makespan ({!pipelined}) *)
  max_concurrency : int;  (** peak busy workers (0 under {!multicore}) *)
  max_waiting : int;  (** peak parked tasks (0 outside {!pipelined}) *)
  avg_busy : float;  (** mean busy workers per tick *)
  domains_used : int;  (** 0 outside {!multicore} *)
  stats : Engine.stats;
  prim_counts : (string * int) list;
}

val oracle : ?max_tasks:int -> unit -> interpretation
(** Sequential minimum-first reference: the semantics oracle, since a
    parallel execution is correct exactly when its result is equivalent
    to this one (§4.1).  Rules degenerate gracefully: the running task
    is always minimal, so each rendezvous resolves through its
    [otherwise] path.  Default budget 10_000_000 tasks.  Raises
    {!Step_limit_exceeded} (carrying the budget) past it and
    {!Deadlock} when a rendezvous of the running task cannot
    resolve. *)

val pipelined : ?workers:int -> ?max_steps:int -> unit -> interpretation
(** Worker-pool runtime.  Tasks parked at a rendezvous leave their
    worker (a worker is a pipeline, not an OS thread), so the minimum
    task always makes progress.  The schedule is deterministic.
    Defaults: 8 workers, 100_000_000 steps.  Raises
    {!Step_limit_exceeded} (carrying the budget) past it and
    {!Deadlock} when no task can make progress. *)

val multicore : ?domains:int -> unit -> interpretation
(** Domain-parallel runtime, §4.4's pthread option: engine transitions
    serialize under one lock while [Prim] kernels run in parallel.  The
    schedule is nondeterministic, so correctness is judged by final
    state against {!oracle}.  Raises {!Deadlock} (from the losing
    domain, re-raised on the caller) on rule-resolution deadlock. *)

val run :
  ?initial:(string * Value.t list) list ->
  interpretation ->
  Spec.t ->
  Spec.bindings ->
  State.t ->
  report
(** [run interp spec bindings state] builds an engine, pushes the
    initial tasks, and drives it to completion under [interp]'s policy,
    emitting lifecycle events into [interp]'s sink.  The sink does not
    change the schedule: a null and a collecting sink give the same
    report and the same final state. *)
