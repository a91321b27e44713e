(** One semantics, many interpretations.

    The small-step ECA-rule stepper lives in {!Engine}; this module is
    the {e single} software driver around it, parameterized over an
    {!interpretation} record.  [Sequential], [Runtime],
    [Parallel_runtime], [Trace] capture and [Cpu_model] instrumentation
    are each one of three scheduling {!policy}s plus optional effect
    {!hooks}:

    - {!oracle} — always run the minimum active task to completion
      (Definition 4.3's well-order; the conformance reference).
    - {!pipelined} — a fixed pool of abstract workers, one operation per
      busy worker per tick; the aggressive software runtime of §4.4.
    - {!multicore} — OCaml 5 domains over the shared engine.

    Adding a substrate means building a record, not writing a loop: the
    tracer is [pipelined] plus recording hooks, the CPU timing model is
    [oracle]/[pipelined] plus counting hooks, and a test-only
    interpretation is a few lines (see the conformance suite). *)

(** Typed liveness failures.  These are the {e same} exception
    constructors as [Runtime.Deadlock] / [Runtime.Step_limit_exceeded]
    (rebound there), so existing handlers and the CLI's exit-code
    mapping work unchanged whichever name they match on. *)

exception Deadlock of string

exception Step_limit_exceeded of int

(** {1 Effect hooks} *)

(** One lifecycle transition of one task under the stepper. *)
type step_event =
  | Acquired  (** scheduled for the first time, or re-popped fresh *)
  | Resumed of bool
      (** woken from a rendezvous and rescheduled, with the verdict
          the rule resolved to *)
  | Executed of Spec.op  (** one operation retired, as written in the spec *)
  | Blocked_on of string  (** parked awaiting the named handle *)
  | Finished of Engine.outcome  (** frame completed *)

type hooks = {
  on_event : tick:int -> worker:int -> Engine.task -> step_event -> unit;
      (** [tick] is the policy's time unit (scheduler tick for
          {!pipelined}, global transition count otherwise); [worker]
          the abstract worker / domain id.  Under {!multicore} hooks
          fire holding the engine lock — keep them short.  The task
          frame is only valid during the call (frames are pooled). *)
}

val null_hooks : hooks

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
  descr : string;  (** prefix for error messages, e.g. ["Runtime.run"] *)
  policy : policy;
  hooks : hooks;
}

type report = {
  tasks_run : int;
  steps : int;  (** scheduler ticks ({!pipelined}) or transitions *)
  max_concurrency : int;  (** peak busy workers (0 under {!multicore}) *)
  max_waiting : int;  (** peak parked tasks (0 outside {!pipelined}) *)
  avg_busy : float;  (** mean busy workers per tick *)
  domains_used : int;  (** 0 outside {!multicore} *)
  stats : Engine.stats;
  prim_counts : (string * int) list;
}

val oracle : ?max_tasks:int -> unit -> interpretation
(** Sequential minimum-first reference. Default budget 10_000_000
    tasks.  Raises {!Step_limit_exceeded} past the budget and
    {!Deadlock} when a rendezvous of the running (minimal) task cannot
    resolve. *)

val pipelined : ?workers:int -> ?max_steps:int -> unit -> interpretation
(** Worker-pool runtime. Defaults: 8 workers, 100_000_000 steps.
    Raises {!Step_limit_exceeded} past the budget and {!Deadlock} when
    no task can make progress. *)

val multicore : ?domains:int -> unit -> interpretation
(** Domain-parallel runtime. Raises {!Deadlock} (from the losing
    domain, re-raised on the caller) on rule-resolution deadlock. *)

val with_hooks : interpretation -> hooks -> interpretation

val with_descr : interpretation -> string -> interpretation

val run :
  ?initial:(string * Value.t list) list ->
  interpretation ->
  Spec.t ->
  Spec.bindings ->
  State.t ->
  report
(** [run interp spec bindings state] builds an engine, pushes the
    initial tasks, and drives it to completion under [interp]'s policy,
    firing [interp]'s hooks at every transition. *)
