(** Execution tracing for the pure software runtime — the debugging
    support of §4.4 ("a pure software runtime is provided to help
    programmers debug applications").

    A traced run is the {!Semantics.pipelined} interpretation plus a
    collect sink: the same worker model and schedule as the runtime
    backend, recording the hardware simulator's own task lifecycle
    events ({!Agp_obs.Event.t}, stamped with the scheduler tick, [pipe]
    the worker).  It renders them as a per-worker timeline plus a
    per-task-set summary, making collisions, squashes and rendezvous
    stalls visible before any hardware is generated. *)

type t = {
  events : (int * Agp_obs.Event.t) list;  (** [(tick, event)], chronological *)
  dropped : int;  (** events past [max_entries], counted but not kept *)
  report : Semantics.report;
}

val run :
  ?initial:(string * Value.t list) list ->
  ?workers:int ->
  ?max_entries:int ->
  Spec.t ->
  Spec.bindings ->
  State.t ->
  t
(** Traced execution (default 4 workers).  Recording keeps the first
    [max_entries] events (default 100k) while execution continues. *)

val render_timeline : ?max_ticks:int -> t -> string
(** ASCII worker-per-row timeline of the first [max_ticks] (default 60)
    scheduler ticks.  A worker is busy from a task's dispatch to its
    park or finish; each busy cell shows the task's tid, the same
    identity {!Agp_obs.Lifecycle} and the Chrome trace use, with [~]
    marking the tick it parked at a rendezvous and [*] the tick it was
    squashed. *)

val summarize : t -> (string * int * int * int * int) list
(** Per task set, from the [Task_finish] and [Rendezvous_park] events:
    (name, committed, aborted, retried, rendezvous blocks). *)
