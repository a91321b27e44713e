(** The structured event taxonomy: the one vocabulary for task
    lifecycle transitions.

    One constructor per observable happening; the producer stamps each
    event with a timestamp when it emits into a {!Sink}.  Events carry
    enough identity ([set], [pipe], [tid]) for an exporter to
    reconstruct per-row timelines.

    The four task events ([Task_dispatch], [Rendezvous_park],
    [Rendezvous_resume], [Task_finish]) come from every substrate.  The
    hardware simulator stamps them with the cycle and sets [pipe] to
    the pipeline; the software policies of [Agp_core.Semantics] stamp
    them with the policy tick and set [pipe] to the worker or domain.
    The other constructors are micro-architectural and come from the
    hardware model only. *)

type outcome =
  | Commit
  | Abort
  | Retry

type t =
  | Task_dispatch of { set : string; pipe : int; tid : int }
      (** a task entered a pipeline's reorder window, or a software
          worker took it (fresh issue or rendezvous wake-up) *)
  | Task_finish of { set : string; pipe : int; tid : int; outcome : outcome }
      (** the task left the pipeline by committing, aborting or being
          retried *)
  | Rendezvous_park of { set : string; pipe : int; tid : int }
      (** the task reached its rendezvous and parked in a rule lane *)
  | Rendezvous_resume of { set : string; tid : int; verdict : bool }
      (** the parked task's rule resolved to [verdict]; the task is
          queued to re-enter a pipeline (the next [Task_dispatch] of its
          [tid]) *)
  | Queue_full of { set : string; pipe : int }
      (** backpressure: tasks were pending but this pipeline could not
          accept one this cycle *)
  | Cache_access of { addr : int; is_write : bool; hit : bool }
  | Link_transfer of { bytes : int; start : int; finish : int }
      (** a cache line crossing the QPI link, including any wait for a
          link slot ([start] may exceed the issue cycle) *)
  | Arb_grant of { bank : int; port : int }
      (** wavefront allocator grant (standalone {!Agp_hw.Wavefront}
          instrumentation) *)

val outcome_name : outcome -> string

val kind : t -> string
(** Stable snake_case tag, e.g. ["task_dispatch"] — the name used in
    metrics and trace output. *)
