(** Task-lifecycle spans: reduce a run's dispatch / park / resume /
    finish event stream (the accelerator's, or a software policy's in
    policy ticks) to one span per task activation,
    decomposed into the four places a task's wall-clock goes —
    queue-wait (resumed but waiting to re-enter a pipeline), execute
    (occupying a pipeline window), rendezvous-wait (parked in a rule
    lane) and squash-redo (execute time of activations that aborted or
    retried, i.e. wasted work).

    The decomposition is exact: for every span,
    [queue_wait + execute + rdv_wait + squash_redo = retired -
    dispatched] — asserted in [test/test_obs.ml].  Retries allocate a
    fresh task id, so each span describes one activation and a finish
    is terminal. *)

type span = {
  sp_set : string;
  sp_tid : int;
  sp_dispatched : int;  (** first dispatch cycle *)
  sp_retired : int;  (** finish cycle *)
  sp_queue_wait : int;
  sp_execute : int;
  sp_rdv_wait : int;
  sp_squash_redo : int;
  sp_outcome : Event.outcome;
}

val spans : (int * Event.t) list -> span list * int
(** Build spans from a captured [(ts, event)] stream (as returned by
    {!Sink.events}); non-task events are ignored.  Returns completed
    spans in retirement order plus the number of activations that never
    finished (dispatched but still in flight when capture stopped). *)

type set_stats = {
  ls_set : string;
  ls_tasks : int;
  ls_commits : int;
  ls_squashes : int;  (** aborted + retried activations *)
  ls_p50 : float;  (** percentiles of dispatch-to-retire latency,
                       exact (over the raw durations, via
                       {!Agp_util.Stats.percentile}) *)
  ls_p90 : float;
  ls_p99 : float;
  ls_mean : float;
  ls_max : float;
  ls_queue_wait : int;  (** phase totals, summed over the set's spans *)
  ls_execute : int;
  ls_rdv_wait : int;
  ls_squash_redo : int;
}

val summarize : span list -> set_stats list
(** Per-task-set reduction, sets in first-retirement order. *)

val histogram : Metrics.registry -> name:string -> span list -> Metrics.histogram
(** Register (or find) a latency histogram under [name] and feed every
    span's dispatch-to-retire duration into it. *)

val to_json : set_stats list -> Json.t
(** Object keyed by task set. *)

val render : set_stats list -> string
(** Aligned table, one row per task set. *)
