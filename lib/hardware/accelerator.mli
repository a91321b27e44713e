(** Cycle-level model of the generalized synthesized accelerator
    (Fig. 7): replicated task pipelines per task set, multi-bank task
    queues, shared rule engines, and the cache/QPI memory subsystem.

    The model is the cycle loop of {!Engine_compiled} around the
    untimed stepper {!Agp_core.Engine} that every software backend
    also runs; the loop charges time around each operation from what
    the step touched: loads and stores travel through {!Memory},
    data-dependent spawners occupy their stage once per emitted token,
    prims occupy their stage for a configured kernel latency plus their
    access burst, rendezvous park the task in a rule lane until
    resolution.  It mutates the same {!Agp_core.State} as the software
    runtimes, so every accelerated run is validated with the same
    checks.  The conformance matrix checks its semantics against the
    sequential oracle, and exact per-app pins (cycles, statistics,
    memory traffic, attribution, event stream) check its timing.

    The simulator is observable: pass a {!Agp_obs.Sink} to capture the
    structured event stream (task dispatch/finish, rendezvous
    park/resume, queue backpressure, cache and link traffic — see
    {!Agp_obs.Event}), and every run returns a per-cycle stall
    {!Agp_obs.Attribution} in its report.  With the default null sink
    the instrumentation reduces to predicted-false branches, and the
    simulated timing is identical either way (the observer never
    perturbs the model). *)

(* The only engine; kept with {!run}'s ignored [?engine] because perfbench passes it. *)
type engine = Compiled

type report = {
  cycles : int;
  seconds : float;
  utilization : float;
      (** mean active primitive operations over total instantiated
          primitive operations (the Fig. 10 metric) *)
  wall_seconds : float;  (** host wall-clock time spent simulating *)
  sim_cycles_per_sec : float;
      (** simulator throughput ([cycles / wall_seconds]) — the
          higher-is-better signal the CI ratchet gates on *)
  minor_words_per_cycle : float;
      (** minor-heap words allocated per simulated cycle inside the
          cycle loop — the lower-is-better gate on the compiled
          engine's zero-allocation claim *)
  cond_evals : int;
      (** rule-clause conditions the engine evaluated; kept out of
          [engine_stats] and the metrics so pins and reports hold *)
  engine_stats : Agp_core.Engine.stats;
  mem_reads : int;
  mem_writes : int;
  mem_hit_rate : float;
  bytes_over_link : int;
  peak_in_flight : int;
  pipelines : (string * int) list;  (** replication actually used *)
  attribution : Agp_obs.Attribution.t;
      (** where the pipeline-cycles went: per task set, buckets sum to
          [cycles x pipelines of that set] *)
}

val run :
  ?engine:engine ->
  ?config:Config.t ->
  ?auto_size:bool ->
  ?sink:Agp_obs.Sink.t ->
  ?timeline:Agp_obs.Timeline.t ->
  spec:Agp_core.Spec.t ->
  bindings:Agp_core.Spec.bindings ->
  state:Agp_core.State.t ->
  initial:(string * Agp_core.Value.t list) list ->
  unit ->
  report
(** Simulate to quiescence, mutating [state] exactly as the software
    runtimes would.  [engine] is ignored.  With [auto_size]
    (default true) the pipeline replication is chosen by
    {!Resource.heuristic_pipelines} when the configuration leaves it
    empty.  [sink] (default {!Agp_obs.Sink.null}) captures the event
    stream; it is also threaded into the internal {!Memory}.
    [timeline] (default absent) receives interval samples of
    utilization / occupancy / cache / link activity; the sampler only
    reads counters, so a sampled run's report is identical to an
    unsampled one.
    @raise Agp_core.Semantics.Deadlock on a rendezvous no event or
    otherwise clause can resolve.
    @raise Agp_core.Semantics.Step_limit_exceeded when the run exceeds
    the cycle-loop budget. *)

val metrics_registry :
  ?events:(int * Agp_obs.Event.t) list -> report -> Agp_obs.Metrics.registry
(** The canonical metrics view of a completed run: counters
    ([accel.cycles], [tasks.*], [mem.*]), gauges ([accel.utilization],
    [accel.seconds], [mem.hit_rate]) and, when the captured event
    stream is supplied, a [task.lifetime.cycles] latency histogram. *)

val obs_report :
  ?app:string ->
  ?events:(int * Agp_obs.Event.t) list ->
  ?timeline:Agp_obs.Timeline.t ->
  config:Config.t ->
  report ->
  Agp_obs.Report.t
(** Assemble the schema-versioned machine-readable run report
    ({!Agp_obs.Report}): configuration as meta, the
    {!metrics_registry} dump, the stall-attribution table (raw
    pipeline-cycles per set plus global fractions), and — when the
    corresponding capture is supplied — per-task-set lifecycle
    percentiles ({!Agp_obs.Lifecycle}) and the timeline summary +
    samples ({!Agp_obs.Timeline}). *)
