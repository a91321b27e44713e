(** The timed layer of the accelerator model: its cycle loop over the
    untimed stepper {!Agp_core.Engine}.

    The stepper executes each op and leaves a footprint (the address of
    a Load or Store, the width of a Push_iter, the Prim called); this
    layer owns the pipeline windows, the modelled {!Memory} that turns
    footprints into latencies, per-cycle stall attribution in a flat
    int matrix, sink events, and a next-ready fast-forward wheel that
    skips idle cycles.  The steady-state loop allocates zero words per
    cycle.

    The conformance matrix holds its final state to the sequential
    oracle, and the pin test in [test/test_conformance.ml] holds its
    cycle count, engine statistics, memory traffic, attribution and
    event stream to exact per-app pins. *)

type result = {
  r_cycles : int;
  r_active_op_cycles : int;
  r_peak_in_flight : int;
  r_total_stage_ops : int;
  r_minor_words : float;  (** minor-heap words allocated inside the cycle loop *)
  r_cond_evals : int;
      (** rule-clause conditions evaluated, counted apart from the
          pinned engine statistics *)
  r_stats : Agp_core.Engine.stats;
  r_attr : Agp_obs.Attribution.t;
  r_mem : Memory.t;
}

val run :
  ?timeline:Agp_obs.Timeline.t ->
  cfg:Config.t ->
  sink:Agp_obs.Sink.t ->
  spec:Agp_core.Spec.t ->
  bindings:Agp_core.Spec.bindings ->
  state:Agp_core.State.t ->
  initial:(string * Agp_core.Value.t list) list ->
  unit ->
  result
(** Simulate to quiescence, mutating [state] exactly as {!Accelerator}
    (and the software runtimes) would.  The wrapper in {!Accelerator}
    turns the result into a full [report].
    @raise Agp_core.Semantics.Deadlock when every remaining task is
    parked on a rendezvous no event or otherwise clause can resolve.
    @raise Agp_core.Semantics.Step_limit_exceeded past the cycle-loop
    budget. *)
