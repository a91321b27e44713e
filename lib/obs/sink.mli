(** Event sinks: where instrumented components send {!Event.t}s — the
    hardware simulator and the software policies of
    [Agp_core.Semantics] alike.

    Three flavours:
    - {!null} drops everything and reports itself disabled, so
      instrumentation sites can guard on {!enabled} and cost one branch
      when observation is off;
    - {!ring} keeps the most recent [capacity] events (older ones are
      overwritten and counted as {!dropped}) — bounded capture for
      always-on monitoring;
    - {!collect} keeps every event, or only the first [limit] (later
      ones are counted as {!dropped}) — full capture for trace export.

    Producers must emit with non-decreasing [ts] per component, but the
    merged stream is not globally sorted (the memory model timestamps
    requests at their issue time, which can run ahead of the simulated
    cycle); exporters sort. *)

type t

val null : t

val ring : capacity:int -> t
(** @raise Invalid_argument when [capacity <= 0]. *)

val collect : ?limit:int -> unit -> t
(** Keeps the first [limit] events (default: all).
    @raise Invalid_argument when [limit < 0]. *)

val enabled : t -> bool
(** [false] only for {!null}.  Guard event construction with this so a
    disabled run allocates nothing. *)

val emit : t -> ts:int -> Event.t -> unit

val events : t -> (int * Event.t) list
(** Captured [(ts, event)] pairs, oldest first (for a ring, the
    surviving window). *)

val count : t -> int
(** Total events ever emitted (including ones a ring overwrote or a
    limited collect did not keep). *)

val dropped : t -> int
(** Events lost to ring overwrite or past a collect's [limit]; 0 for
    {!null}. *)

val clear : t -> unit
