(* Tests for the §4.4 debugging tracer, the lifecycle event stream of
   the software policies, and the design-space explorer. *)

module Trace = Agp_core.Trace
module Explore = Agp_exp.Explore
module Workloads = Agp_exp.Workloads
module App_instance = Agp_apps.App_instance
module Event = Agp_obs.Event
module Sink = Agp_obs.Sink
module Lifecycle = Agp_obs.Lifecycle
open Agp_core

let check = Alcotest.check

let traced_bfs ?(workers = 4) () =
  let app = Workloads.spec_bfs Workloads.Small ~seed:42 in
  let r = app.App_instance.fresh () in
  let t =
    Trace.run ~initial:r.App_instance.initial ~workers app.App_instance.spec
      r.App_instance.bindings r.App_instance.state
  in
  (app, r, t)

let test_trace_produces_valid_result () =
  let _, r, _ = traced_bfs () in
  check (Alcotest.result Alcotest.unit Alcotest.string) "traced run correct" (Ok ())
    (r.App_instance.check ())

let test_trace_records_lifecycle () =
  let _, _, t = traced_bfs () in
  let has p = List.exists (fun (_, ev) -> p ev) t.Trace.events in
  check Alcotest.bool "dispatches recorded" true
    (has (function Event.Task_dispatch _ -> true | _ -> false));
  check Alcotest.bool "commits recorded" true
    (has (function Event.Task_finish { outcome = Event.Commit; _ } -> true | _ -> false));
  check Alcotest.bool "aborts recorded" true
    (has (function Event.Task_finish { outcome = Event.Abort; _ } -> true | _ -> false));
  check Alcotest.bool "rendezvous blocks recorded" true
    (has (function Event.Rendezvous_park _ -> true | _ -> false))

let test_trace_summary_consistent_with_stats () =
  let _, _, t = traced_bfs () in
  let stats = t.Trace.report.Semantics.stats in
  let commits = List.fold_left (fun acc (_, c, _, _, _) -> acc + c) 0 (Trace.summarize t) in
  let aborts = List.fold_left (fun acc (_, _, a, _, _) -> acc + a) 0 (Trace.summarize t) in
  check Alcotest.int "committed match engine stats" stats.Engine.committed commits;
  check Alcotest.int "aborted match engine stats" stats.Engine.aborted aborts

let test_trace_same_schedule_as_runtime () =
  (* tracing must not perturb the schedule: step counts agree with an
     untraced run at the same worker count *)
  let app = Workloads.spec_bfs Workloads.Small ~seed:42 in
  let _, _, t = traced_bfs ~workers:4 () in
  let r2 = app.App_instance.fresh () in
  let untraced =
    Semantics.run ~initial:r2.App_instance.initial (Semantics.pipelined ~workers:4 ())
      app.App_instance.spec r2.App_instance.bindings r2.App_instance.state
  in
  check Alcotest.int "same steps" untraced.Semantics.steps t.Trace.report.Semantics.steps;
  check Alcotest.int "same tasks" untraced.Semantics.tasks_run
    t.Trace.report.Semantics.tasks_run

let test_trace_timeline_renders () =
  let _, _, t = traced_bfs () in
  let s = Trace.render_timeline ~max_ticks:10 t in
  check Alcotest.bool "one row per worker" true
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' s)) = 4)

let test_trace_entry_cap () =
  let app = Workloads.spec_bfs Workloads.Small ~seed:42 in
  let r = app.App_instance.fresh () in
  let t =
    Trace.run ~initial:r.App_instance.initial ~workers:4 ~max_entries:50 app.App_instance.spec
      r.App_instance.bindings r.App_instance.state
  in
  check Alcotest.int "capped" 50 (List.length t.Trace.events);
  check Alcotest.bool "the overflow is counted" true (t.Trace.dropped > 0);
  check (Alcotest.result Alcotest.unit Alcotest.string) "execution still completes" (Ok ())
    (r.App_instance.check ())

(* A lone task parks on a rule with no clauses, is minimal, and wakes
   through its false otherwise path. *)
let false_otherwise_spec : Spec.t =
  {
    Spec.spec_name = "false-otherwise";
    task_sets =
      [
        {
          Spec.ts_name = "t";
          ts_order = Spec.For_each;
          arity = 0;
          body = [ Spec.Alloc ("h", "r", []); Spec.Await ("v", "h") ];
        };
      ];
    rules =
      [
        {
          Spec.rule_name = "r";
          n_params = 0;
          clauses = [];
          otherwise = false;
          scope = Spec.Min_uncommitted;
          counted = false;
        };
      ];
  }

let resume_verdicts events =
  List.filter_map
    (function
      | _, Event.Rendezvous_resume { verdict; _ } -> Some verdict
      | _ -> None)
    events

(* The resume event carries the verdict the rule resolved to, whatever
   the Await destination is called. *)
let test_trace_resumed_verdict () =
  let t =
    Trace.run ~initial:[ ("t", []) ] false_otherwise_spec Spec.no_bindings (State.create ())
  in
  check Alcotest.(list bool) "one wake, with the false verdict" [ false ]
    (resume_verdicts t.Trace.events)

(* The simulator fills the same field from the same stepper. *)
let test_simulator_resumed_verdict () =
  let sink = Sink.collect () in
  ignore
    (Agp_hw.Accelerator.run ~sink ~spec:false_otherwise_spec ~bindings:Spec.no_bindings
       ~state:(State.create ()) ~initial:[ ("t", []) ] ());
  check Alcotest.(list bool) "one wake, with the false verdict" [ false ]
    (resume_verdicts (Sink.events sink))

(* --- the lifecycle event stream of the software policies --- *)

let observed_run interp (app : App_instance.t) =
  let sink = Sink.collect () in
  let r = app.App_instance.fresh () in
  let report =
    Semantics.run ~initial:r.App_instance.initial { interp with Semantics.sink }
      app.App_instance.spec
      r.App_instance.bindings r.App_instance.state
  in
  (report, Sink.events sink)

let check_event_stream name interp app =
  let report, events = observed_run interp app in
  let spans, unfinished = Lifecycle.spans events in
  let s = report.Semantics.stats in
  check Alcotest.int (name ^ ": no activation left unfinished") 0 unfinished;
  check Alcotest.int (name ^ ": one span per outcome")
    (s.Engine.committed + s.Engine.aborted + s.Engine.retried)
    (List.length spans);
  check Alcotest.bool (name ^ ": phases cover each span") true
    (List.for_all
       (fun (sp : Lifecycle.span) ->
         sp.sp_queue_wait + sp.sp_execute + sp.sp_rdv_wait + sp.sp_squash_redo
         = sp.sp_retired - sp.sp_dispatched)
       spans);
  let tids p = List.sort compare (List.filter_map (fun (_, ev) -> p ev) events) in
  check Alcotest.(list int) (name ^ ": every park has a resume")
    (tids (function Event.Rendezvous_park { tid; _ } -> Some tid | _ -> None))
    (tids (function Event.Rendezvous_resume { tid; _ } -> Some tid | _ -> None))

let test_event_stream_spans () =
  List.iter
    (fun (app : App_instance.t) ->
      List.iter
        (fun (policy, interp) ->
          check_event_stream (app.App_instance.app_name ^ " " ^ policy) interp app)
        [ ("sequential", Semantics.oracle ()); ("runtime", Semantics.pipelined ()) ])
    [
      Workloads.spec_sssp Workloads.Small ~seed:42; Workloads.spec_bfs Workloads.Small ~seed:42;
    ]

(* --- explorer --- *)

let test_explore_lu () =
  let app = Workloads.coor_lu Workloads.Small ~seed:42 in
  let outcomes = Explore.sweep app in
  check Alcotest.int "all candidates evaluated" (List.length Explore.default_candidates)
    (List.length outcomes);
  match Explore.best outcomes with
  | None -> Alcotest.fail "no fitting configuration"
  | Some b ->
      check Alcotest.bool "best fits" true b.Explore.fits;
      List.iter
        (fun o -> if o.Explore.fits then Alcotest.(check bool) "best minimal" true (b.Explore.cycles <= o.Explore.cycles))
        outcomes

let test_explore_rejects_nothing_silently () =
  (* every candidate must appear in the output, fitting or not *)
  let app = Workloads.spec_bfs Workloads.Small ~seed:1 in
  let candidates =
    [ { Explore.lanes = 64; pipelines_per_set = 1; window_factor = 1 } ]
  in
  let outcomes = Explore.sweep ~candidates app in
  check Alcotest.int "one in, one out" 1 (List.length outcomes)

let test_explore_more_pipelines_more_alms () =
  let app = Workloads.spec_bfs Workloads.Small ~seed:1 in
  let candidates =
    [
      { Explore.lanes = 64; pipelines_per_set = 1; window_factor = 1 };
      { Explore.lanes = 64; pipelines_per_set = 8; window_factor = 1 };
    ]
  in
  match Explore.sweep ~candidates app with
  | [ small; big ] ->
      check Alcotest.bool "resource cost grows" true (big.Explore.alms > small.Explore.alms)
  | _ -> Alcotest.fail "expected two outcomes"

let () =
  Alcotest.run "agp_trace_explore"
    [
      ( "trace",
        [
          Alcotest.test_case "valid result" `Quick test_trace_produces_valid_result;
          Alcotest.test_case "lifecycle recorded" `Quick test_trace_records_lifecycle;
          Alcotest.test_case "summary matches stats" `Quick test_trace_summary_consistent_with_stats;
          Alcotest.test_case "schedule unperturbed" `Quick test_trace_same_schedule_as_runtime;
          Alcotest.test_case "timeline renders" `Quick test_trace_timeline_renders;
          Alcotest.test_case "entry cap" `Quick test_trace_entry_cap;
          Alcotest.test_case "resumed carries the verdict" `Quick test_trace_resumed_verdict;
        ] );
      ( "events",
        [
          Alcotest.test_case "software runs give whole spans" `Quick test_event_stream_spans;
          Alcotest.test_case "simulator resume carries the verdict" `Quick
            test_simulator_resumed_verdict;
        ] );
      ( "explore",
        [
          Alcotest.test_case "lu sweep" `Slow test_explore_lu;
          Alcotest.test_case "complete output" `Quick test_explore_rejects_nothing_silently;
          Alcotest.test_case "alms monotone" `Quick test_explore_more_pipelines_more_alms;
        ] );
    ]
