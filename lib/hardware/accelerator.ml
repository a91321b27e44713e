module Engine = Agp_core.Engine
module Spec = Agp_core.Spec
module Sink = Agp_obs.Sink
module Attribution = Agp_obs.Attribution
module Timeline = Agp_obs.Timeline
module Lifecycle = Agp_obs.Lifecycle
module Metrics = Agp_obs.Metrics
module Json = Agp_obs.Json
module Report = Agp_obs.Report

(* Kept only so existing callers that pass [~engine:Compiled] still build. *)
type engine = Compiled

type report = {
  cycles : int;
  seconds : float;
  utilization : float;
  wall_seconds : float;
  sim_cycles_per_sec : float;
  minor_words_per_cycle : float;
  cond_evals : int;
  engine_stats : Agp_core.Engine.stats;
  mem_reads : int;
  mem_writes : int;
  mem_hit_rate : float;
  bytes_over_link : int;
  peak_in_flight : int;
  pipelines : (string * int) list;
  attribution : Attribution.t;
}

let run ?engine:(_ : engine option) ?(config = Config.default) ?(auto_size = true)
    ?(sink = Sink.null) ?timeline ~spec ~bindings ~state ~initial () =
  let cfg =
    if config.Config.pipelines = [] && auto_size then
      Config.with_pipelines config (Resource.heuristic_pipelines spec ~max_per_set:8)
    else config
  in
  let wall_start = Unix.gettimeofday () in
  let r = Engine_compiled.run ?timeline ~cfg ~sink ~spec ~bindings ~state ~initial () in
  let wall_seconds = Float.max 1e-9 (Unix.gettimeofday () -. wall_start) in
  let st = Memory.stats r.Engine_compiled.r_mem in
  let cycles = r.Engine_compiled.r_cycles in
  {
    cycles;
    seconds = Config.cycles_to_seconds cfg cycles;
    wall_seconds;
    sim_cycles_per_sec = float_of_int cycles /. wall_seconds;
    minor_words_per_cycle =
      (if cycles = 0 then 0.0
       else r.Engine_compiled.r_minor_words /. float_of_int cycles);
    utilization =
      (if cycles = 0 || r.Engine_compiled.r_total_stage_ops = 0 then 0.0
       else
         float_of_int r.Engine_compiled.r_active_op_cycles
         /. float_of_int (cycles * r.Engine_compiled.r_total_stage_ops));
    cond_evals = r.Engine_compiled.r_cond_evals;
    engine_stats = r.Engine_compiled.r_stats;
    mem_reads = st.Memory.reads;
    mem_writes = st.Memory.writes;
    mem_hit_rate = Memory.hit_rate r.Engine_compiled.r_mem;
    bytes_over_link = st.Memory.bytes_over_link;
    peak_in_flight = r.Engine_compiled.r_peak_in_flight;
    pipelines =
      List.map (fun ts -> (ts.Spec.ts_name, Config.pipeline_count cfg ts.Spec.ts_name))
        spec.Spec.task_sets;
    attribution = r.Engine_compiled.r_attr;
  }

let config_json (cfg : Config.t) =
  [
    ("clock_mhz", Json.Float cfg.Config.clock_mhz);
    ("cache_bytes", Json.Int cfg.Config.cache_bytes);
    ("line_bytes", Json.Int cfg.Config.line_bytes);
    ("hit_latency", Json.Int cfg.Config.hit_latency);
    ("miss_latency", Json.Int cfg.Config.miss_latency);
    ("qpi_gbps", Json.Float cfg.Config.qpi_gbps);
    ("rule_lanes", Json.Int cfg.Config.rule_lanes);
    ("mlp", Json.Int cfg.Config.mlp);
    ("queue_banks", Json.Int cfg.Config.queue_banks);
    ("window_factor", Json.Int cfg.Config.window_factor);
    ("pipelines", Json.Obj (List.map (fun (set, n) -> (set, Json.Int n)) cfg.Config.pipelines));
  ]

let attribution_json attr =
  let summary = Attribution.summary attr in
  Json.Obj
    (List.map
       (fun (set, bs) ->
         (set, Json.Obj (List.map (fun (b, n) -> (Attribution.bucket_name b, Json.Int n)) bs)))
       (Attribution.per_set attr)
    @ [
        ( "summary",
          Json.Obj
            [
              ("busy_frac", Json.Float summary.Attribution.busy_frac);
              ("mem_stall_frac", Json.Float summary.Attribution.mem_frac);
              ("rdv_stall_frac", Json.Float summary.Attribution.rendezvous_frac);
              ("queue_full_frac", Json.Float summary.Attribution.queue_frac);
              ("squash_frac", Json.Float summary.Attribution.squash_frac);
              ("idle_frac", Json.Float summary.Attribution.idle_frac);
            ] );
      ])

let metrics_registry ?events (r : report) =
  let reg = Metrics.create () in
  let c name v = Metrics.add (Metrics.counter reg name) v in
  let g name v = Metrics.set (Metrics.gauge reg name) v in
  let es = r.engine_stats in
  c "accel.cycles" r.cycles;
  c "tasks.activated" es.Engine.activated;
  c "tasks.committed" es.Engine.committed;
  c "tasks.aborted" es.Engine.aborted;
  c "tasks.retried" es.Engine.retried;
  c "tasks.ops_executed" es.Engine.ops_executed;
  c "mem.reads" r.mem_reads;
  c "mem.writes" r.mem_writes;
  c "mem.bytes_over_link" r.bytes_over_link;
  c "accel.peak_in_flight" r.peak_in_flight;
  g "accel.seconds" r.seconds;
  g "accel.utilization" r.utilization;
  (* accel.wall_seconds deliberately stays out of the registry: it is
     host noise and the "seconds" diff token would gate it downward.
     The throughput form carries its own higher-is-better token. *)
  g "accel.sim_cycles_per_sec" r.sim_cycles_per_sec;
  g "accel.minor_words_per_cycle" r.minor_words_per_cycle;
  g "mem.hit_rate" r.mem_hit_rate;
  begin
    match events with
    | None -> ()
    | Some evs ->
        let spans, _ = Lifecycle.spans evs in
        ignore (Lifecycle.histogram reg ~name:"task.lifetime.cycles" spans)
  end;
  reg

let obs_report ?(app = "unknown") ?events ?timeline ~config (r : report) =
  let lifecycle =
    match events with
    | None -> []
    | Some evs ->
        let spans, unfinished = Lifecycle.spans evs in
        [
          ( "lifecycle",
            Json.Obj
              (("unfinished", Json.Int unfinished)
              :: [ ("sets", Lifecycle.to_json (Lifecycle.summarize spans)) ]) );
        ]
  in
  let timeline_section =
    match timeline with
    | None -> []
    | Some tl ->
        [
          ( "timeline",
            Json.Obj
              [
                ("summary", Timeline.summary_json tl);
                ( "samples",
                  match Timeline.to_json tl with
                  | Json.Obj kvs -> Option.value ~default:Json.Null (List.assoc_opt "samples" kvs)
                  | _ -> Json.Null );
              ] );
        ]
  in
  Report.v ~kind:"accelerator-run" ~app ~meta:(config_json config)
    ~sections:
      ([
         ("metrics", Metrics.to_json (metrics_registry ?events r));
         ("attribution", attribution_json r.attribution);
       ]
      @ lifecycle @ timeline_section)
    ()
