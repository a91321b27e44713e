(* The timed layer of the simulator: the accelerator's cycle loop over
   the untimed stepper {!Agp_core.Engine}.

   The stepper executes each op and leaves a footprint (the address a
   Load or Store touched, the width of a Push_iter, the Prim called);
   this layer owns everything with a clock: the pipeline windows, the
   modelled {!Memory} that turns footprints into latencies, per-cycle
   stall attribution, sink events and the fast-forward to the next ready
   timestamp.  Two checks hold it in place: the conformance matrix
   compares its final state with the sequential oracle's on every app,
   and exact per-app pins (test/golden/engine-pins.json) fix its cycle
   count, engine statistics, memory traffic, stall attribution and
   event stream.

   The loop allocates no words per cycle: pipeline windows and the
   attribution matrix are flat preallocated arrays, and the engine's
   rule-lane structures are reserved for [Config.rule_lanes] up front. *)

module Spec = Agp_core.Spec
module State = Agp_core.State
module Opcode = Agp_core.Opcode
module Engine = Agp_core.Engine
module Semantics = Agp_core.Semantics
module Bdfg = Agp_dataflow.Bdfg
module Vec = Agp_util.Vec
module Sink = Agp_obs.Sink
module Event = Agp_obs.Event
module Attribution = Agp_obs.Attribution
module Timeline = Agp_obs.Timeline

let nil_task = Engine.nil_task

(* int-typed max/min: the polymorphic [Stdlib.max] calls the generic
   comparison out-of-line on every use *)
let imax (a : int) b = if a >= b then a else b

let imin (a : int) b = if a <= b then a else b

type pipe = {
  cp_set : int;
  cp_set_name : string;
  cp_id : int;
  cp_capacity : int;
  cp_stage_ops : int;
  mutable cp_win : Engine.task array; (* window, newest entry at head 0 *)
  mutable cp_n : int;
  mutable cp_stepped : bool;
}

(* --- the cycle loop --- *)

type result = {
  r_cycles : int;
  r_active_op_cycles : int;
  r_peak_in_flight : int;
  r_total_stage_ops : int;
  r_minor_words : float;  (** minor-heap words allocated inside the cycle loop *)
  r_cond_evals : int;  (** rule-clause conditions evaluated *)
  r_stats : Engine.stats;
  r_attr : Attribution.t;
  r_mem : Memory.t;
}

let pipe_prepend p tk =
  if p.cp_n = Array.length p.cp_win then begin
    let nw = Array.make (max 8 (2 * p.cp_n)) nil_task in
    Array.blit p.cp_win 0 nw 0 p.cp_n;
    p.cp_win <- nw
  end;
  Array.blit p.cp_win 0 p.cp_win 1 p.cp_n;
  p.cp_win.(0) <- tk;
  p.cp_n <- p.cp_n + 1

(* attribution bucket codes inside the flat matrix *)
let b_busy = 0

let b_mem = 1

let b_rdv = 2

let b_queue = 3

let b_squash = 4

let b_idle = 5

(* a run that needs more loop iterations than this is taken to diverge *)
let cycle_budget = 50_000_000

(* Where a prim's traced accesses start: the address of element 0 of
   each array, looked up once per name. *)
let base_of st memo name =
  match Hashtbl.find_opt memo name with
  | Some b -> b
  | None ->
      let b = State.address_of st name 0 in
      Hashtbl.add memo name b;
      b

(* Burst the prim's traced accesses at mlp-wide waves
   ([Memory.access_burst ~dependent:false] over the drained trace); the
   completion cycle of the last wave. *)
let prim_mem_latency ~cfg ~mem ~st ~memo ~now =
  let mlp = max 1 cfg.Config.mlp in
  let wave_now = ref now and wave_max = ref now and k = ref 0 in
  State.iter_trace st (fun a ->
      if !k = mlp then begin
        wave_now := !wave_max;
        k := 0
      end;
      let base = base_of st memo a.State.array_name in
      let c =
        Memory.access mem ~now:!wave_now
          ~addr:(base + (8 * a.State.index))
          ~is_write:a.State.is_write
      in
      if c > !wave_max then wave_max := c;
      incr k);
  State.clear_trace st;
  !wave_max

let run ?timeline ~cfg ~sink ~spec ~bindings ~state ~initial () =
  let graph = Bdfg.of_spec spec in
  let en = Engine.create spec bindings state in
  Engine.reserve en ~lanes:cfg.Config.rule_lanes;
  let mem = Memory.create ~sink cfg in
  let prog = Engine.program en in
  let fp = Engine.footprint en in
  let n_sets = prog.Opcode.n_sets in
  (* compute latency per prim *)
  let prim_lat =
    Array.map
      (fun name -> Option.value ~default:4 (List.assoc_opt name cfg.Config.prim_latency))
      prog.Opcode.prim_names
  in
  let memo = Hashtbl.create 16 in
  (* the State trace records only a prim's own accesses: it is on while
     a Prim steps and drained by its latency *)
  State.set_tracing state false;
  State.clear_trace state;
  List.iter (fun (set, payload) -> Engine.push_initial en set payload) initial;
  let next_pipe = ref 0 in
  let pipes =
    List.concat_map
      (fun (ts : Spec.task_set) ->
        let set_name = ts.Spec.ts_name in
        let slot = Spec.task_set_slot spec set_name in
        let stage_ops = Bdfg.stage_count graph set_name in
        let capacity = max 4 (stage_ops * cfg.Config.window_factor) in
        List.init (Config.pipeline_count cfg set_name) (fun _ ->
            let pipe_id = !next_pipe in
            incr next_pipe;
            {
              cp_set = slot;
              cp_set_name = set_name;
              cp_id = pipe_id;
              cp_capacity = capacity;
              cp_stage_ops = stage_ops;
              cp_win = Array.make (capacity + 4) nil_task;
              cp_n = 0;
              cp_stepped = false;
            }))
      spec.Spec.task_sets
    |> Array.of_list
  in
  let n_pipes = Array.length pipes in
  let first_pipe = Array.make (max n_sets 1) (-1) in
  Array.iter (fun p -> if first_pipe.(p.cp_set) < 0 then first_pipe.(p.cp_set) <- p.cp_id) pipes;
  let total_stage_ops = Array.fold_left (fun acc p -> acc + p.cp_stage_ops) 0 pipes in
  begin
    match timeline with
    | Some tl -> Timeline.start tl ~total_stage_ops ~bytes_per_cycle:(Config.bytes_per_cycle cfg)
    | None -> ()
  end;
  let instrumented = Sink.enabled sink in
  let matrix = Array.make (max 1 (n_sets * 6)) 0 in
  let charge set b n = matrix.((set * 6) + b) <- matrix.((set * 6) + b) + n in
  let sq_set = Vec.create () and sq_ops = Vec.create () in
  let pops_left = Array.make (max n_sets 1) 0 in
  let scratch = Vec.create () in
  let cycle = ref 0 in
  let active_op_cycles = ref 0 in
  let peak_in_flight = ref 0 in
  let in_flight_count () = Array.fold_left (fun acc p -> acc + p.cp_n) 0 pipes in
  (* the allocator reserves a priority lane for the minimum uncommitted
     task (the liveness argument of §4.2.1 under finite rule lanes) *)
  let must_stall_alloc (tk : Engine.task) =
    Engine.live_rules en >= cfg.Config.rule_lanes && Engine.outranked en tk
  in
  (* the latency of the step that just ran, from its footprint *)
  let latency ~now =
    match fp.Engine.access with
    | Engine.Compute -> 1
    | Engine.Read -> imax 1 (Memory.access mem ~now ~addr:fp.Engine.addr ~is_write:false - now)
    | Engine.Write ->
        (* posted write: the task proceeds next cycle while the line
           transfer still occupies cache and link *)
        ignore (Memory.access mem ~now ~addr:fp.Engine.addr ~is_write:true);
        1
    | Engine.Fanout -> imax 1 fp.Engine.width
    | Engine.Kernel ->
        let completion = prim_mem_latency ~cfg ~mem ~st:state ~memo ~now in
        State.set_tracing state false;
        imax prim_lat.(fp.Engine.prim) (completion - now)
  in
  let place_resumed ~now =
    let m = Engine.resumed_count en in
    for i = 0 to m - 1 do
      let w = Engine.resumed en i in
      let best = ref (-1) in
      for pi = 0 to n_pipes - 1 do
        let p = pipes.(pi) in
        if p.cp_set = w.set && (!best < 0 || p.cp_n < pipes.(!best).cp_n) then best := pi
      done;
      if !best < 0 then failwith "Accelerator.run: no pipeline for resumed task";
      let p = pipes.(!best) in
      if instrumented then begin
        Sink.emit sink ~ts:now
          (Event.Rendezvous_resume { set = p.cp_set_name; tid = w.tid; verdict = w.verdict });
        Sink.emit sink ~ts:(now + 1)
          (Event.Task_dispatch { set = p.cp_set_name; pipe = p.cp_id; tid = w.tid })
      end;
      w.fr_ready <- now + 1;
      w.fr_ops <- 0;
      pipe_prepend p w
    done
  in
  let guard = ref 0 in
  (* hoisted per-cycle scratch: a [ref] inside the loop body would
     allocate every iteration *)
  let any_finish = ref false in
  let next_ready = ref max_int in
  let minor_start = Gc.minor_words () in
  while Engine.uncommitted_remaining en do
    incr guard;
    if !guard > cycle_budget then raise (Semantics.Step_limit_exceeded cycle_budget);
    let now = !cycle in
    (* 1. issue: each pipeline may accept one task per cycle, capped by
       queue bank bandwidth per set *)
    Array.fill pops_left 0 (Array.length pops_left) cfg.Config.queue_banks;
    for pi = 0 to n_pipes - 1 do
      let p = pipes.(pi) in
      let left = pops_left.(p.cp_set) in
      if p.cp_n >= p.cp_capacity then begin
        if instrumented && Engine.pending_count en > 0 then
          Sink.emit sink ~ts:now (Event.Queue_full { set = p.cp_set_name; pipe = p.cp_id })
      end
      else if left > 0 then begin
        let tk = Engine.pop_set en p.cp_set in
        if tk != nil_task then begin
          pops_left.(p.cp_set) <- left - 1;
          if instrumented then
            Sink.emit sink ~ts:now
              (Event.Task_dispatch { set = p.cp_set_name; pipe = p.cp_id; tid = tk.tid });
          tk.fr_ready <- now;
          tk.fr_ops <- 0;
          pipe_prepend p tk
        end
      end
    done;
    (* priority admission: the globally minimum task must always reach
       the rule engines, even through a full window.  A pending task
       sits in its ring, never in a window, so it is popped directly. *)
    begin
      let tk = Engine.pop_if_minimal en in
      if tk != nil_task then begin
        let p = pipes.(first_pipe.(tk.set)) in
        if instrumented then
          Sink.emit sink ~ts:now
            (Event.Task_dispatch { set = p.cp_set_name; pipe = p.cp_id; tid = tk.tid });
        tk.fr_ready <- now;
        tk.fr_ops <- 0;
        pipe_prepend p tk
      end
    end;
    peak_in_flight := imax !peak_in_flight (in_flight_count ());
    (* 2. execute one op for every ready in-flight task *)
    any_finish := false;
    next_ready := max_int;
    for pi = 0 to n_pipes - 1 do
      let p = pipes.(pi) in
      Vec.clear scratch;
      let old_n = p.cp_n in
      for i = 0 to old_n - 1 do
        let f = p.cp_win.(i) in
        if f.fr_ready > now then Vec.push scratch f
        else begin
          match prog.Opcode.code.(f.pc) with
          | Opcode.I_alloc _ when must_stall_alloc f ->
              (* stall at the rule-engine allocator *)
              f.fr_ready <- now + 1;
              Vec.push scratch f
          | op -> begin
              let tid = f.tid in
              (match op with
              | Opcode.I_prim _ -> State.set_tracing state true
              | _ -> ());
              incr active_op_cycles;
              p.cp_stepped <- true;
              match Engine.step en f with
              | Engine.Stepped ->
                  f.fr_ops <- f.fr_ops + 1;
                  f.fr_ready <- now + latency ~now;
                  Vec.push scratch f
              | Engine.Blocked ->
                  f.fr_ops <- f.fr_ops + 1;
                  if instrumented then
                    Sink.emit sink ~ts:now
                      (Event.Rendezvous_park { set = p.cp_set_name; pipe = p.cp_id; tid });
                  any_finish := true
              | Engine.Finished outcome ->
                  if outcome <> Engine.Committed_task then begin
                    Vec.push sq_set p.cp_set;
                    Vec.push sq_ops (f.fr_ops + 1)
                  end;
                  if instrumented then
                    Sink.emit sink ~ts:now
                      (Event.Task_finish
                         {
                           set = p.cp_set_name;
                           pipe = p.cp_id;
                           tid;
                           outcome =
                             (match outcome with
                             | Engine.Committed_task -> Event.Commit
                             | Engine.Aborted_task -> Event.Abort
                             | Engine.Retried_task -> Event.Retry);
                         });
                  any_finish := true
            end
        end
      done;
      (* survivors are re-consed in visit order: the new window is
         their reverse *)
      let ns = Vec.length scratch in
      for i = 0 to ns - 1 do
        let f = Vec.get scratch (ns - 1 - i) in
        p.cp_win.(i) <- f;
        if f.fr_ready < !next_ready then next_ready := f.fr_ready
      done;
      for i = ns to old_n - 1 do
        p.cp_win.(i) <- nil_task
      done;
      p.cp_n <- ns
    done;
    if !any_finish then Engine.resolve_pending en;
    (* 3. wake resolved rendezvous back into their pipelines *)
    Engine.resume_ready en;
    let n_resumed = Engine.resumed_count en in
    place_resumed ~now;
    (* 4. advance time: fast-forward to the next ready timestamp when
       everything in flight is waiting out latency (the event wheel).
       [next_ready] covers the step survivors; resumed frames are ready
       next cycle, which the [n_resumed] test below already takes. *)
    (* manual loop: [Array.exists] allocates a closure per call *)
    let have_room = ref false in
    for pi = 0 to n_pipes - 1 do
      if pipes.(pi).cp_n < pipes.(pi).cp_capacity then have_room := true
    done;
    let can_issue = Engine.pending_count en > 0 && !have_room in
    let next =
      if can_issue || n_resumed > 0 then now + 1
      else if !next_ready < max_int then imax (now + 1) !next_ready
      else now + 1
    in
    (* stall attribution: charge each pipeline exactly (next - now)
       cycles so the buckets decompose cycles x pipelines *)
    let dt = next - now in
    let pending_now = Engine.pending_count en in
    for pi = 0 to n_pipes - 1 do
      let p = pipes.(pi) in
      let cls =
        if p.cp_stepped then b_busy
        else if p.cp_n > 0 then b_mem
        else if Engine.waiting_in en p.cp_set > 0 then b_rdv
        else if pending_now > 0 && pops_left.(p.cp_set) = 0 then b_queue
        else b_idle
      in
      charge p.cp_set cls 1;
      if dt > 1 then begin
        let wait_cls =
          if p.cp_n > 0 then b_mem else if Engine.waiting_in en p.cp_set > 0 then b_rdv else b_idle
        in
        charge p.cp_set wait_cls (dt - 1)
      end;
      p.cp_stepped <- false
    done;
    (* squash reclassification, newest first; clamp to the busy
       balance accrued so far *)
    for i = Vec.length sq_set - 1 downto 0 do
      let set = Vec.get sq_set i and ops = Vec.get sq_ops i in
      let moved = imin ops matrix.((set * 6) + b_busy) in
      matrix.((set * 6) + b_busy) <- matrix.((set * 6) + b_busy) - moved;
      matrix.((set * 6) + b_squash) <- matrix.((set * 6) + b_squash) + moved
    done;
    Vec.clear sq_set;
    Vec.clear sq_ops;
    (* deadlock detection *)
    if
      (not can_issue)
      && !next_ready = max_int
      && n_resumed = 0
      && Engine.uncommitted_remaining en
    then begin
      Engine.resolve_pending en;
      Engine.resume_ready en;
      if Engine.resumed_count en = 0 then begin
        if Engine.deadlocked en then
          raise (Semantics.Deadlock "Accelerator.run: deadlock in rule resolution")
      end
      else place_resumed ~now
    end;
    begin
      match timeline with
      | Some tl when Timeline.due tl ~upto:next ->
          let mst = Memory.stats mem in
          Timeline.tick tl ~upto:next
            {
              Timeline.in_flight = in_flight_count ();
              pending = Engine.pending_count en;
              active_ops = !active_op_cycles;
              mem_hits = mst.Memory.hits;
              mem_misses = mst.Memory.misses;
              link_bytes = mst.Memory.bytes_over_link;
            }
      | Some _ | None -> ()
    end;
    cycle := next
  done;
  let minor_words = Gc.minor_words () -. minor_start in
  State.set_tracing state false;
  begin
    match timeline with
    | Some tl ->
        let mst = Memory.stats mem in
        Timeline.finish tl ~cycles:!cycle
          {
            Timeline.in_flight = in_flight_count ();
            pending = Engine.pending_count en;
            active_ops = !active_op_cycles;
            mem_hits = mst.Memory.hits;
            mem_misses = mst.Memory.misses;
            link_bytes = mst.Memory.bytes_over_link;
          }
    | None -> ()
  end;
  (* replay the flat attribution matrix into the shared Attribution.t
     (sets in pipeline order = first-charge order) *)
  let attr = Attribution.create () in
  let seen = Array.make (max n_sets 1) false in
  Array.iter
    (fun p ->
      if not seen.(p.cp_set) then begin
        seen.(p.cp_set) <- true;
        List.iteri
          (fun b bucket -> Attribution.charge attr ~set:p.cp_set_name bucket matrix.((p.cp_set * 6) + b))
          Attribution.buckets
      end)
    pipes;
  {
    r_cycles = !cycle;
    r_active_op_cycles = !active_op_cycles;
    r_peak_in_flight = !peak_in_flight;
    r_total_stage_ops = total_stage_ops;
    r_minor_words = minor_words;
    r_cond_evals = Engine.cond_evals en;
    r_stats = Engine.stats en;
    r_attr = attr;
    r_mem = mem;
  }
