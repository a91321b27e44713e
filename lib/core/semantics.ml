(* One semantics, many interpretations.

   The small-step ECA-rule semantics lives in the stepper {!Engine};
   this module is the single software driver around it, parameterized
   over an {!interpretation} record: a {!policy} (which scheduling
   discipline feeds tasks to the stepper) plus {!hooks} (effect
   observers fired at every lifecycle transition).  Sequential, Runtime,
   Parallel_runtime, Trace and Cpu_model are records over {!run}, and a
   new software backend (tracing, profiling, counting) is an
   interpretation record away.  The hardware model drives the same
   stepper from its own cycle loop. *)

(* Typed liveness failures.  Historically these were born in [Runtime]
   and the whole repo matches on [Runtime.Deadlock] /
   [Runtime.Step_limit_exceeded]; [Runtime] now re-exports these very
   constructors (OCaml exception rebinding), so both names are the same
   exception and every existing handler keeps working. *)
exception Deadlock of string

exception Step_limit_exceeded of int

let () =
  Printexc.register_printer (function
    | Deadlock msg -> Some (Printf.sprintf "Agp_core.Runtime.Deadlock(%S)" msg)
    | Step_limit_exceeded n -> Some (Printf.sprintf "Agp_core.Runtime.Step_limit_exceeded(%d)" n)
    | _ -> None)

type step_event =
  | Acquired
  | Resumed of bool
  | Executed of Spec.op
  | Blocked_on of string
  | Finished of Engine.outcome

type hooks = { on_event : tick:int -> worker:int -> Engine.task -> step_event -> unit }

let null_hooks = { on_event = (fun ~tick:_ ~worker:_ _ _ -> ()) }

type policy =
  | Min_first of { max_tasks : int }
  | Workers of { workers : int; max_steps : int }
  | Domains of { domains : int option }

type interpretation = {
  descr : string;
  policy : policy;
  hooks : hooks;
}

type report = {
  tasks_run : int;
  steps : int;
  max_concurrency : int;
  max_waiting : int;
  avg_busy : float;
  domains_used : int;
  stats : Engine.stats;
  prim_counts : (string * int) list;
}

let oracle ?(max_tasks = 10_000_000) () =
  { descr = "Sequential.run"; policy = Min_first { max_tasks }; hooks = null_hooks }

let pipelined ?(workers = 8) ?(max_steps = 100_000_000) () =
  { descr = "Runtime.run"; policy = Workers { workers; max_steps }; hooks = null_hooks }

let multicore ?domains () =
  { descr = "Parallel_runtime.run"; policy = Domains { domains }; hooks = null_hooks }

let with_hooks interp hooks = { interp with hooks }

let with_descr interp descr = { interp with descr }

(* Step [task] once and report the step through [fire], naming the op
   as the spec wrote it. *)
let step_observed eng fire ~worker (task : Engine.task) =
  let op = (Engine.program eng).Opcode.src.(task.Engine.pc) in
  let r = Engine.step eng task in
  begin
    match (r, op) with
    | Engine.Stepped, Some op -> fire ~worker task (Executed op)
    | Engine.Blocked, Some (Spec.Await (_, h)) -> fire ~worker task (Blocked_on h)
    | Engine.Finished outcome, _ -> fire ~worker task (Finished outcome)
    | (Engine.Stepped | Engine.Blocked), _ -> ()
  end;
  r

(* The tasks the last [Engine.resume_ready] woke, in index order. *)
let iter_resumed eng f =
  for i = 0 to Engine.resumed_count eng - 1 do
    f (Engine.resumed eng i)
  done

(* --- Min_first: Definition 4.3, always run the minimum active task
   to completion. *)
let run_min_first ~descr ~max_tasks ~hooks eng =
  let tasks_run = ref 0 in
  let op_count = ref 0 in
  let fire ~worker task e = hooks.on_event ~tick:!op_count ~worker task e in
  let rec drive (task : Engine.task) =
    incr op_count;
    match step_observed eng fire ~worker:0 task with
    | Engine.Stepped -> drive task
    | Engine.Finished _ -> Engine.resolve_pending eng
    | Engine.Blocked ->
        Engine.resolve_pending eng;
        Engine.resume_ready eng;
        if Engine.resumed_count eng = 0 then
          raise
            (Deadlock
               (Printf.sprintf "%s: deadlock at task %s of set %d" descr
                  (Index.to_string (Index.of_array task.Engine.idx))
                  task.Engine.set));
        (* the running task is minimal, so it is what wakes *)
        iter_resumed eng (fun w -> fire ~worker:0 w (Resumed w.Engine.verdict));
        drive task
  in
  let rec loop () =
    if !tasks_run > max_tasks then raise (Step_limit_exceeded max_tasks);
    match Engine.pop_min eng with
    | None -> ()
    | Some task ->
        incr tasks_run;
        fire ~worker:0 task Acquired;
        drive task;
        loop ()
  in
  loop ();
  {
    tasks_run = !tasks_run;
    steps = !op_count;
    max_concurrency = (if !tasks_run > 0 then 1 else 0);
    max_waiting = 0;
    avg_busy = (if !op_count > 0 then 1.0 else 0.0);
    domains_used = 0;
    stats = Engine.stats eng;
    prim_counts = Engine.prim_counts eng;
  }

(* --- Workers: the aggressive software runtime of §4.4.  A fixed pool
   of abstract workers, deterministic op-by-op interleaving; resumed
   tasks take slot priority over fresh pops (they are already deep in
   the pipeline).  Trace capture is this policy plus recording hooks,
   so a traced run keeps the same schedule as an untraced one. *)
let run_workers ~descr ~workers ~max_steps ~hooks eng =
  if workers < 1 then invalid_arg (descr ^ ": workers must be positive");
  let slots = Array.make workers Engine.nil_task in
  let resumable = Queue.create () in
  let tasks_run = ref 0 in
  let steps = ref 0 in
  let max_concurrency = ref 0 in
  let total_busy = ref 0 in
  let max_waiting = ref 0 in
  let fire ~worker task e = hooks.on_event ~tick:!steps ~worker task e in
  let wake () =
    Engine.resume_ready eng;
    iter_resumed eng (fun task -> Queue.push task resumable)
  in
  while Engine.uncommitted_remaining eng do
    incr steps;
    if !steps > max_steps then raise (Step_limit_exceeded max_steps);
    let progressed = ref false in
    for w = 0 to workers - 1 do
      if slots.(w) == Engine.nil_task then begin
        if not (Queue.is_empty resumable) then begin
          let task = Queue.pop resumable in
          fire ~worker:w task (Resumed task.Engine.verdict);
          slots.(w) <- task
        end
        else
          match Engine.pop_any eng with
          | Some task ->
              fire ~worker:w task Acquired;
              slots.(w) <- task
          | None -> ()
      end
    done;
    let busy_now =
      Array.fold_left (fun n s -> if s == Engine.nil_task then n else n + 1) 0 slots
    in
    total_busy := !total_busy + busy_now;
    max_concurrency := max !max_concurrency busy_now;
    (* One operation per busy worker per tick. *)
    for w = 0 to workers - 1 do
      let task = slots.(w) in
      if task != Engine.nil_task then begin
        progressed := true;
        match step_observed eng fire ~worker:w task with
        | Engine.Stepped -> ()
        | Engine.Blocked ->
            slots.(w) <- Engine.nil_task;
            Engine.resolve_pending eng
        | Engine.Finished _ ->
            incr tasks_run;
            slots.(w) <- Engine.nil_task;
            Engine.resolve_pending eng
      end
    done;
    max_waiting := max !max_waiting (Engine.waiting_count eng);
    (* Wake tasks whose rendezvous resolved. *)
    wake ();
    if (not !progressed) && Queue.is_empty resumable then begin
      (* Nothing ran and nothing woke: either only parked tasks remain
         (give the minimum-task machinery a chance) or the spec is
         deadlocked. *)
      Engine.resolve_pending eng;
      wake ();
      if Queue.is_empty resumable && Engine.deadlocked eng then
        raise (Deadlock (descr ^ ": deadlock — a rule lacks a viable exit path"))
    end
  done;
  {
    tasks_run = !tasks_run;
    steps = !steps;
    max_concurrency = !max_concurrency;
    max_waiting = !max_waiting;
    avg_busy =
      (if !steps = 0 then 0.0 else float_of_int !total_busy /. float_of_int !steps);
    domains_used = 0;
    stats = Engine.stats eng;
    prim_counts = Engine.prim_counts eng;
  }

(* --- Domains: genuinely multicore, OCaml 5 domains over the shared
   engine guarded by one lock.  Each domain repeatedly: take the lock,
   acquire a task (resumed first), run it op-by-op under the lock until
   it blocks or finishes, then release.  Holding the lock across a
   whole task slice keeps engine invariants simple; parallelism across
   domains comes from the slices interleaving at block/finish
   boundaries and from the OS overlapping the lock-free tails.  Hooks
   fire under the lock; [tick] is a global transition counter and
   [worker] the domain number, so counting/profiling interpretations
   observe a coherent stream even though the schedule is
   nondeterministic. *)
let run_domains ~descr ~domains ~hooks eng =
  let n_domains =
    match domains with
    | Some n -> max 1 n
    | None -> min 4 (Domain.recommended_domain_count ())
  in
  let lock = Mutex.create () in
  let resumable : Engine.task Queue.t = Queue.create () in
  let tasks_run = Atomic.make 0 in
  let failure : exn option Atomic.t = Atomic.make None in
  let ticks = ref 0 (* mutated under the lock only *) in
  let fire ~worker task e =
    incr ticks;
    hooks.on_event ~tick:!ticks ~worker task e
  in
  let wake () =
    Engine.resume_ready eng;
    iter_resumed eng (fun task -> Queue.push task resumable)
  in
  let worker wid () =
    let idle_spins = ref 0 in
    let running = ref true in
    while !running && Atomic.get failure = None do
      Mutex.lock lock;
      let task =
        if not (Queue.is_empty resumable) then Some (Queue.pop resumable, true)
        else
          match Engine.pop_any eng with
          | Some t -> Some (t, false)
          | None -> None
      in
      begin
        match task with
        | Some (task, resumed) -> begin
            idle_spins := 0;
            fire ~worker:wid task
              (if resumed then Resumed task.Engine.verdict else Acquired);
            let rec slice () =
              match step_observed eng fire ~worker:wid task with
              | Engine.Stepped -> slice ()
              | Engine.Blocked ->
                  Engine.resolve_pending eng;
                  wake ()
              | Engine.Finished _ ->
                  Atomic.incr tasks_run;
                  Engine.resolve_pending eng;
                  wake ()
            in
            (try slice () with e -> Atomic.set failure (Some e))
          end
        | None ->
            if not (Engine.uncommitted_remaining eng) then running := false
            else begin
              (* nothing runnable here: give the minimum-task machinery
                 a chance, then back off *)
              Engine.resolve_pending eng;
              wake ();
              incr idle_spins;
              if !idle_spins > 1_000_000 then begin
                if Engine.deadlocked eng then
                  Atomic.set failure (Some (Deadlock (descr ^ ": deadlock in rule resolution")))
              end
            end
      end;
      Mutex.unlock lock;
      if task = None then Domain.cpu_relax ()
    done
  in
  let spawned = List.init (n_domains - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  worker 0 ();
  List.iter Domain.join spawned;
  begin
    match Atomic.get failure with
    | Some e -> raise e
    | None -> ()
  end;
  {
    tasks_run = Atomic.get tasks_run;
    steps = !ticks;
    max_concurrency = 0;
    max_waiting = 0;
    avg_busy = 0.0;
    domains_used = n_domains;
    stats = Engine.stats eng;
    prim_counts = Engine.prim_counts eng;
  }

let run ?(initial = []) interp sp bindings st =
  let eng = Engine.create sp bindings st in
  List.iter (fun (set, payload) -> Engine.push_initial eng set payload) initial;
  match interp.policy with
  | Min_first { max_tasks } ->
      run_min_first ~descr:interp.descr ~max_tasks ~hooks:interp.hooks eng
  | Workers { workers; max_steps } ->
      run_workers ~descr:interp.descr ~workers ~max_steps ~hooks:interp.hooks eng
  | Domains { domains } -> run_domains ~descr:interp.descr ~domains ~hooks:interp.hooks eng
